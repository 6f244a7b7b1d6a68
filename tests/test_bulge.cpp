// Bulge chasing band -> tridiagonal: the serial reference chase, the
// values-only wavefront engine, and the overlapped route (serial chase, Q
// update on packed panels across pool lanes). Both parallel routes are
// pinned BITWISE-equal to serial (d, e, and accumulated Q) for every shape,
// thread count, and blocking choice — their schedules only commute rotation
// pairs with disjoint footprints (DESIGN.md §14), so any arithmetic
// divergence is a scheduler bug, not roundoff. The Q update that replays the
// chase's rotation logs in waves is pinned BITWISE-equal to a naive
// per-rotation replay in both layouts and at every kernel level.
// The chase on compact band storage is checked against a textbook
// full-storage Givens chase kept here as an oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/blas/blas.hpp"
#include "src/blas/simd_dispatch.hpp"
#include "src/bulge/bulge_chasing.hpp"
#include "src/bulge/bulge_kernels.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/bulge/q_update.hpp"
#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/common/recovery.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/workspace.hpp"
#include "src/evd/batch.hpp"
#include "src/evd/evd.hpp"
#include "src/lapack/sytrd.hpp"
#include "src/lapack/tridiag.hpp"
#include "src/sbr/band.hpp"
#include "src/sbr/sbr.hpp"
#include "src/tensorcore/engine.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

template <typename T>
Matrix<T> random_band(index_t n, index_t bw, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<T> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  sbr::truncate_to_band<T>(a.view(), bw);
  return a;
}

/// T = tridiag(d, e) as a full matrix.
template <typename T>
Matrix<T> tridiag_matrix(const bulge::BulgeResult<T>& tri) {
  const index_t n = static_cast<index_t>(tri.d.size());
  Matrix<T> t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t(i, i) = tri.d[static_cast<std::size_t>(i)];
    if (i + 1 < n) {
      t(i + 1, i) = tri.e[static_cast<std::size_t>(i)];
      t(i, i + 1) = tri.e[static_cast<std::size_t>(i)];
    }
  }
  return t;
}

/// ||Q^T A Q - tridiag(d, e)||_F / ||A||_F: the chase is a similarity.
double similarity_residual(ConstMatrixView<double> a, ConstMatrixView<double> q,
                           const bulge::BulgeResult<double>& tri) {
  const index_t n = a.rows();
  Matrix<double> t1(n, n), t2(n, n);
  blas::gemm(blas::Trans::Yes, blas::Trans::No, 1.0, q, a, 0.0, t1.view());
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, t1.view(), q, 0.0, t2.view());
  const Matrix<double> t = tridiag_matrix(tri);
  return frobenius_diff<double>(t2.view(), t.view()) / frobenius_norm<double>(a);
}

class BulgeTest : public ::testing::TestWithParam<std::tuple<index_t, index_t>> {};

TEST_P(BulgeTest, ReducesToTridiagonalPreservingSpectrum) {
  const auto [n, bw] = GetParam();
  auto a = random_band<double>(n, bw, 100 + n + bw);
  Matrix<double> q(n, n);
  set_identity(q.view());
  auto qv = q.view();
  auto res = bulge::bulge_chase<double>(a.view(), bw, &qv);

  // Q^T A Q is exactly the returned tridiagonal, up to roundoff.
  EXPECT_LT(similarity_residual(a.view(), q.view(), res), 1e-12);

  // Spectrum preserved: compare against direct bisection on the band matrix
  // via full tridiagonalization in double.
  auto d = res.d;
  auto e = res.e;
  ASSERT_TRUE(lapack::sterf(d, e).ok());

  Matrix<double> ad = a;
  std::vector<double> dd, ee, tau;
  lapack::sytrd(ad.view(), dd, ee, tau);
  ASSERT_TRUE(lapack::sterf(dd, ee).ok());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<std::size_t>(i)], dd[static_cast<std::size_t>(i)], 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BulgeTest,
                         ::testing::Values(std::make_tuple<index_t, index_t>(30, 2),
                                           std::make_tuple<index_t, index_t>(24, 2),
                                           std::make_tuple<index_t, index_t>(64, 8),
                                           std::make_tuple<index_t, index_t>(100, 16),
                                           std::make_tuple<index_t, index_t>(65, 7),
                                           std::make_tuple<index_t, index_t>(40, 39),   // full
                                           std::make_tuple<index_t, index_t>(50, 1)));  // noop

TEST(Bulge, AccumulatesQ) {
  const index_t n = 60, bw = 6;
  auto a = random_band<double>(n, bw, 7);
  const Matrix<double> a0 = a;
  Matrix<double> q(n, n);
  set_identity(q.view());
  auto qv = q.view();
  auto res = bulge::bulge_chase<double>(a.view(), bw, &qv);

  EXPECT_LT(orthogonality_residual<double>(q.view()), 1e-12 * n);
  EXPECT_LT(similarity_residual(a.view(), q.view(), res), 1e-12);
  // The chase reads its input and leaves it alone.
  EXPECT_EQ(std::memcmp(a.data(), a0.data(), sizeof(double) * static_cast<std::size_t>(n * n)),
            0);
}

TEST(Bulge, TridiagonalInputUntouched) {
  const index_t n = 25;
  auto a = random_band<double>(n, 1, 9);
  auto work = a;
  auto res = bulge::bulge_chase<double>(work.view(), 1, nullptr);
  EXPECT_LT(test::rel_diff<double>(work.view(), a.view()), 1e-15);
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(res.d[static_cast<std::size_t>(i)], a(i, i));
}

TEST(Bulge, FloatPrecisionStable) {
  const index_t n = 120, bw = 12;
  auto a = random_band<float>(n, bw, 11);
  auto res = bulge::bulge_chase<float>(a.view(), bw, nullptr);
  auto d = res.d;
  auto e = res.e;
  ASSERT_TRUE(lapack::sterf(d, e).ok());

  // Double-precision reference spectrum of the same band matrix.
  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a.view(), ad.view());
  std::vector<double> dd, ee, tau;
  lapack::sytrd(ad.view(), dd, ee, tau);
  ASSERT_TRUE(lapack::sterf(dd, ee).ok());
  double scale = 0.0;
  for (double v : dd) scale = std::max(scale, std::abs(v));
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<std::size_t>(i)], dd[static_cast<std::size_t>(i)], 1e-4 * scale);
}

TEST(Bulge, DiagonalMatrixIsFixedPoint) {
  const index_t n = 20;
  Matrix<double> a(n, n);
  for (index_t i = 0; i < n; ++i) a(i, i) = static_cast<double>(i);
  auto res = bulge::bulge_chase<double>(a.view(), 5, nullptr);
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(res.d[static_cast<std::size_t>(i)], double(i));
  for (index_t i = 0; i + 1 < n; ++i) EXPECT_EQ(res.e[static_cast<std::size_t>(i)], 0.0);
}

// The second stage holds the band in O(n b) storage, not the n x n matrix:
// 4x the order is at most 4x the bytes (a full matrix would be 16x).
TEST(Bulge, WorkspaceIsLinearInN) {
  const std::size_t small = bulge::chase_workspace_bytes<float>(1000, 16, false);
  const std::size_t big = bulge::chase_workspace_bytes<float>(4000, 16, false);
  EXPECT_LE(big, 4 * small);
  EXPECT_LT(big, 4000ull * 4000ull * 4ull / 50ull);
}

// ---------------------------------------------------------------------------
// Compact band storage, checked against a textbook full-storage chase.
// ---------------------------------------------------------------------------

/// The compact band written back to a symmetric full matrix.
template <typename T>
Matrix<T> band_to_full(bulge::detail::BandView<T> band) {
  Matrix<T> full(band.n, band.n);
  for (index_t j = 0; j < band.n; ++j)
    for (index_t i = j; i < std::min(band.n, j + band.ld); ++i) {
      full(i, j) = band(i, j);
      full(j, i) = band(i, j);
    }
  return full;
}

/// Full-storage Givens chase: the same elimination order as chase_elim
/// (diagonals d = bw .. 2, sweeps s, iterations k), each rotation applied as
/// A <- G^T A G to whole rows and columns of the n x n matrix and, when `q`
/// is non-null, as Q <- Q G.
template <typename T>
void full_storage_chase(Matrix<T> a, index_t bw, std::vector<T>& d, std::vector<T>& e,
                        Matrix<T>* q) {
  const index_t n = a.rows();
  for (index_t dd = std::min(bw, n - 1); dd >= 2; --dd)
    for (index_t s = 0; s + dd < n; ++s)
      for (index_t k = 0; s + (k + 1) * dd < n; ++k) {
        const index_t tcol = (k == 0) ? s : s + k * dd - 1;
        const index_t j = s + (k + 1) * dd;
        const index_t i = j - 1;
        const T f = a(i, tcol);
        const T g = a(j, tcol);
        if (g == T{}) continue;
        const T h = std::hypot(f, g);
        const T c = f / h;
        const T sn = g / h;
        for (index_t col = 0; col < n; ++col) {
          const T t1 = a(i, col);
          const T t2 = a(j, col);
          a(i, col) = c * t1 + sn * t2;
          a(j, col) = -sn * t1 + c * t2;
        }
        for (index_t row = 0; row < n; ++row) {
          const T t1 = a(row, i);
          const T t2 = a(row, j);
          a(row, i) = c * t1 + sn * t2;
          a(row, j) = -sn * t1 + c * t2;
        }
        a(j, tcol) = T{};
        a(tcol, j) = T{};
        if (q != nullptr)
          for (index_t row = 0; row < n; ++row) {
            const T t1 = (*q)(row, i);
            const T t2 = (*q)(row, j);
            (*q)(row, i) = c * t1 + sn * t2;
            (*q)(row, j) = -sn * t1 + c * t2;
          }
      }
  d.resize(static_cast<std::size_t>(n));
  e.resize(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)));
  for (index_t i = 0; i < n; ++i) {
    d[static_cast<std::size_t>(i)] = a(i, i);
    if (i + 1 < n) e[static_cast<std::size_t>(i)] = a(i + 1, i);
  }
}

bool has_site(const RecoveryLog& log, const std::string& site) {
  for (const RecoveryEvent& ev : log)
    if (ev.site == site) return true;
  return false;
}

TEST(BandStorage, RoundTripFullCompactFull) {
  const index_t n = 30, bw = 5;
  auto a = random_band<double>(n, bw, 1);
  Workspace ws;
  auto band = bulge::detail::load_band<double>(a.view(), bw, ws);
  EXPECT_EQ(band.ld, bw + 2);
  // The bulge slot (the diagonal just outside the band) starts at zero.
  for (index_t j = 0; j + bw + 1 < n; ++j) EXPECT_EQ(band(j + bw + 1, j), 0.0);
  auto back = band_to_full(band);
  EXPECT_EQ(test::rel_diff<double>(back.view(), a.view()), 0.0);
}

TEST(BandStorage, GetIsSymmetric) {
  // One stored triangle: (i, j) and (j, i) are the same entry, loaded from
  // the lower triangle. A poisoned upper triangle is never read, so the
  // chase output is bitwise that of the symmetric matrix.
  const index_t n = 20, bw = 4;
  auto a = random_band<double>(n, bw, 2);
  auto poisoned = a;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < j; ++i) poisoned(i, j) = std::nan("");

  Workspace ws;
  auto band = bulge::detail::load_band<double>(poisoned.view(), bw, ws);
  EXPECT_EQ(band(7, 4), a(4, 7));
  EXPECT_EQ(band(7, 4), a(7, 4));

  auto ref = bulge::bulge_chase<double>(a.view(), bw, nullptr);
  auto got = bulge::bulge_chase<double>(poisoned.view(), bw, nullptr);
  EXPECT_EQ(ref.d, got.d);
  EXPECT_EQ(ref.e, got.e);
}

TEST(BandStorage, FootprintIsLinearInN) {
  const std::size_t small = bulge::detail::band_bytes<float>(1000, 16);
  const std::size_t big = bulge::detail::band_bytes<float>(4000, 16);
  // O(n b): 4x the rows -> at most 4x the bytes (a full matrix would be 16x).
  EXPECT_LE(big, 4 * small);
  EXPECT_LT(big, 4000ull * 4000ull * 4ull / 50ull);
}

class BandChaseTest : public ::testing::TestWithParam<std::tuple<index_t, index_t>> {};

TEST_P(BandChaseTest, MatchesFullStorageChase) {
  const auto [n, bw] = GetParam();
  auto a = random_band<double>(n, bw, 100 + n);

  // Full-storage reference, with Q.
  std::vector<double> d_ref, e_ref;
  Matrix<double> q_ref(n, n);
  set_identity(q_ref.view());
  full_storage_chase<double>(a, bw, d_ref, e_ref, &q_ref);

  // Compact chase.
  Matrix<double> q(n, n);
  set_identity(q.view());
  auto qv = q.view();
  auto got = bulge::bulge_chase<double>(a.view(), bw, &qv);

  // Identical rotation sequence -> identical tridiagonal and Q up to roundoff.
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(got.d[static_cast<std::size_t>(i)], d_ref[static_cast<std::size_t>(i)], 1e-12);
  for (index_t i = 0; i + 1 < n; ++i)
    EXPECT_NEAR(got.e[static_cast<std::size_t>(i)], e_ref[static_cast<std::size_t>(i)], 1e-12);
  EXPECT_LT(test::rel_diff<double>(q.view(), q_ref.view()), 1e-12);
}

TEST_P(BandChaseTest, SpectrumPreserved) {
  const auto [n, bw] = GetParam();
  auto a = random_band<double>(n, bw, 200 + n);

  auto tri = bulge::bulge_chase<double>(a.view(), bw, nullptr);
  ASSERT_TRUE(lapack::sterf(tri.d, tri.e).ok());

  auto ref = *evd::reference_eigenvalues(a.view());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(tri.d[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)], 1e-9 * n);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BandChaseTest,
                         ::testing::Values(std::make_tuple<index_t, index_t>(24, 2),
                                           std::make_tuple<index_t, index_t>(64, 8),
                                           std::make_tuple<index_t, index_t>(100, 16),
                                           std::make_tuple<index_t, index_t>(65, 7),
                                           std::make_tuple<index_t, index_t>(50, 1)));

TEST(BandChase, AfterSbrPipeline) {
  // SBR output -> compact band -> chase -> eigenvalues == direct pipeline.
  const index_t n = 96, bw = 8;
  auto a = test::random_symmetric<float>(n, 9);
  tc::Fp32Engine eng;
  Context ctx(eng);
  sbr::SbrOptions opt;
  opt.bandwidth = bw;
  opt.big_block = 32;
  auto res = *sbr::sbr_wy(a.view(), ctx, opt);

  auto tri = bulge::bulge_chase(ctx, res.band.view(), bw, nullptr);
  ASSERT_TRUE(lapack::sterf(tri.d, tri.e).ok());

  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a.view(), ad.view());
  auto ref = *evd::reference_eigenvalues(ad.view());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(tri.d[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)], 1e-4 * n);
}

TEST(BandChase, ArenaAndHeapBandsAgreeBitwise) {
  // The Context overload takes the band and the rotation log from the
  // workspace arena, the plain overload from the heap: same bits.
  const index_t n = 77, bw = 6;
  auto a = random_band<float>(n, bw, 5);
  Matrix<float> q_heap(n, n), q_arena(n, n);
  set_identity(q_heap.view());
  set_identity(q_arena.view());
  auto qh = q_heap.view();
  auto qa = q_arena.view();
  auto heap = bulge::bulge_chase<float>(a.view(), bw, &qh);
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto arena = bulge::bulge_chase(ctx, a.view(), bw, &qa);
  EXPECT_EQ(heap.d, arena.d);
  EXPECT_EQ(heap.e, arena.e);
  EXPECT_EQ(std::memcmp(q_heap.data(), q_arena.data(),
                        sizeof(float) * static_cast<std::size_t>(n * n)),
            0);
}

TEST(BandChase, TridiagonalDoesNotDependOnQ) {
  // The kernel rotates the band only; Q is written from the rotation log.
  // A values-only chase and a vectors chase produce the same (d, e) bits.
  const index_t n = 90, bw = 9;
  auto a = random_band<float>(n, bw, 8);
  tc::Fp32Engine eng;
  Context ctx(eng);
  Matrix<float> q(n, n);
  set_identity(q.view());
  auto qv = q.view();
  auto without = bulge::bulge_chase(ctx, a.view(), bw, nullptr);
  auto with = bulge::bulge_chase(ctx, a.view(), bw, &qv);
  EXPECT_EQ(without.d, with.d);
  EXPECT_EQ(without.e, with.e);
}

TEST(BandChase, BandwidthBeyondOrderIsClamped) {
  // A dense matrix chased with bw >= n - 1: the band is the whole lower
  // triangle either way, so the output does not depend on how far past
  // n - 1 the caller's bandwidth reaches.
  const index_t n = 17;
  auto a = test::random_symmetric<double>(n, 6);
  auto exact = bulge::bulge_chase<double>(a.view(), n - 1, nullptr);
  auto over = bulge::bulge_chase<double>(a.view(), n + 40, nullptr);
  EXPECT_EQ(exact.d, over.d);
  EXPECT_EQ(exact.e, over.e);
  EXPECT_EQ(bulge::detail::band_ld(n, n + 40), n + 1);
}

// ---------------------------------------------------------------------------
// The compact chase as the evd pipeline's only second stage.
// ---------------------------------------------------------------------------

TEST(CompactSecondStage, SameEigenvaluesAsFullStorage) {
  // evd::solve chases the SBR band on compact storage; chasing the same band
  // on full storage gives the same spectrum.
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 1);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  auto compact = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(compact.converged);

  sbr::SbrOptions sopt;
  sopt.bandwidth = opt.bandwidth;
  sopt.big_block = opt.big_block;
  Context ctx2(eng);
  auto sres = *sbr::sbr_wy(a.view(), ctx2, sopt);
  std::vector<float> d, e;
  full_storage_chase<float>(sres.band, opt.bandwidth, d, e, nullptr);
  ASSERT_TRUE(lapack::sterf(d, e).ok());

  ASSERT_EQ(compact.eigenvalues.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i)
    EXPECT_NEAR(compact.eigenvalues[i], d[i], 2e-5f) << i;
}

TEST(CompactSecondStage, ServesVectorRequestsWithoutNote) {
  // Rotations stream from the compact chase's log into Q, so a vectors
  // request runs the same second stage and takes no downgrade.
  const index_t n = 48;
  auto a = test::random_symmetric<float>(n, 2);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  opt.vectors = true;
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_FALSE(has_site(res.recovery, "evd.second_stage"));
  EXPECT_LT(evd::eigenpair_residual(a.view(), res.eigenvalues, res.vectors.view()), 1e-5);
}

// ---------------------------------------------------------------------------
// Wavefront engine (values only): bitwise equality with the serial reference.
// ---------------------------------------------------------------------------

/// Run the serial chase and the wavefront chase on the same band matrix and
/// require element-exact agreement of the tridiagonal (d, e).
template <typename T>
void expect_wavefront_bitwise(index_t n, index_t bw, const bulge::WavefrontOptions& wopt,
                              std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "n=" << n << " bw=" << bw
                                    << " lanes=" << wopt.max_lanes
                                    << " block=" << wopt.sweep_block
                                    << " tile_rows=" << wopt.tile_rows);
  const auto a = random_band<T>(n, bw, seed);
  auto ref = bulge::bulge_chase<T>(a.view(), bw);

  tc::Fp32Engine eng;
  Context ctx(eng);
  auto got = bulge::bulge_chase_wavefront<T>(ctx, a.view(), bw, wopt);

  ASSERT_EQ(ref.d.size(), got.d.size());
  ASSERT_EQ(ref.e.size(), got.e.size());
  for (std::size_t i = 0; i < ref.d.size(); ++i) EXPECT_EQ(ref.d[i], got.d[i]) << "d[" << i << "]";
  for (std::size_t i = 0; i < ref.e.size(); ++i) EXPECT_EQ(ref.e[i], got.e[i]) << "e[" << i << "]";
}

/// One shared pool for the whole binary: 7 workers + the broadcasting caller
/// = up to 8 lanes, capped per-case via WavefrontOptions::max_lanes or the
/// overlapped route's max_lanes.
ThreadPool& bulge_test_pool() {
  static ThreadPool pool(7);
  return pool;
}

class BulgeWavefrontBitwise : public ::testing::TestWithParam<index_t> {};

// Edge/odd/prime/pow2 sizes x bandwidths (1 = no-op, 2 = the DBR narrow-band
// shape, 3, 8, n-1 = full) x lane counts {1, 2, 8}.
TEST_P(BulgeWavefrontBitwise, MatchesSerialAcrossBandwidthsAndLanes) {
  const index_t n = GetParam();
  std::vector<index_t> bws = {1, 2, 3, 8};
  if (n > 1) bws.push_back(n - 1);
  std::uint64_t seed = 1000 + static_cast<std::uint64_t>(n);
  for (index_t bw : bws) {
    if (bw < 1 || bw > std::max<index_t>(n - 1, 1)) continue;
    for (int lanes : {1, 2, 8}) {
      bulge::WavefrontOptions wopt;
      wopt.pool = &bulge_test_pool();
      wopt.max_lanes = lanes;
      expect_wavefront_bitwise<double>(n, bw, wopt, ++seed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulgeWavefrontBitwise,
                         ::testing::Values<index_t>(1, 2, 3, 7, 31, 64, 129, 257));

TEST(BulgeWavefront, FloatMatchesSerialBitwise) {
  bulge::WavefrontOptions wopt;
  wopt.pool = &bulge_test_pool();
  expect_wavefront_bitwise<float>(129, 8, wopt, 42);
  expect_wavefront_bitwise<float>(257, 2, wopt, 43);
}

// Output must be invariant under every cache-blocking choice: the sweep-set
// size and tile height only reshape the schedule, never the rotation values
// or any conflicting pair's order.
TEST(BulgeWavefront, BlockingChoicesDoNotChangeOutput) {
  for (index_t sweep_block : {index_t{1}, index_t{2}, index_t{5}, index_t{32}}) {
    for (index_t tile_rows : {index_t{1}, index_t{64}, index_t{192}}) {
      bulge::WavefrontOptions wopt;
      wopt.pool = &bulge_test_pool();
      wopt.sweep_block = sweep_block;
      wopt.tile_rows = tile_rows;
      expect_wavefront_bitwise<double>(129, 3, wopt, 77);
      expect_wavefront_bitwise<double>(97, 8, wopt, 78);
    }
  }
}

// No pool at all: the caller drains every sweep-block inline — still the
// exact serial rotation sequence.
TEST(BulgeWavefront, NullPoolRunsInline) {
  bulge::WavefrontOptions wopt;  // pool == nullptr
  expect_wavefront_bitwise<double>(64, 8, wopt, 5);
}

// The double Context overload must exist and attribute its time to the
// "bulge.chase" telemetry stage (regression: it used to be float-only, so
// double reference pipelines lost stage attribution).
TEST(BulgeWavefront, ContextOverloadsRecordStageForBothPrecisions) {
  tc::Fp32Engine eng;
  Context ctx(eng);
  {
    auto a = random_band<double>(40, 4, 3);
    (void)bulge::bulge_chase(ctx, a.view(), 4, nullptr);
  }
  {
    auto a = random_band<float>(40, 4, 3);
    (void)bulge::bulge_chase(ctx, a.view(), 4, nullptr);
  }
  const auto& stages = ctx.telemetry().stages();
  long calls = 0;
  for (const auto& s : stages)
    if (s.name == "bulge.chase") calls += s.calls;
  EXPECT_EQ(calls, 2);
}

TEST(BulgeWavefront, RecordsWavefrontStages) {
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto a = random_band<double>(64, 8, 13);
  bulge::WavefrontOptions wopt;
  wopt.pool = &bulge_test_pool();
  (void)bulge::bulge_chase_wavefront<double>(ctx, a.view(), 8, wopt);
  EXPECT_GT(ctx.telemetry().stage_seconds("bulge.chase.wavefront"), 0.0);
  // One fan-out window per peeled diagonal: d = 8 .. 2.
  for (const auto& s : ctx.telemetry().stages()) {
    if (s.name == "bulge.chase.sweep") {
      EXPECT_EQ(s.calls, 7);
    }
    EXPECT_NE(s.name, "bulge.q_update") << "no Q, yet the Q update was timed";
  }
}

// ---------------------------------------------------------------------------
// Overlapped route: the serial chase of diagonal d - 1 beside the Q update of
// diagonal d on packed panels, bitwise equal to the in-place serial chase.
// ---------------------------------------------------------------------------

/// The serial chase with Q updated in place (no pool) against the same
/// chase with the Q update overlapped on `pool` (at most `lanes` lanes):
/// d, e and every element of Q must agree exactly.
template <typename T>
void expect_overlap_bitwise(index_t n, index_t bw, ThreadPool* pool, int lanes,
                            std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "n=" << n << " bw=" << bw << " lanes=" << lanes);
  const auto a = random_band<T>(n, bw, seed);
  Matrix<T> q_serial(n, n), q_over(n, n);
  set_identity(q_serial.view());
  set_identity(q_over.view());
  auto qs = q_serial.view();
  auto ref = bulge::bulge_chase<T>(a.view(), bw, &qs);

  tc::Fp32Engine eng;
  Context ctx(eng);
  auto qo = q_over.view();
  auto got = bulge::bulge_chase(ctx, a.view(), bw, &qo, pool, lanes);

  EXPECT_EQ(ref.d, got.d);
  EXPECT_EQ(ref.e, got.e);
  EXPECT_EQ(std::memcmp(q_serial.data(), q_over.data(),
                        sizeof(T) * static_cast<std::size_t>(n * n)),
            0);
}

class BulgeOverlapBitwise : public ::testing::TestWithParam<index_t> {};

// Sizes around the panel heights (32 doubles, 64 floats) and below, every
// bandwidth class, lane counts 1 (in place), 2, 3 and 5.
TEST_P(BulgeOverlapBitwise, MatchesSerialAcrossBandwidthsAndLanes) {
  const index_t n = GetParam();
  std::vector<index_t> bws = {1, 2, 3, 8};
  if (n > 1) bws.push_back(n - 1);
  std::uint64_t seed = 3000 + static_cast<std::uint64_t>(n);
  for (index_t bw : bws) {
    if (bw < 1 || bw > std::max<index_t>(n - 1, 1)) continue;
    for (int lanes : {1, 2, 3, 5}) {
      expect_overlap_bitwise<double>(n, bw, &bulge_test_pool(), lanes, ++seed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulgeOverlapBitwise,
                         ::testing::Values<index_t>(1, 2, 3, 7, 31, 64, 129, 257));

TEST(BulgeOverlap, FloatMatchesSerialBitwise) {
  expect_overlap_bitwise<float>(129, 8, &bulge_test_pool(), 0, 42);
  expect_overlap_bitwise<float>(257, 2, &bulge_test_pool(), 3, 43);
  expect_overlap_bitwise<float>(200, 32, &bulge_test_pool(), 5, 44);
}

// A pool already running another broadcast declines every step of the
// chase: the caller runs each step's indices in order — the chase, then
// every panel — with the same bits.
TEST(BulgeOverlap, BusyPoolDeclinesAndRunsInline) {
  ThreadPool pool(3);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  struct Hold {
    std::atomic<bool>* entered;
    std::atomic<bool>* release;
  } hold{&entered, &release};
  std::thread holder([&] {
    (void)pool.try_broadcast(
        1,
        [](void* ctx, long) {
          auto* h = static_cast<Hold*>(ctx);
          h->entered->store(true);
          while (!h->release->load()) std::this_thread::yield();
        },
        &hold);
  });
  while (!entered.load()) std::this_thread::yield();
  expect_overlap_bitwise<double>(97, 8, &pool, 4, 91);
  expect_overlap_bitwise<float>(130, 3, &pool, 4, 92);
  release.store(true);
  holder.join();
}

// A caller that is itself a pool worker (solve_many, the service) keeps one
// lane: the in-place route, same bits.
TEST(BulgeOverlap, PoolWorkerCallerRunsInPlace) {
  ThreadPool outer(1);
  outer.parallel_for(1, [](int, long) {
    expect_overlap_bitwise<double>(97, 8, &bulge_test_pool(), 4, 93);
  });
}

TEST(BulgeOverlap, RecordsChaseAndQUpdateStages) {
  tc::Fp32Engine eng;
  auto a = random_band<double>(64, 8, 13);
  for (const int lanes : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
    Context ctx(eng);
    Matrix<double> q(64, 64);
    set_identity(q.view());
    auto qv = q.view();
    (void)bulge::bulge_chase(ctx, a.view(), 8, &qv, &bulge_test_pool(), lanes);
    long q_calls = 0;
    long sweep_calls = 0;
    for (const auto& s : ctx.telemetry().stages()) {
      if (s.name == "bulge.q_update") q_calls += s.calls;
      if (s.name == "bulge.chase.sweep") sweep_calls += s.calls;
    }
    EXPECT_EQ(q_calls, 1);
    EXPECT_EQ(sweep_calls, 1) << "the chase's time, summed over d = 8 .. 2";
    EXPECT_GT(ctx.telemetry().stage_seconds("bulge.q_update"), 0.0);
    EXPECT_GT(ctx.telemetry().stage_seconds("bulge.chase.sweep"), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Q update: the applier against an independent naive replay.
// ---------------------------------------------------------------------------

/// Chase `a` (bandwidth bw) and keep each peeled diagonal's rotation log, in
/// peel order (d = bw .. 2), exactly as chase_elim writes it.
template <typename T>
std::vector<std::vector<T>> chase_logs(const Matrix<T>& a, index_t bw) {
  const index_t n = a.rows();
  Workspace ws;
  const bulge::detail::BandView<T> band = bulge::detail::load_band(a.view(), bw, ws);
  std::vector<std::vector<T>> logs;
  for (index_t d = std::min(bw, n - 1); d >= 2; --d) {
    std::vector<T> log;
    for (index_t s = 0; s + d < n; ++s) {
      const index_t len = bulge::detail::sweep_length(n, d, s);
      std::vector<T> sweep(2 * static_cast<std::size_t>(len));
      for (index_t k = 0; k < len; ++k)
        bulge::detail::chase_elim(band, d, s, k, sweep.data());
      log.insert(log.end(), sweep.begin(), sweep.end());
    }
    logs.push_back(std::move(log));
  }
  return logs;
}

/// The reference the applier is pinned to: every logged rotation in order,
/// one column-pair loop over all rows, skips skipped.
template <typename T>
void naive_replay(MatrixView<T> q, index_t bw, const std::vector<std::vector<T>>& logs) {
  const index_t n = q.cols();
  std::size_t li = 0;
  for (index_t d = std::min(bw, n - 1); d >= 2; --d, ++li) {
    std::size_t slot = 0;
    for (index_t s = 0; s + d < n; ++s) {
      for (index_t k = 0; k < bulge::detail::sweep_length(n, d, s); ++k, ++slot) {
        const T c = logs[li][2 * slot];
        const T sn = logs[li][2 * slot + 1];
        if (c == blas::kRotSkip<T>) continue;
        const index_t i = s + (k + 1) * d - 1;
        for (index_t r = 0; r < q.rows(); ++r) {
          const T t1 = q(r, i);
          const T t2 = q(r, i + 1);
          q(r, i) = c * t1 + sn * t2;
          q(r, i + 1) = -sn * t1 + c * t2;
        }
      }
    }
  }
}

template <typename T>
void expect_applier_matches_naive(index_t n) {
  const index_t bw = std::min<index_t>(n - 1, n > 200 ? 3 : 8);
  // Band with exact zeros on its outer diagonals, so whole sweeps are skips.
  auto a = random_band<T>(n, bw, 500 + static_cast<std::uint64_t>(n));
  for (index_t j = 0; j + bw < n; ++j) {
    a(j + bw, j) = a(j, j + bw) = T{};
    if (bw > 2 && j % 3 == 0) a(j + bw - 1, j) = a(j, j + bw - 1) = T{};
  }
  const auto logs = chase_logs(a, bw);
  // Q: identity with signed zeros, so a skip applied as the identity
  // rotation (or any stray operation) changes bits. Rows are transformed
  // independently, so Q keeps at most 257 of them: more rows add time, not
  // coverage.
  const index_t rows = std::min<index_t>(n, 257);
  Matrix<T> q0(rows, n);
  set_identity(q0.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < rows; ++i)
      if (i != j && (i + j) % 2 == 1) q0(i, j) = -T{};

  Matrix<T> ref = q0;
  naive_replay(ref.view(), bw, logs);

  for (const bool scalar : {true, false}) {
    std::optional<blas::simd::ScalarKernelScope> force;
    if (scalar) force.emplace();
    for (const bool packed : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " packed=" << packed << " kernels="
                                        << blas::simd::active_level_name());
      Matrix<T> got = q0;
      Workspace ws;
      {
        Workspace::Scope scope(ws);
        const bulge::QUpdate<T> qu(got.view(), ws, packed);
        if (packed)
          for (index_t p = 0; p < qu.panels(); ++p) qu.pack(p);
        std::size_t li = 0;
        for (index_t d = std::min(bw, n - 1); d >= 2; --d, ++li) {
          std::copy(logs[li].begin(), logs[li].end(), qu.log(d));
          if (packed) {
            for (index_t p = 0; p < qu.panels(); ++p) qu.apply(p, d);
          } else {
            qu.apply_in_place(d);
          }
        }
        if (packed)
          for (index_t p = 0; p < qu.panels(); ++p) qu.unpack(p);
      }
      EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                            sizeof(T) * static_cast<std::size_t>(rows * n)),
                0);
    }
  }
}

class BulgeQUpdate : public ::testing::TestWithParam<index_t> {};

TEST_P(BulgeQUpdate, MatchesNaiveReplayBitwise) {
  expect_applier_matches_naive<float>(GetParam());
  expect_applier_matches_naive<double>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulgeQUpdate,
                         ::testing::Values<index_t>(2, 3, 7, 64, 129, 257, 1031));

// The bulge_threads routing shim: 1 = one lane, >= 2 = forced lanes on the
// shared gemm pool, 0 = auto — all bitwise-identical, with and without Q.
TEST(BulgeWavefront, AutoRouteIsBitwiseInvariant) {
  const index_t n = 80, bw = 8;  // n < kAutoWavefrontMinN: values-only auto stays serial
  auto a = random_band<float>(n, bw, 31);
  tc::Fp32Engine eng;

  for (const bool with_q : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "with_q=" << with_q);
    std::vector<bulge::BulgeResult<float>> results;
    std::vector<Matrix<float>> qs;
    for (int threads : {0, 1, 2, 8}) {
      Context ctx(eng);
      auto work = a;
      Matrix<float> q(n, n);
      set_identity(q.view());
      auto qv = q.view();
      results.push_back(bulge::bulge_chase_auto<float>(ctx, work.view(), bw,
                                                       with_q ? &qv : nullptr, threads));
      qs.push_back(std::move(q));
    }
    for (std::size_t r = 1; r < results.size(); ++r) {
      EXPECT_EQ(results[0].d, results[r].d);
      EXPECT_EQ(results[0].e, results[r].e);
      EXPECT_EQ(std::memcmp(qs[0].data(), qs[r].data(),
                            sizeof(float) * static_cast<std::size_t>(n * n)),
                0);
    }
  }
}

// Regression for the silent-serialization bug: an explicit bulge_threads >= 2
// that cannot engage the wavefront (narrow band, tiny matrix, or a caller
// that is already a pool worker) used to fall back to the serial chase with
// no trace. It must now note the downgrade at site "evd.second_stage" — and
// still produce bitwise-identical output.
TEST(BulgeWavefront, ForcedThreadsThatCannotEngageNoteTheDowngrade) {
  const index_t n = 16, bw = 1;  // bandwidth < 2: the wavefront can never engage
  auto a = random_band<float>(n, bw, 77);
  tc::Fp32Engine eng;

  Context serial_ctx(eng);
  auto serial_work = a;
  auto serial = bulge::bulge_chase_auto<float>(serial_ctx, serial_work.view(), bw,
                                               nullptr, /*bulge_threads=*/1);

  Context ctx(eng);
  auto work = a;
  recovery::Scope scope;
  auto forced = bulge::bulge_chase_auto<float>(ctx, work.view(), bw, nullptr,
                                               /*bulge_threads=*/4);
  RecoveryLog log = scope.take();
  bool noted = false;
  for (const RecoveryEvent& ev : log)
    if (ev.site == "evd.second_stage" &&
        ev.action.find("serial") != std::string::npos &&
        ev.action.find("bulge_threads = 4") != std::string::npos)
      noted = true;
  EXPECT_TRUE(noted) << "forced-but-ineligible lanes must note the serial downgrade";

  ASSERT_EQ(serial.d.size(), forced.d.size());
  for (std::size_t i = 0; i < serial.d.size(); ++i) EXPECT_EQ(serial.d[i], forced.d[i]);

  // An engageable forced request (bw >= 2, main thread) must NOT note.
  const index_t bw2 = 8;
  auto b = random_band<float>(64, bw2, 78);
  Context ctx2(eng);
  recovery::Scope scope2;
  (void)bulge::bulge_chase_auto<float>(ctx2, b.view(), bw2, nullptr, /*bulge_threads=*/4);
  for (const RecoveryEvent& ev : scope2.take())
    EXPECT_NE(ev.site, "evd.second_stage") << ev.action;
}

// The downgrade is also visible end-to-end: a batch worker IS a pool thread,
// so an explicit lane request under solve_many serializes — with the note
// surfaced in the per-problem recovery log.
TEST(BulgeWavefront, ForcedThreadsUnderBatchWorkerNoteTheDowngrade) {
  auto a = test::random_symmetric<float>(64, 79);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.bulge_threads = 4;

  std::vector<Matrix<float>> batch;
  batch.push_back(std::move(a));
  evd::BatchOptions bopt;
  bopt.evd = opt;
  bopt.num_threads = 1;
  auto res = evd::solve_many(batch, eng, bopt);
  ASSERT_TRUE(res.all_ok());
  bool noted = false;
  for (const RecoveryEvent& ev : res.problems[0].recovery)
    if (ev.site == "evd.second_stage" &&
        ev.action.find("thread-pool worker") != std::string::npos)
      noted = true;
  EXPECT_TRUE(noted) << "lane request serialized on a pool worker without a note";
}

}  // namespace
}  // namespace tcevd
