// Divide & conquer tridiagonal eigensolver vs steqr/bisection, including
// deflation-heavy spectra and eigenvector orthogonality on clusters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/blas/blas.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/lapack/secular.hpp"
#include "src/lapack/tridiag.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

Matrix<double> dense_tridiag(const std::vector<double>& d, const std::vector<double>& e) {
  const index_t n = static_cast<index_t>(d.size());
  Matrix<double> t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t(i, i) = d[static_cast<std::size_t>(i)];
    if (i + 1 < n) {
      t(i + 1, i) = e[static_cast<std::size_t>(i)];
      t(i, i + 1) = e[static_cast<std::size_t>(i)];
    }
  }
  return t;
}

void check_eigensystem(const std::vector<double>& d0, const std::vector<double>& e0,
                       double tol) {
  const index_t n = static_cast<index_t>(d0.size());
  auto d = d0;
  auto e = e0;
  Matrix<double> z(n, n);
  set_identity(z.view());
  auto zv = z.view();
  ASSERT_TRUE(lapack::stedc<double>(d, e, &zv).ok());

  // Ascending.
  for (index_t i = 1; i < n; ++i)
    EXPECT_LE(d[static_cast<std::size_t>(i - 1)], d[static_cast<std::size_t>(i)] + 1e-14);

  // Orthogonal eigenvectors.
  EXPECT_LT(orthogonality_residual<double>(z.view()), tol * n);

  // Residual T z = z diag(d).
  auto t = dense_tridiag(d0, e0);
  Matrix<double> tz(n, n);
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, t.view(), z.view(), 0.0, tz.view());
  double scale = std::max(1.0, max_abs<double>(t.view()));
  double max_err = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      max_err = std::max(max_err, std::abs(tz(i, j) - d[static_cast<std::size_t>(j)] * z(i, j)));
  EXPECT_LT(max_err / scale, tol);

  // Eigenvalues cross-checked against implicit QL.
  auto ds = d0;
  auto es = e0;
  ASSERT_TRUE(lapack::steqr<double>(ds, es, nullptr).ok());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<std::size_t>(i)], ds[static_cast<std::size_t>(i)], tol * scale);
}

class StedcRandomTest : public ::testing::TestWithParam<index_t> {};

TEST_P(StedcRandomTest, RandomTridiagonal) {
  const index_t n = GetParam();
  Rng rng(1000 + n);
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)));
  for (auto& v : d) v = rng.normal();
  for (auto& v : e) v = rng.normal();
  check_eigensystem(d, e, 1e-11);
}

// Sizes straddle the D&C base case (32) and force 1-3 merge levels.
INSTANTIATE_TEST_SUITE_P(Sizes, StedcRandomTest,
                         ::testing::Values<index_t>(1, 2, 16, 33, 40, 64, 65, 100, 150, 256));

TEST(Stedc, LaplacianKnownSpectrum) {
  const index_t n = 120;
  std::vector<double> d(static_cast<std::size_t>(n), 2.0);
  std::vector<double> e(static_cast<std::size_t>(n - 1), -1.0);
  auto dc = d;
  auto ec = e;
  ASSERT_TRUE(lapack::stedc<double>(dc, ec, nullptr).ok());
  for (index_t k = 1; k <= n; ++k) {
    const double ref = 2.0 - 2.0 * std::cos(k * M_PI / (n + 1));
    EXPECT_NEAR(dc[static_cast<std::size_t>(k - 1)], ref, 1e-12);
  }
}

TEST(Stedc, MassiveDeflationIdenticalDiagonal) {
  // d = const, e = tiny: nearly everything deflates at every merge.
  const index_t n = 90;
  std::vector<double> d(static_cast<std::size_t>(n), 4.0);
  std::vector<double> e(static_cast<std::size_t>(n - 1), 1e-14);
  check_eigensystem(d, e, 1e-11);
}

TEST(Stedc, ClusteredSpectrumKeepsOrthogonality) {
  // Tridiagonal whose eigenvalues form two tight clusters: a hard case for
  // naive eigenvector formulas; Gu-Eisenstat must keep Z orthogonal.
  const index_t n = 80;
  Rng rng(7);
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1));
  for (index_t i = 0; i < n; ++i)
    d[static_cast<std::size_t>(i)] = (i < n / 2 ? 1.0 : 2.0) + 1e-10 * rng.normal();
  for (auto& v : e) v = 1e-8 * rng.normal();
  check_eigensystem(d, e, 1e-10);
}

TEST(Stedc, ZeroCouplingDecouples) {
  // e[m-1] == 0 at the tear point: halves must be solved independently.
  const index_t n = 66;
  Rng rng(9);
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1));
  for (auto& v : d) v = rng.normal();
  for (auto& v : e) v = rng.normal();
  e[static_cast<std::size_t>(n / 2 - 1)] = 0.0;
  check_eigensystem(d, e, 1e-11);
}

TEST(Stedc, NegativeCouplingHandled) {
  const index_t n = 48;
  std::vector<double> d(static_cast<std::size_t>(n), 1.0);
  std::vector<double> e(static_cast<std::size_t>(n - 1), -0.75);  // all negative
  check_eigensystem(d, e, 1e-11);
}

TEST(Stedc, WideDynamicRange) {
  const index_t n = 70;
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1));
  Rng rng(13);
  for (index_t i = 0; i < n; ++i)
    d[static_cast<std::size_t>(i)] = rng.normal() * std::pow(10.0, rng.uniform(-6.0, 6.0));
  for (auto& v : e) v = rng.normal();
  check_eigensystem(d, e, 1e-9);
}

TEST(Stedc, FloatInterfaceConverts) {
  const index_t n = 50;
  std::vector<float> d(static_cast<std::size_t>(n), 2.0f);
  std::vector<float> e(static_cast<std::size_t>(n - 1), -1.0f);
  Matrix<float> z(n, n);
  set_identity(z.view());
  auto zv = z.view();
  ASSERT_TRUE(lapack::stedc<float>(d, e, &zv).ok());
  EXPECT_LT(orthogonality_residual<float>(z.view()), 1e-4);
  for (index_t k = 1; k <= n; ++k) {
    const double ref = 2.0 - 2.0 * std::cos(k * M_PI / (n + 1));
    EXPECT_NEAR(d[static_cast<std::size_t>(k - 1)], ref, 1e-5);
  }
}

// ---- Merge fan-out, secular iteration cost, deflation across halves ---------

/// Random tridiagonal of size n, promoted from T's rounding of N(0, 1) draws.
template <typename T>
void random_tridiag(index_t n, std::uint64_t seed, std::vector<T>& d, std::vector<T>& e) {
  Rng rng(seed);
  d.assign(static_cast<std::size_t>(n), T{});
  e.assign(static_cast<std::size_t>(n - 1), T{});
  for (auto& v : d) v = static_cast<T>(rng.normal());
  for (auto& v : e) v = static_cast<T>(rng.normal());
}

/// stedc with vectors (z = I), pooled or under a SerialGemmScope.
template <typename T>
void solve_vectors(std::vector<T> d, std::vector<T> e, bool serial, std::vector<T>& lam,
                   Matrix<T>& z) {
  const index_t n = static_cast<index_t>(d.size());
  z = Matrix<T>(n, n);
  set_identity(z.view());
  auto zv = z.view();
  if (serial) {
    blas::SerialGemmScope scope;
    ASSERT_TRUE(lapack::stedc<T>(d, e, &zv).ok());
  } else {
    ASSERT_TRUE(lapack::stedc<T>(d, e, &zv).ok());
  }
  lam = d;
}

template <typename T>
void expect_lane_invariant(index_t n) {
  std::vector<T> d, e;
  random_tridiag<T>(n, 500 + static_cast<std::uint64_t>(n), d, e);
  std::vector<T> lam_pool, lam_serial;
  Matrix<T> z_pool(1, 1), z_serial(1, 1);
  solve_vectors<T>(d, e, /*serial=*/false, lam_pool, z_pool);
  solve_vectors<T>(d, e, /*serial=*/true, lam_serial, z_serial);
  ASSERT_EQ(lam_pool.size(), lam_serial.size());
  EXPECT_EQ(0, std::memcmp(lam_pool.data(), lam_serial.data(), lam_pool.size() * sizeof(T)))
      << "eigenvalues depend on the lane count at n = " << n;
  bool same = true;
  for (index_t j = 0; j < n && same; ++j)
    for (index_t i = 0; i < n && same; ++i)
      same = std::memcmp(&z_pool(i, j), &z_serial(i, j), sizeof(T)) == 0;
  EXPECT_TRUE(same) << "eigenvectors depend on the lane count at n = " << n;
}

TEST(Stedc, PooledMergeBitwiseEqualsSerialDouble) {
  for (index_t n : {33, 257, 1024}) expect_lane_invariant<double>(n);
}

TEST(Stedc, PooledMergeBitwiseEqualsSerialFloat) {
  for (index_t n : {33, 257, 1024}) expect_lane_invariant<float>(n);
}

struct EvalStats {
  double mean = 0.0;
  int max = 0;
};

/// Solves every root of the secular equation; checks each lies in its
/// interval (in the anchored form, which resolves roots closer to a pole
/// than d's own rounding) and tallies evaluations of f.
EvalStats solve_all_roots(const std::vector<double>& d, const std::vector<double>& wsq) {
  const index_t k = static_cast<index_t>(d.size());
  EvalStats st;
  long total = 0;
  for (index_t j = 0; j < k; ++j) {
    const auto r = lapack::secular_solve(d, wsq, 1.0, j);
    const long double gap = j + 1 < k ? static_cast<long double>(d[static_cast<std::size_t>(j + 1)]) -
                                            d[static_cast<std::size_t>(j)]
                                      : std::numeric_limits<long double>::infinity();
    if (r.anchor == j) {
      EXPECT_GT(r.offset, 0.0L) << "root " << j;
      EXPECT_LT(r.offset, gap) << "root " << j;
    } else {
      EXPECT_EQ(r.anchor, j + 1) << "root " << j;
      EXPECT_LT(r.offset, 0.0L) << "root " << j;
      EXPECT_GT(r.offset, -gap) << "root " << j;
    }
    total += r.evals;
    st.max = std::max(st.max, r.evals);
  }
  st.mean = static_cast<double>(total) / static_cast<double>(k);
  return st;
}

TEST(Secular, EvaluationsPerRootRandom) {
  // Random poles and weights, normalized to sum 1 as in a merge.
  const index_t k = 400;
  Rng rng(31);
  std::vector<double> d(static_cast<std::size_t>(k)), wsq(static_cast<std::size_t>(k));
  double x = 0.0, sum = 0.0;
  for (index_t i = 0; i < k; ++i) {
    x += 1e-3 + rng.uniform();
    d[static_cast<std::size_t>(i)] = x;
    wsq[static_cast<std::size_t>(i)] = rng.uniform();
    sum += wsq[static_cast<std::size_t>(i)];
  }
  for (auto& w : wsq) w /= sum;
  const EvalStats st = solve_all_roots(d, wsq);
  EXPECT_LE(st.mean, 4.0);
  EXPECT_LE(st.max, 10);
}

TEST(Secular, EvaluationsPerRootGraded) {
  // Poles spanning eight decades, weights spanning six.
  const index_t k = 300;
  Rng rng(32);
  std::vector<double> d(static_cast<std::size_t>(k)), wsq(static_cast<std::size_t>(k));
  for (index_t i = 0; i < k; ++i) {
    d[static_cast<std::size_t>(i)] = std::pow(10.0, -8.0 + 8.0 * static_cast<double>(i) / k);
    wsq[static_cast<std::size_t>(i)] = std::pow(10.0, -6.0 * rng.uniform());
  }
  const EvalStats st = solve_all_roots(d, wsq);
  EXPECT_LE(st.mean, 4.0);
  EXPECT_LE(st.max, 10);
}

TEST(Secular, EvaluationsPerRootTinyWeights) {
  // Every other weight ~1e-18: those roots hug their poles, as in
  // TinyWeightRootHugsPole, amid ordinary ones.
  const index_t k = 200;
  Rng rng(33);
  std::vector<double> d(static_cast<std::size_t>(k)), wsq(static_cast<std::size_t>(k));
  for (index_t i = 0; i < k; ++i) {
    d[static_cast<std::size_t>(i)] = static_cast<double>(i) + 0.5 * rng.uniform();
    wsq[static_cast<std::size_t>(i)] = (i % 2 == 0) ? 1e-18 * (1.0 + rng.uniform()) : rng.uniform();
  }
  const EvalStats st = solve_all_roots(d, wsq);
  EXPECT_LE(st.mean, 4.0);
  EXPECT_LE(st.max, 10);
  // A hugging root's offset keeps its relative accuracy: lambda - d_0 ~ w_0.
  const auto r = lapack::secular_solve(d, wsq, 1.0, 0);
  EXPECT_EQ(r.anchor, 0);
  EXPECT_GT(r.offset, 0.5L * wsq[0] / (d[1] - d[0] + 1.0));
  EXPECT_LT(r.offset, 2.0L * wsq[0] / (d[1] - d[0]));
}

TEST(Stedc, TypeTwoDeflationAcrossHalvesMatchesSteqr) {
  // A repeated diagonal pattern, mirrored about a small top-level tear: the
  // two children have (nearly) equal spectra with weight on the tear row, so
  // the merges' type-2 deflations rotate top and bottom columns together.
  // The top merge keeps only dense columns, the lowest ones all three kinds
  // (top-only, dense, bottom-only).
  const index_t n = 192;
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1), 0.5);
  for (index_t i = 0; i < n; ++i)
    d[static_cast<std::size_t>(i)] = 0.25 * static_cast<double>(std::min(i, n - 1 - i) % 12);
  e[static_cast<std::size_t>(n / 2 - 1)] = 1e-3;  // the top-level tear
  check_eigensystem(d, e, 1e-11);

  // Against QL with vectors: same spectrum, residuals of the same order.
  auto dq = d;
  auto eq = e;
  Matrix<double> zq(n, n);
  set_identity(zq.view());
  auto zqv = zq.view();
  ASSERT_TRUE(lapack::steqr<double>(dq, eq, &zqv).ok());
  auto dc = d;
  auto ec = e;
  Matrix<double> zc(n, n);
  set_identity(zc.view());
  auto zcv = zc.view();
  ASSERT_TRUE(lapack::stedc<double>(dc, ec, &zcv).ok());
  const auto t = dense_tridiag(d, e);
  const auto residual = [&](const Matrix<double>& z, const std::vector<double>& lam) {
    Matrix<double> tz(n, n);
    blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, t.view(), z.view(), 0.0, tz.view());
    double r = 0.0;
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i)
        r = std::max(r, std::abs(tz(i, j) - lam[static_cast<std::size_t>(j)] * z(i, j)));
    return r;
  };
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(dc[static_cast<std::size_t>(i)], dq[static_cast<std::size_t>(i)], 1e-13);
  EXPECT_LT(residual(zc, dc), std::max(1e-13, 100.0 * residual(zq, dq)));
}

TEST(Stedc, ValuesOnlyIsDoubleSterfRounded) {
  for (index_t n : {1, 2, 33, 257}) {
    std::vector<float> df, ef;
    random_tridiag<float>(n, 600 + static_cast<std::uint64_t>(n), df, ef);
    std::vector<double> dd(df.begin(), df.end()), ed(ef.begin(), ef.end());
    auto dref = dd;
    auto eref = ed;
    ASSERT_TRUE(lapack::sterf<double>(dref, eref).ok());

    auto dfs = df;
    auto efs = ef;
    ASSERT_TRUE(lapack::stedc<float>(dfs, efs, nullptr).ok());
    auto dds = dd;
    auto eds = ed;
    ASSERT_TRUE(lapack::stedc<double>(dds, eds, nullptr).ok());
    for (index_t i = 0; i < n; ++i) {
      EXPECT_EQ(dfs[static_cast<std::size_t>(i)], static_cast<float>(dref[static_cast<std::size_t>(i)]));
      EXPECT_EQ(dds[static_cast<std::size_t>(i)], dref[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(Stedc, InfiniteTearIsInvalidInput) {
  // +Inf on the top-level tear used to reach the secular solver's bracket
  // check and abort; it is caller data and must come back as a Status.
  const index_t n = 100;
  for (const bool vectors : {false, true}) {
    std::vector<double> d(static_cast<std::size_t>(n), 2.0);
    std::vector<double> e(static_cast<std::size_t>(n - 1), -1.0);
    e[49] = std::numeric_limits<double>::infinity();
    Matrix<double> z(n, n);
    set_identity(z.view());
    auto zv = z.view();
    const Status st = lapack::stedc<double>(d, e, vectors ? &zv : nullptr);
    EXPECT_EQ(st.code(), ErrorCode::InvalidInput) << "vectors = " << vectors;
  }
}

TEST(Stedc, NonFiniteDiagonalIsInvalidInput) {
  const index_t n = 100;
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    for (const bool vectors : {false, true}) {
      std::vector<float> d(static_cast<std::size_t>(n), 2.0f);
      std::vector<float> e(static_cast<std::size_t>(n - 1), -1.0f);
      d[10] = static_cast<float>(bad);
      Matrix<float> z(n, n);
      set_identity(z.view());
      auto zv = z.view();
      const Status st = lapack::stedc<float>(d, e, vectors ? &zv : nullptr);
      EXPECT_EQ(st.code(), ErrorCode::InvalidInput) << "d[10] = " << bad << ", vectors = " << vectors;
    }
  }
}

TEST(Secular, RootsInteriorToIntervals) {
  std::vector<double> d{0.0, 1.0, 2.0, 5.0};
  std::vector<double> wsq{0.1, 0.2, 0.3, 0.4};
  for (index_t j = 0; j < 4; ++j) {
    const auto r = lapack::secular_solve(d, wsq, 1.0, j);
    const double lam =
        d[static_cast<std::size_t>(r.anchor)] + static_cast<double>(r.offset);
    EXPECT_GT(lam, d[static_cast<std::size_t>(j)]);
    if (j < 3) {
      EXPECT_LT(lam, d[static_cast<std::size_t>(j + 1)]);
    }
    // Verify it is actually a root.
    long double f = 1.0L;
    for (index_t i = 0; i < 4; ++i)
      f += wsq[static_cast<std::size_t>(i)] /
           ((static_cast<long double>(d[static_cast<std::size_t>(i)]) -
             static_cast<long double>(d[static_cast<std::size_t>(r.anchor)])) -
            r.offset);
    EXPECT_LT(std::abs(static_cast<double>(f)), 1e-10);
  }
}

TEST(Secular, InterlacingAndTraceIdentity) {
  // Sum of roots == sum of poles + sum of weights (trace of D + w w^T).
  const index_t k = 12;
  Rng rng(21);
  std::vector<double> d(static_cast<std::size_t>(k));
  std::vector<double> wsq(static_cast<std::size_t>(k));
  double x = 0.0;
  for (index_t i = 0; i < k; ++i) {
    x += 0.5 + rng.uniform();
    d[static_cast<std::size_t>(i)] = x;
    wsq[static_cast<std::size_t>(i)] = 0.01 + rng.uniform();
  }
  double trace_expected = 0.0;
  for (index_t i = 0; i < k; ++i)
    trace_expected += d[static_cast<std::size_t>(i)] + wsq[static_cast<std::size_t>(i)];
  double trace = 0.0;
  for (index_t j = 0; j < k; ++j) {
    const auto r = lapack::secular_solve(d, wsq, 1.0, j);
    trace += d[static_cast<std::size_t>(r.anchor)] + static_cast<double>(r.offset);
  }
  EXPECT_NEAR(trace, trace_expected, 1e-9);
}

TEST(Secular, TinyWeightRootHugsPole) {
  std::vector<double> d{0.0, 1.0};
  std::vector<double> wsq{1e-18, 1e-18};
  const auto r = lapack::secular_solve(d, wsq, 1.0, 0);
  const double lam = d[static_cast<std::size_t>(r.anchor)] + static_cast<double>(r.offset);
  EXPECT_NEAR(lam, 1e-18, 1e-19);  // lambda ~ d0 + w0^2
}

}  // namespace
}  // namespace tcevd
