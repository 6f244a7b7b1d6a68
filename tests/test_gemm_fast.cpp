// Packed transpose-aware GEMM pipeline (src/blas/gemm_packed.hpp): every
// trans combination against a naive reference at odd/prime/edge shapes,
// parallel-vs-serial bitwise equality, the gemm_pool stand-down contract,
// bitwise equality of the fused-rounding tc_gemm / ec_tcgemm paths against
// the old materialize-rounded-copies formulation, and the SIMD kernel
// family: dispatch policy (TCEVD_SIMD / cpuid / self-check), SIMD-vs-scalar
// bitwise identity across the full pipeline, the vectorized convert
// kernels, and the pack-arena alignment contract. Label: gemmfast.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/blas/abft.hpp"
#include "src/blas/blas.hpp"
#include "src/blas/gemm_packed.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/blas/rot_kernel_scalar.hpp"
#include "src/blas/simd_dispatch.hpp"
#include "src/common/aligned.hpp"
#include "src/common/half.hpp"
#include "src/common/thread_pool.hpp"
#include "src/tensorcore/ec_tcgemm.hpp"
#include "src/tensorcore/tc_convert.hpp"
#include "src/tensorcore/tc_gemm.hpp"
#include "src/tensorcore/tc_syr2k.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using blas::Trans;
using blas::Uplo;

/// Naive dense reference: C = alpha op(A) op(B) + beta C.
template <typename T>
void ref_gemm(Trans ta, Trans tb, T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b,
              T beta, MatrixView<T> c) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      T s{};
      for (index_t l = 0; l < k; ++l) {
        const T av = (ta == Trans::No) ? a(i, l) : a(l, i);
        const T bv = (tb == Trans::No) ? b(l, j) : b(j, l);
        s += av * bv;
      }
      c(i, j) = alpha * s + beta * c(i, j);
    }
}

template <typename T>
Matrix<T> random_mat(index_t m, index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<T> a(m, n);
  fill_normal(rng, a.view());
  return a;
}

/// Every element bitwise-equal (EXPECT_EQ catches NaN mismatches too).
template <typename T>
void expect_bitwise_equal(ConstMatrixView<T> a, ConstMatrixView<T> b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      ASSERT_EQ(a(i, j), b(i, j)) << "mismatch at (" << i << ", " << j << ")";
}

struct GemmCase {
  Trans ta, tb;
  index_t m, n, k;
};

class PackedGemmTest : public ::testing::TestWithParam<GemmCase> {};

template <typename T>
void check_against_reference(const GemmCase& p, double tol) {
  const index_t am = (p.ta == Trans::No) ? p.m : p.k;
  const index_t an = (p.ta == Trans::No) ? p.k : p.m;
  const index_t bm = (p.tb == Trans::No) ? p.k : p.n;
  const index_t bn = (p.tb == Trans::No) ? p.n : p.k;
  auto a = random_mat<T>(am, an, 1);
  auto b = random_mat<T>(bm, bn, 2);
  auto c = random_mat<T>(p.m, p.n, 3);
  auto c_ref = c;
  blas::gemm<T>(p.ta, p.tb, T(1.3), a.view(), b.view(), T(-0.7), c.view());
  ref_gemm<T>(p.ta, p.tb, T(1.3), a.view(), b.view(), T(-0.7), c_ref.view());
  EXPECT_LT(test::rel_diff<T>(c.view(), c_ref.view()), tol);
}

TEST_P(PackedGemmTest, MatchesReferenceDouble) { check_against_reference<double>(GetParam(), 1e-12); }
TEST_P(PackedGemmTest, MatchesReferenceFloat) { check_against_reference<float>(GetParam(), 5e-4); }

// Shapes chosen to straddle every blocking boundary: MR=16/NR=16 remainders
// (odd/prime, 16/17), MC=128 and KC=256 crossings, plus m=1 / n=1 / k=0
// edges.
std::vector<GemmCase> all_combo_cases() {
  const std::vector<std::array<index_t, 3>> shapes = {
      {1, 1, 1},  {1, 37, 17},  {37, 1, 17},    {37, 17, 0},
      {7, 5, 3},  {13, 17, 11}, {97, 61, 37},   {131, 67, 259},
      {257, 5, 3}, {130, 4, 256}, {8, 129, 300}, {16, 17, 33}, {17, 16, 257},
  };
  const std::vector<std::pair<Trans, Trans>> combos = {
      {Trans::No, Trans::No},
      {Trans::No, Trans::Yes},
      {Trans::Yes, Trans::No},
      {Trans::Yes, Trans::Yes},
  };
  std::vector<GemmCase> cases;
  for (const auto& tr : combos)
    for (const auto& s : shapes) cases.push_back({tr.first, tr.second, s[0], s[1], s[2]});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCombosOddShapes, PackedGemmTest,
                         ::testing::ValuesIn(all_combo_cases()));

// ---------------------------------------------------------------------------
// Parallel-vs-serial bitwise equality and the thread-ownership contract.
// ---------------------------------------------------------------------------

TEST(GemmPoolDeterminism, PooledBitwiseIdenticalToSerial) {
  // 2*m*n*k well above the pooling floor, shape straddling every block edge.
  const index_t m = 311, n = 203, k = 277;
  for (Trans ta : {Trans::No, Trans::Yes})
    for (Trans tb : {Trans::No, Trans::Yes}) {
      const index_t am = (ta == Trans::No) ? m : k;
      const index_t an = (ta == Trans::No) ? k : m;
      const index_t bm = (tb == Trans::No) ? k : n;
      const index_t bn = (tb == Trans::No) ? n : k;
      auto a = random_mat<float>(am, an, 4);
      auto b = random_mat<float>(bm, bn, 5);
      auto c_pooled = random_mat<float>(m, n, 6);
      auto c_serial = c_pooled;
      const auto before = blas::gemm_pool_dispatches();
      blas::gemm<float>(ta, tb, 1.5f, a.view(), b.view(), 0.25f, c_pooled.view());
      EXPECT_GT(blas::gemm_pool_dispatches(), before)
          << "large gemm on the main thread should fan out on gemm_pool";
      {
        blas::SerialGemmScope serial;
        blas::gemm<float>(ta, tb, 1.5f, a.view(), b.view(), 0.25f, c_serial.view());
      }
      expect_bitwise_equal<float>(c_pooled.view(), c_serial.view());
    }
}

TEST(GemmPoolPolicy, SerialScopeStandsDown) {
  const index_t n = 160;  // 2n^3 ~ 8.2 Mflop: above the pooling floor
  auto a = random_mat<float>(n, n, 7);
  auto b = random_mat<float>(n, n, 8);
  Matrix<float> c(n, n);
  const auto before = blas::gemm_pool_dispatches();
  {
    blas::SerialGemmScope serial;
    blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
  }
  EXPECT_EQ(blas::gemm_pool_dispatches(), before);
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
  EXPECT_GT(blas::gemm_pool_dispatches(), before);
}

TEST(GemmPoolPolicy, NestedCallsUnderPoolWorkersStandDown) {
  // GEMMs issued from inside ANY ThreadPool worker must take the serial tile
  // loop — the batch/overlap pools own the parallelism at their level.
  const index_t n = 160;
  auto a = random_mat<float>(n, n, 9);
  auto b = random_mat<float>(n, n, 10);
  ThreadPool pool(2);
  const auto before = blas::gemm_pool_dispatches();
  pool.parallel_for(4, [&](int, long) {
    Matrix<float> c(n, n);
    blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
  });
  pool.wait_idle();
  EXPECT_EQ(blas::gemm_pool_dispatches(), before)
      << "nested gemm fanned out on gemm_pool from a pool worker";
}

TEST(GemmPoolPolicy, TinyGemmsStaySerial) {
  auto a = random_mat<float>(16, 16, 11);
  auto b = random_mat<float>(16, 16, 12);
  Matrix<float> c(16, 16);
  const auto before = blas::gemm_pool_dispatches();
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
  EXPECT_EQ(blas::gemm_pool_dispatches(), before);
}

// ---------------------------------------------------------------------------
// Fused-rounding TC paths bitwise-equal to the old materializing paths.
// ---------------------------------------------------------------------------

/// The old tc_gemm formulation: materialize op(X) rounded to prec, then one
/// plain fp32 GEMM.
Matrix<float> rounded_op(Trans trans, ConstMatrixView<float> x, tc::TcPrecision prec) {
  const index_t rows = trans == Trans::No ? x.rows() : x.cols();
  const index_t cols = trans == Trans::No ? x.cols() : x.rows();
  Matrix<float> out(rows, cols);
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i)
      out(i, j) = tc::round_operand(trans == Trans::No ? x(i, j) : x(j, i), prec);
  return out;
}

TEST(FusedRounding, TcGemmBitwiseEqualToMaterializedPath) {
  const index_t m = 70, n = 53, k = 300;
  for (tc::TcPrecision prec : {tc::TcPrecision::Fp16, tc::TcPrecision::Tf32})
    for (Trans ta : {Trans::No, Trans::Yes})
      for (Trans tb : {Trans::No, Trans::Yes}) {
        const index_t am = (ta == Trans::No) ? m : k;
        const index_t an = (ta == Trans::No) ? k : m;
        const index_t bm = (tb == Trans::No) ? k : n;
        const index_t bn = (tb == Trans::No) ? n : k;
        auto a = random_mat<float>(am, an, 13);
        auto b = random_mat<float>(bm, bn, 14);
        auto c_fused = random_mat<float>(m, n, 15);
        auto c_ref = c_fused;
        tc::tc_gemm(ta, tb, 1.25f, a.view(), b.view(), -0.5f, c_fused.view(), prec);
        Matrix<float> ar = rounded_op(ta, a.view(), prec);
        Matrix<float> br = rounded_op(tb, b.view(), prec);
        blas::gemm<float>(Trans::No, Trans::No, 1.25f, ar.view(), br.view(), -0.5f,
                          c_ref.view());
        expect_bitwise_equal<float>(c_fused.view(), c_ref.view());
      }
}

/// The old ec_tcgemm formulation: materialize op(A)/op(B), ec_split each into
/// head + scaled residual, run three plain GEMMs, combine in fp32.
void ec_reference(Trans ta, Trans tb, float alpha, ConstMatrixView<float> a,
                  ConstMatrixView<float> b, float beta, MatrixView<float> c,
                  tc::TcPrecision prec) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  Matrix<float> ax(m, k), bx(k, n);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i) ax(i, j) = (ta == Trans::No) ? a(i, j) : a(j, i);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < k; ++i) bx(i, j) = (tb == Trans::No) ? b(i, j) : b(j, i);
  Matrix<float> ah(m, k), da(m, k), bh(k, n), db(k, n);
  tc::ec_split(ax.view(), ah.view(), da.view(), prec);
  tc::ec_split(bx.view(), bh.view(), db.view(), prec);
  Matrix<float> c0(m, n), c1(m, n);
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, ah.view(), bh.view(), 0.0f, c0.view());
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, ah.view(), db.view(), 0.0f, c1.view());
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, da.view(), bh.view(), 1.0f, c1.view());
  const float inv_s = 1.0f / tc::kEcScale;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      c(i, j) = alpha * (c0(i, j) + c1(i, j) * inv_s) +
                ((beta == 0.0f) ? 0.0f : beta * c(i, j));
}

TEST(FusedRounding, EcTcGemmBitwiseEqualToMaterializedPath) {
  const index_t m = 37, n = 29, k = 281;
  for (Trans ta : {Trans::No, Trans::Yes})
    for (Trans tb : {Trans::No, Trans::Yes}) {
      const index_t am = (ta == Trans::No) ? m : k;
      const index_t an = (ta == Trans::No) ? k : m;
      const index_t bm = (tb == Trans::No) ? k : n;
      const index_t bn = (tb == Trans::No) ? n : k;
      auto a = random_mat<float>(am, an, 16);
      auto b = random_mat<float>(bm, bn, 17);
      auto c_fused = random_mat<float>(m, n, 18);
      auto c_ref = c_fused;
      ASSERT_TRUE(
          tc::ec_tcgemm(ta, tb, 1.1f, a.view(), b.view(), 0.6f, c_fused.view()).ok());
      ec_reference(ta, tb, 1.1f, a.view(), b.view(), 0.6f, c_ref.view(),
                   tc::TcPrecision::Fp16);
      expect_bitwise_equal<float>(c_fused.view(), c_ref.view());
    }
}

// ---------------------------------------------------------------------------
// tc_syr2k packed path at panel-crossing sizes.
// ---------------------------------------------------------------------------

TEST(PackedSyr2k, UpperLowerBitwiseSymmetricAcrossPanels) {
  // n > 128 crosses the column-panel boundary of the packed triangular path.
  const index_t n = 150, k = 40;
  auto a = random_mat<float>(n, k, 19);
  auto b = random_mat<float>(n, k, 20);
  Matrix<float> cl(n, n), cu(n, n);
  cl.fill(7.0f);
  cu.fill(7.0f);
  tc::tc_syr2k(Uplo::Lower, 0.8f, a.view(), b.view(), 0.0f, cl.view());
  tc::tc_syr2k(Uplo::Upper, 0.8f, a.view(), b.view(), 0.0f, cu.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) {
      ASSERT_EQ(cl(i, j), cu(j, i)) << "asymmetry at (" << i << ", " << j << ")";
      if (i > j) {
        ASSERT_EQ(cl(j, i), 7.0f) << "lower mode touched the upper triangle";
        ASSERT_EQ(cu(i, j), 7.0f) << "upper mode touched the lower triangle";
      }
    }
}

TEST(PackedSyr2k, MatchesRoundedReferenceAcrossPanels) {
  const index_t n = 140, k = 33;
  auto a = random_mat<float>(n, k, 21);
  auto b = random_mat<float>(n, k, 22);
  auto c = random_mat<float>(n, n, 23);
  auto c_ref = c;
  tc::tc_syr2k(Uplo::Lower, 1.2f, a.view(), b.view(), -0.4f, c.view());
  // Reference: pre-rounded operands, naive fp32 triangular accumulation.
  Matrix<float> ar(n, k), br(n, k);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < n; ++i) {
      ar(i, j) = tc::round_operand(a(i, j), tc::TcPrecision::Fp16);
      br(i, j) = tc::round_operand(b(i, j), tc::TcPrecision::Fp16);
    }
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) {
      float s = 0.0f;
      for (index_t l = 0; l < k; ++l) s += ar(i, l) * br(j, l) + br(i, l) * ar(j, l);
      c_ref(i, j) = 1.2f * s + -0.4f * c_ref(i, j);
    }
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      EXPECT_NEAR(c(i, j), c_ref(i, j), 2e-2f * static_cast<float>(k))
          << "at (" << i << ", " << j << ")";
}

// ---------------------------------------------------------------------------
// SIMD dispatch: resolution policy, env override, telemetry.
// ---------------------------------------------------------------------------

namespace simd = blas::simd;

TEST(SimdDispatch, ResolveLevelPolicy) {
  using simd::detail::FamilySupport;
  const FamilySupport yes{true, true, true};
  const FamilySupport no_cpu{true, false, true};
  const FamilySupport no_check{true, true, false};
  const FamilySupport no_build{false, true, true};
  const char* reason = nullptr;
  // Forced off always wins.
  EXPECT_EQ(simd::detail::resolve_level("off", yes, yes, &reason), simd::Level::Scalar);
  EXPECT_STREQ(reason, "TCEVD_SIMD=off");
  EXPECT_EQ(simd::detail::resolve_level("scalar", yes, yes, &reason), simd::Level::Scalar);
  // A requested AVX2 family still requires the build, CPU support AND a
  // passing self-check; it never silently becomes another family.
  for (const FamilySupport& bad : {no_cpu, no_check, no_build})
    EXPECT_EQ(simd::detail::resolve_level("avx2", bad, yes, &reason), simd::Level::Scalar);
  EXPECT_EQ(simd::detail::resolve_level("avx2", yes, yes, &reason), simd::Level::Avx2);
  EXPECT_STREQ(reason, "TCEVD_SIMD=avx2");
  // Auto (unset, empty, "auto", or a typo) picks the widest usable family.
  for (const char* env : {static_cast<const char*>(nullptr), "", "auto", "bogus"}) {
    EXPECT_EQ(simd::detail::resolve_level(env, yes, yes, &reason), simd::Level::Avx512);
    for (const FamilySupport& bad : {no_cpu, no_check, no_build}) {
      EXPECT_EQ(simd::detail::resolve_level(env, yes, bad, &reason), simd::Level::Avx2);
      EXPECT_EQ(simd::detail::resolve_level(env, bad, bad, &reason), simd::Level::Scalar);
    }
  }
}

/// The level auto-detection picks on this host and build.
simd::Level detected_level() {
  if (simd::compiled_with_avx512() && simd::cpu_supports_avx512()) return simd::Level::Avx512;
  if (simd::compiled_with_avx2() && simd::cpu_supports_avx2()) return simd::Level::Avx2;
  return simd::Level::Scalar;
}

TEST(SimdDispatch, ActiveLevelMatchesEnvironment) {
  // This test runs under several CI legs with different TCEVD_SIMD values:
  // assert the resolved level is consistent with whatever is set right now.
  const char* env = std::getenv("TCEVD_SIMD");
  const simd::Level lvl = simd::kernels().level;
  const auto env_is = [env](const char* v) { return env != nullptr && std::strcmp(env, v) == 0; };
  if (env_is("off") || env_is("scalar")) {
    EXPECT_EQ(lvl, simd::Level::Scalar) << simd::active_level_reason();
  } else if (env_is("avx2")) {
    const bool capable = simd::compiled_with_avx2() && simd::cpu_supports_avx2();
    EXPECT_EQ(lvl, capable ? simd::Level::Avx2 : simd::Level::Scalar)
        << simd::active_level_reason();
  } else {
    EXPECT_EQ(lvl, detected_level()) << simd::active_level_reason();
  }
  const char* names[] = {"scalar", "avx2", "avx512"};
  EXPECT_STREQ(simd::kernels().name, names[static_cast<int>(lvl)]);
}

TEST(SimdDispatch, RefreshHonorsEnvOverride) {
  const char* saved = std::getenv("TCEVD_SIMD");
  const std::string saved_copy = saved != nullptr ? saved : "";

  ::setenv("TCEVD_SIMD", "off", 1);
  simd::detail::refresh_for_testing();
  EXPECT_EQ(simd::kernels().level, simd::Level::Scalar);
  EXPECT_EQ(simd::kernels().gemm_f32, nullptr);
  EXPECT_STREQ(simd::active_level_reason(), "TCEVD_SIMD=off");

  ::setenv("TCEVD_SIMD", "avx2", 1);
  simd::detail::refresh_for_testing();
  if (simd::compiled_with_avx2() && simd::cpu_supports_avx2()) {
    EXPECT_EQ(simd::kernels().level, simd::Level::Avx2) << simd::active_level_reason();
    EXPECT_NE(simd::kernels().gemm_f32, nullptr);
    EXPECT_EQ(simd::kernels().gemm_f32_fp16, simd::kernels().gemm_f32)
        << "the AVX2 family has no FMA entry: fp16 calls run its plain kernel";
    EXPECT_NE(simd::kernels().round_fp16, nullptr);
  } else {
    EXPECT_EQ(simd::kernels().level, simd::Level::Scalar);
  }

  ::setenv("TCEVD_SIMD", "auto", 1);
  simd::detail::refresh_for_testing();
  if (detected_level() == simd::Level::Avx512) {
    EXPECT_EQ(simd::kernels().level, simd::Level::Avx512) << simd::active_level_reason();
    EXPECT_NE(simd::kernels().gemm_f32_fp16, nullptr);
    EXPECT_NE(simd::kernels().gemm_f32_fp16, simd::kernels().gemm_f32);
    EXPECT_NE(simd::kernels().rot_wave_f32, nullptr);
  } else {
    EXPECT_EQ(simd::kernels().level, detected_level()) << simd::active_level_reason();
  }

  if (saved != nullptr)
    ::setenv("TCEVD_SIMD", saved_copy.c_str(), 1);
  else
    ::unsetenv("TCEVD_SIMD");
  simd::detail::refresh_for_testing();
}

TEST(SimdDispatch, ScalarKernelScopeForcesScalarAndCountsDispatches) {
  auto a = random_mat<float>(24, 24, 31);
  auto b = random_mat<float>(24, 24, 32);
  Matrix<float> c(24, 24);

  const simd::Level resolved = simd::kernels().level;
  const auto before = simd::dispatch_count(resolved);
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
  EXPECT_EQ(simd::dispatch_count(resolved), before + 1)
      << "each packed-GEMM entry call records one dispatch at the active level";

  {
    simd::ScalarKernelScope scope;
    EXPECT_TRUE(simd::scalar_kernels_forced());
    EXPECT_EQ(simd::active_level(), simd::Level::Scalar);
    EXPECT_EQ(simd::active_kernels().gemm_f32, nullptr);
    const auto scalar_before = simd::dispatch_count(simd::Level::Scalar);
    blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
    EXPECT_EQ(simd::dispatch_count(simd::Level::Scalar), scalar_before + 1);
  }
  EXPECT_FALSE(simd::scalar_kernels_forced());
  EXPECT_EQ(simd::active_level(), resolved);
}

// ---------------------------------------------------------------------------
// SIMD vs scalar: bitwise identity across the whole pipeline. When the
// resolved level is already Scalar (TCEVD_SIMD=off leg, non-AVX2 host) these
// compare scalar against scalar and pass vacuously — the AVX2 legs are where
// they bite.
// ---------------------------------------------------------------------------

template <typename T>
void check_simd_vs_scalar_gemm(const GemmCase& p) {
  const index_t am = (p.ta == Trans::No) ? p.m : p.k;
  const index_t an = (p.ta == Trans::No) ? p.k : p.m;
  const index_t bm = (p.tb == Trans::No) ? p.k : p.n;
  const index_t bn = (p.tb == Trans::No) ? p.n : p.k;
  auto a = random_mat<T>(am, an, 41);
  auto b = random_mat<T>(bm, bn, 42);
  auto c_simd = random_mat<T>(p.m, p.n, 43);
  auto c_scalar = c_simd;
  blas::gemm<T>(p.ta, p.tb, T(1.3), a.view(), b.view(), T(-0.7), c_simd.view());
  {
    simd::ScalarKernelScope scope;
    blas::gemm<T>(p.ta, p.tb, T(1.3), a.view(), b.view(), T(-0.7), c_scalar.view());
  }
  expect_bitwise_equal<T>(c_simd.view(), c_scalar.view());
}

TEST_P(PackedGemmTest, SimdBitwiseEqualsScalarFloat) {
  check_simd_vs_scalar_gemm<float>(GetParam());
}
TEST_P(PackedGemmTest, SimdBitwiseEqualsScalarDouble) {
  check_simd_vs_scalar_gemm<double>(GetParam());
}

TEST(SimdVsScalar, PooledSimdBitwiseEqualsSerialScalar) {
  // Crossing SIMD x threading: pooled AVX2 against serial forced-scalar.
  const index_t m = 311, n = 203, k = 277;
  auto a = random_mat<float>(m, k, 44);
  auto b = random_mat<float>(k, n, 45);
  auto c_pooled = random_mat<float>(m, n, 46);
  auto c_serial = c_pooled;
  blas::gemm<float>(Trans::No, Trans::No, 1.5f, a.view(), b.view(), 0.25f,
                    c_pooled.view());
  {
    simd::ScalarKernelScope scope;
    blas::SerialGemmScope serial;
    blas::gemm<float>(Trans::No, Trans::No, 1.5f, a.view(), b.view(), 0.25f,
                      c_serial.view());
  }
  expect_bitwise_equal<float>(c_pooled.view(), c_serial.view());
}

TEST(SimdVsScalar, AbftPathBitwiseEqualsScalar) {
  // The ABFT tile path (private tile accumulate + checksum verify) must also
  // be kernel-agnostic: same result with the checksummed pipeline on either
  // kernel family.
  const index_t m = 131, n = 67, k = 259;
  auto a = random_mat<float>(m, k, 47);
  auto b = random_mat<float>(k, n, 48);
  auto c_simd = random_mat<float>(m, n, 49);
  auto c_scalar = c_simd;
  {
    blas::abft::AbftScope abft;
    blas::gemm<float>(Trans::No, Trans::No, 1.2f, a.view(), b.view(), -0.3f,
                      c_simd.view());
  }
  {
    blas::abft::AbftScope abft;
    simd::ScalarKernelScope scope;
    blas::gemm<float>(Trans::No, Trans::No, 1.2f, a.view(), b.view(), -0.3f,
                      c_scalar.view());
  }
  expect_bitwise_equal<float>(c_simd.view(), c_scalar.view());
}

TEST(SimdVsScalar, TensorCorePathsBitwiseEqualScalar) {
  // tc_gemm (fused rounding), ec_tcgemm (split-B + tail sweeps), tc_syr2k
  // (paired nt kernel): each through the dispatched kernels vs forced scalar.
  const index_t m = 70, n = 53, k = 300;
  auto a = random_mat<float>(m, k, 51);
  auto b = random_mat<float>(k, n, 52);
  auto bt = random_mat<float>(n, k, 58);
  for (tc::TcPrecision prec : {tc::TcPrecision::Fp16, tc::TcPrecision::Tf32}) {
    auto c_simd = random_mat<float>(m, n, 53);
    auto c_scalar = c_simd;
    tc::tc_gemm(Trans::No, Trans::Yes, 1.25f, a.view(), bt.view(), -0.5f,
                c_simd.view(), prec);
    {
      simd::ScalarKernelScope scope;
      tc::tc_gemm(Trans::No, Trans::Yes, 1.25f, a.view(), bt.view(), -0.5f,
                  c_scalar.view(), prec);
    }
    expect_bitwise_equal<float>(c_simd.view(), c_scalar.view());
  }
  {
    auto c_simd = random_mat<float>(m, n, 54);
    auto c_scalar = c_simd;
    ASSERT_TRUE(tc::ec_tcgemm(Trans::No, Trans::No, 1.1f, a.view(), b.view(), 0.6f,
                              c_simd.view())
                    .ok());
    {
      simd::ScalarKernelScope scope;
      ASSERT_TRUE(tc::ec_tcgemm(Trans::No, Trans::No, 1.1f, a.view(), b.view(), 0.6f,
                                c_scalar.view())
                      .ok());
    }
    expect_bitwise_equal<float>(c_simd.view(), c_scalar.view());
  }
  {
    const index_t ns = 150, ks = 40;
    auto as = random_mat<float>(ns, ks, 55);
    auto bs = random_mat<float>(ns, ks, 56);
    auto c_simd = random_mat<float>(ns, ns, 57);
    auto c_scalar = c_simd;
    tc::tc_syr2k(Uplo::Lower, 0.8f, as.view(), bs.view(), 0.5f, c_simd.view());
    {
      simd::ScalarKernelScope scope;
      tc::tc_syr2k(Uplo::Lower, 0.8f, as.view(), bs.view(), 0.5f, c_scalar.view());
    }
    expect_bitwise_equal<float>(c_simd.view(), c_scalar.view());
  }
}

// ---------------------------------------------------------------------------
// Convert kernels: dispatched round/split buffers bitwise-equal to the
// scalar reference over boundary values and random exponent sweeps.
// ---------------------------------------------------------------------------

std::vector<float> convert_probe_values() {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> vals = {
      0.0f,       -0.0f,     1.0f,     -1.0f,   1.5f,
      65504.0f,   -65504.0f, 65519.5f, 65520.0f, -65520.0f,
      65536.0f,   1e30f,     6.103515625e-05f /* 2^-14 */,
      3.0517578125e-05f /* 2^-15: fp16 subnormal */,
      5.960464477539063e-08f /* 2^-24: smallest fp16 subnormal */,
      2.9802322387695312e-08f /* 2^-25: RNE threshold to zero */,
      4.5e-08f,   2.8e-08f,  1e-38f,   inf,     -inf,
      std::numeric_limits<float>::quiet_NaN()};
  std::uint32_t s = 0xabcd1234u;
  for (int i = 0; i < 2048; ++i) {
    s = s * 1664525u + 1013904223u;
    const std::uint32_t sign = (s & 1u) << 31;
    const std::uint32_t exp = 96u + ((s >> 8) % 48u);  // 2^-31 .. 2^16
    s = s * 1664525u + 1013904223u;
    std::uint32_t bits = sign | (exp << 23) | (s & 0x007fffffu);
    float v;
    std::memcpy(&v, &bits, sizeof v);
    vals.push_back(v);
  }
  return vals;
}

void expect_bits_equal(const std::vector<float>& a, const std::vector<float>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint32_t ab, bb;
    std::memcpy(&ab, &a[i], sizeof ab);
    std::memcpy(&bb, &b[i], sizeof bb);
    ASSERT_EQ(ab, bb) << what << " diverges at index " << i << " (input-dependent)";
  }
}

TEST(SimdConvert, RoundBufferBitwiseEqualsScalarReference) {
  const std::vector<float> src = convert_probe_values();
  const index_t n = static_cast<index_t>(src.size());
  for (tc::TcPrecision prec : {tc::TcPrecision::Fp16, tc::TcPrecision::Tf32}) {
    std::vector<float> ref(src.size());
    for (std::size_t i = 0; i < src.size(); ++i)
      ref[i] = tc::round_operand(src[i], prec);
    std::vector<float> out(src.size());
    tc::round_buffer(src.data(), out.data(), n, prec);
    expect_bits_equal(ref, out, "round_buffer");
    // In-place form (round_matrix uses it).
    std::vector<float> inplace = src;
    tc::round_buffer(inplace.data(), inplace.data(), n, prec);
    expect_bits_equal(ref, inplace, "round_buffer in-place");
  }
}

TEST(SimdConvert, EcSplitBufferBitwiseEqualsScalarReference) {
  const std::vector<float> src = convert_probe_values();
  const index_t n = static_cast<index_t>(src.size());
  for (tc::TcPrecision prec : {tc::TcPrecision::Fp16, tc::TcPrecision::Tf32}) {
    std::vector<float> ref_h(src.size()), ref_t(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      const float h = tc::round_operand(src[i], prec);
      ref_h[i] = h;
      ref_t[i] = tc::round_operand(tc::kEcScale * (src[i] - h), prec);
    }
    std::vector<float> out_h(src.size()), out_t(src.size());
    tc::ec_split_buffer(src.data(), out_h.data(), out_t.data(), n, tc::kEcScale, prec);
    expect_bits_equal(ref_h, out_h, "ec_split head");
    expect_bits_equal(ref_t, out_t, "ec_split tail");
  }
}

// The bulge Q update's rotation-wave kernel: the scalar wave reference and
// whatever vector level dispatch resolved must both equal the serial
// sweep-by-sweep replay through rot_sweep_scalar bit for bit. Diagonal
// distances 2..5 and 31, 32 cover every lag pattern (floor(2j/d) steps by
// one every sweep at d = 2, never within a 16-sweep group at d = 32); every
// group size up to QUpdate's; row counts that are not a multiple of a vector
// or of a panel; a leading dimension wider than the rows (the in-place
// strips); skip markers, signed zeros and subnormals in the data.
template <typename T>
void expect_rot_wave_matches_serial(simd::RotWaveFn<T> kernel) {
  constexpr index_t kCols = 97;
  constexpr index_t kMaxGroup = 32;
  Rng rng(4711);
  for (const index_t h : {index_t{1}, index_t{5}, index_t{17}, index_t{30}, index_t{60},
                          index_t{64}, index_t{67}, index_t{120}, index_t{128}, index_t{131}}) {
    const index_t ld = h + (h % 2 == 0 ? 0 : 3);
    Matrix<T> base(ld, kCols);
    fill_normal(rng, base.view());
    for (index_t j = 0; j < kCols; ++j) {
      base(0, j) = (j % 2 == 0) ? -T{} : T{};
      if (h > 2) base(2, j) = std::numeric_limits<T>::denorm_min() * static_cast<T>(j + 1);
    }
    for (const index_t d : {index_t{2}, index_t{3}, index_t{4}, index_t{5}, index_t{31},
                            index_t{32}}) {
      for (const index_t s0 : {index_t{0}, index_t{7}}) {
        for (index_t m = 1; m <= kMaxGroup; ++m) {
          SCOPED_TRACE(::testing::Message() << "h=" << h << " d=" << d << " s0=" << s0
                                            << " m=" << m);
          index_t count = 0;
          for (index_t s = s0; s < s0 + m; ++s) count += (kCols - 1 - s) / d;
          std::vector<T> cs(2 * static_cast<std::size_t>(count));
          for (index_t r = 0; r < count; ++r) {
            const T f = static_cast<T>(rng.normal());
            const T g = static_cast<T>(rng.normal());
            const T hyp = std::hypot(f, g);
            cs[2 * r] = (r % 5 == 3) ? blas::kRotSkip<T> : f / hyp;
            cs[2 * r + 1] = g / hyp;
          }
          Matrix<T> ref = base;
          const T* log = cs.data();
          for (index_t s = s0; s < s0 + m; ++s) {
            const index_t len = (kCols - 1 - s) / d;
            blas::rot_sweep_scalar<T>(ref.data(), ld, h, s + d - 1, d, len, log);
            log += 2 * len;
          }
          Matrix<T> wave = base;
          blas::rot_wave_scalar<T>(wave.data(), ld, h, kCols, d, s0, m, cs.data());
          ASSERT_EQ(std::memcmp(ref.data(), wave.data(),
                                sizeof(T) * static_cast<std::size_t>(ld * kCols)),
                    0)
              << "scalar wave order";
          if (kernel != nullptr) {
            Matrix<T> got = base;
            kernel(got.data(), ld, h, kCols, d, s0, m, cs.data());
            ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                                  sizeof(T) * static_cast<std::size_t>(ld * kCols)),
                      0)
                << "vector wave kernel";
          }
        }
      }
    }
  }
}

TEST(SimdRotWave, BitwiseEqualsSerialReplay) {
  const simd::KernelTable& kt = simd::active_kernels();
  if (kt.level != simd::Level::Scalar) {
    EXPECT_NE(kt.rot_wave_f32, nullptr) << "a vector level must install both rotation kernels";
    EXPECT_NE(kt.rot_wave_f64, nullptr) << "a vector level must install both rotation kernels";
  }
  SCOPED_TRACE(kt.name);
  expect_rot_wave_matches_serial<float>(kt.rot_wave_f32);
  expect_rot_wave_matches_serial<double>(kt.rot_wave_f64);
}

// ---------------------------------------------------------------------------
// Alignment contract: the pack arenas (and anything AlignedVector-backed)
// must start on a 64-byte boundary or the SIMD aligned loads fault.
// ---------------------------------------------------------------------------

template <typename T>
bool is_kernel_aligned(const T* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kKernelAlignment == 0;
}

TEST(PackAlignment, ThreadLocalArenasAre64ByteAligned) {
  // The caller arenas grow on first use: run a split-B (EC) float GEMM and a
  // plain double one on this thread so every arena below is populated.
  auto a = random_mat<float>(40, 40, 91);
  Matrix<float> c(40, 40);
  ASSERT_TRUE(tc::ec_tcgemm(Trans::No, Trans::No, 1.0f, a.view(), a.view(), 0.0f, c.view())
                  .ok());
  auto ad64 = random_mat<double>(40, 40, 92);
  Matrix<double> cd(40, 40);
  blas::gemm<double>(Trans::No, Trans::No, 1.0, ad64.view(), ad64.view(), 0.0, cd.view());
  auto& f = blas::packed::caller_buffers<float>();
  ASSERT_FALSE(f.a.empty());
  ASSERT_FALSE(f.b.empty());
  ASSERT_FALSE(f.b2.empty());
  EXPECT_TRUE(is_kernel_aligned(f.a.data()));
  EXPECT_TRUE(is_kernel_aligned(f.b.data()));
  EXPECT_TRUE(is_kernel_aligned(f.b2.data()));
  auto& d = blas::packed::caller_buffers<double>();
  ASSERT_FALSE(d.a.empty());
  ASSERT_FALSE(d.b.empty());
  EXPECT_TRUE(is_kernel_aligned(d.a.data()));
  EXPECT_TRUE(is_kernel_aligned(d.b.data()));
}

TEST(PackAlignment, AlignedVectorAlwaysAligned) {
  // Odd sizes and regrowth must preserve the alignment guarantee.
  for (std::size_t n : {1u, 3u, 17u, 63u, 64u, 65u, 1000u, 4097u}) {
    AlignedVector<float> vf(n);
    EXPECT_TRUE(is_kernel_aligned(vf.data())) << "float n=" << n;
    AlignedVector<double> vd(n);
    EXPECT_TRUE(is_kernel_aligned(vd.data())) << "double n=" << n;
    vf.resize(3 * n + 1);
    EXPECT_TRUE(is_kernel_aligned(vf.data())) << "float regrown n=" << n;
  }
}

// ---------------------------------------------------------------------------
// AVX-512 tier: each kernel of the family against the scalar reference on
// every mr x nr tail, kc tails, and the special values and fp16 extremes the
// exact-FMA argument rests on.
// ---------------------------------------------------------------------------

/// Bit-pattern equality (NaNs included) over a whole buffer.
template <typename T>
bool same_bits(const T* a, const T* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(T)) == 0;
}

/// Restores TCEVD_SIMD and the resolved table on scope exit.
class SimdEnvScope {
 public:
  explicit SimdEnvScope(const char* value) {
    const char* saved = std::getenv("TCEVD_SIMD");
    had_ = saved != nullptr;
    if (had_) saved_ = saved;
    ::setenv("TCEVD_SIMD", value, 1);
    simd::detail::refresh_for_testing();
  }
  ~SimdEnvScope() {
    if (had_)
      ::setenv("TCEVD_SIMD", saved_.c_str(), 1);
    else
      ::unsetenv("TCEVD_SIMD");
    simd::detail::refresh_for_testing();
  }
  SimdEnvScope(const SimdEnvScope&) = delete;
  SimdEnvScope& operator=(const SimdEnvScope&) = delete;

 private:
  bool had_ = false;
  std::string saved_;
};

/// Packed operands with sprinkled specials: signed zeros, +-inf and the x86
/// default quiet NaN (the one NaN pattern every kernel propagates alike).
template <typename T>
std::vector<T> kernel_probe_values(std::size_t n, std::uint32_t seed, bool specials) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.normal());
  if (specials) {
    const T inf = std::numeric_limits<T>::infinity();
    const T qnan = -std::numeric_limits<T>::quiet_NaN();
    for (std::size_t i = 0; i < n; i += 37) v[i] = (i / 37) % 2 == 0 ? T{0} : -T{0};
    if (n > 200) {
      v[101] = inf;
      v[157] = -inf;
      v[199] = qnan;
    }
  }
  return v;
}

/// fp16 values from the subnormal 2^-24 to 2^16, with the extremes planted:
/// the smallest subnormal (products near 2^-48), 65504 (products near 2^32),
/// subnormal-times-normal mixes and signed zeros.
std::vector<float> fp16_probe_values(std::size_t n, std::uint32_t seed) {
  std::vector<float> v(n);
  std::uint32_t s = seed;
  for (auto& x : v) {
    s = s * 1664525u + 1013904223u;
    const int e = static_cast<int>((s >> 8) % 41u) - 24;
    const float mant = 1.0f + static_cast<float>((s >> 16) & 0x3ffu) / 1024.0f;
    const float m = std::ldexp(mant, e);
    x = round_to_half((s & 1u) != 0 ? -m : m);
  }
  const float tiny = std::ldexp(1.0f, -24);
  for (std::size_t i = 0; i < n; i += 11) v[i] = (i / 11) % 2 == 0 ? tiny : -65504.0f;
  for (std::size_t i = 5; i < n; i += 23) v[i] = (i / 23) % 2 == 0 ? 0.0f : -0.0f;
  for (std::size_t i = 7; i < n; i += 29) v[i] = round_to_half(std::ldexp(1.5f, -20));
  return v;
}

template <typename T>
using PlainFn = void (*)(index_t, const T*, const T*, T, T*, index_t, index_t, index_t);
template <typename T>
using PairFn = void (*)(index_t, const T*, const T*, const T*, const T*, T, T*, index_t,
                        index_t, index_t);

/// Every mr, nr in 1..16 and kc in {1, 7, 255, 256} for one plain and one
/// pair kernel; the full 16 x 16 C footprint is compared, so writes past
/// mr/nr are caught too.
template <typename T>
void expect_kernels_match_scalar(PlainFn<T> plain, PairFn<T> pair, const std::vector<T>& a1,
                                 const std::vector<T>& b1, const std::vector<T>& a2,
                                 const std::vector<T>& b2, const char* what) {
  using blas::packed::kMR;
  using blas::packed::kNR;
  AlignedVector<T> ap1(a1.begin(), a1.end()), ap2(a2.begin(), a2.end());
  const std::vector<T> cbase = kernel_probe_values<T>(kMR * kNR, 99, false);
  std::vector<T> cref(kMR * kNR), cvec(kMR * kNR);
  for (const index_t kc : {index_t{1}, index_t{7}, index_t{255}, index_t{256}}) {
    for (index_t mr = 1; mr <= kMR; ++mr) {
      for (index_t nr = 1; nr <= kNR; ++nr) {
        cref = cbase;
        cvec = cbase;
        blas::packed::micro_kernel_scalar<T>(kc, ap1.data(), b1.data(), T(0.75), cref.data(),
                                             kMR, mr, nr);
        plain(kc, ap1.data(), b1.data(), T(0.75), cvec.data(), kMR, mr, nr);
        ASSERT_TRUE(same_bits(cref.data(), cvec.data(), cref.size()))
            << what << " plain kernel, kc " << kc << ", mr " << mr << ", nr " << nr;
        cref = cbase;
        cvec = cbase;
        blas::packed::micro_kernel_pair_scalar<T>(kc, ap1.data(), b1.data(), ap2.data(),
                                                  b2.data(), T(-1.25), cref.data(), kMR, mr,
                                                  nr);
        pair(kc, ap1.data(), b1.data(), ap2.data(), b2.data(), T(-1.25), cvec.data(), kMR, mr,
             nr);
        ASSERT_TRUE(same_bits(cref.data(), cvec.data(), cref.size()))
            << what << " pair kernel, kc " << kc << ", mr " << mr << ", nr " << nr;
      }
    }
  }
}

TEST(SimdGemm, Avx512BitwiseEqualsScalarReference) {
  SimdEnvScope env("auto");
  const simd::KernelTable& kt = simd::kernels();
  if (kt.level != simd::Level::Avx512)
    GTEST_SKIP() << "AVX-512 family not active: " << simd::active_level_reason();
  using blas::packed::kMR;
  using blas::packed::kNR;
  const std::size_t na = 256 * kMR, nb = 256 * kNR;
  expect_kernels_match_scalar<float>(
      kt.gemm_f32, kt.gemm_pair_f32, kernel_probe_values<float>(na, 1, true),
      kernel_probe_values<float>(nb, 2, true), kernel_probe_values<float>(na, 3, true),
      kernel_probe_values<float>(nb, 4, true), "f32");
  expect_kernels_match_scalar<double>(
      kt.gemm_f64, kt.gemm_pair_f64, kernel_probe_values<double>(na, 5, true),
      kernel_probe_values<double>(nb, 6, true), kernel_probe_values<double>(na, 7, true),
      kernel_probe_values<double>(nb, 8, true), "f64");
  // The fp16-operand (FMA) entries: exact products make them equal to the
  // reference's mul-then-add on any fp16 data, specials included.
  std::vector<float> h1 = fp16_probe_values(na, 11), h2 = fp16_probe_values(nb, 12);
  const float inf = std::numeric_limits<float>::infinity();
  h1[301] = inf;
  h2[402] = -inf;
  h1[503] = -std::numeric_limits<float>::quiet_NaN();
  expect_kernels_match_scalar<float>(kt.gemm_f32_fp16, kt.gemm_pair_f32_fp16, h1, h2,
                                     fp16_probe_values(na, 13), fp16_probe_values(nb, 14),
                                     "f32 fp16-operand");
}

// Every rotation-wave family this host can run, not only the resolved one:
// the AVX2 twin stays pinned on an AVX-512 host too.
TEST(SimdRotWave, EveryFamilyBitwiseEqualsSerialReplay) {
  for (const char* level : {"avx2", "auto"}) {
    SimdEnvScope env(level);
    const simd::KernelTable& kt = simd::kernels();
    SCOPED_TRACE(kt.name);
    expect_rot_wave_matches_serial<float>(kt.rot_wave_f32);
    expect_rot_wave_matches_serial<double>(kt.rot_wave_f64);
  }
}

// ---------------------------------------------------------------------------
// BLIS-style lanes: pooled == serial bitwise when m spans several lanes'
// ic slices, the shared B is packed by several lanes, and when the lanes
// split B's panels too (few rows), with ABFT off and on.
// ---------------------------------------------------------------------------

TEST(GemmLanes, PooledBitwiseEqualsSerialAcrossSlices) {
  struct Case {
    Trans ta, tb;
    index_t m, n, k;
  };
  const Case cases[] = {
      {Trans::No, Trans::No, 992, 32, 992},    // OA·w'
      {Trans::No, Trans::Yes, 480, 32, 224},   // P·Y^T
      {Trans::Yes, Trans::No, 224, 32, 736},   // W^T·M
      {Trans::No, Trans::No, 32, 600, 300},    // few rows: lanes split B panels
      {Trans::Yes, Trans::Yes, 300, 1100, 40}, // two nc blocks
  };
  for (const bool abft_on : {false, true}) {
    for (const Case& p : cases) {
      auto a = random_mat<float>(p.ta == Trans::No ? p.m : p.k, p.ta == Trans::No ? p.k : p.m,
                                 61);
      auto b = random_mat<float>(p.tb == Trans::No ? p.k : p.n, p.tb == Trans::No ? p.n : p.k,
                                 62);
      auto c_pooled = random_mat<float>(p.m, p.n, 63);
      auto c_serial = c_pooled;
      std::optional<blas::abft::AbftScope> abft;
      if (abft_on) abft.emplace();
      const auto before = blas::gemm_pool_dispatches();
      tc::tc_gemm(p.ta, p.tb, 0.5f, a.view(), b.view(), 1.5f, c_pooled.view());
      EXPECT_GT(blas::gemm_pool_dispatches(), before)
          << p.m << "x" << p.n << "x" << p.k << " did not fan out";
      {
        blas::SerialGemmScope serial;
        tc::tc_gemm(p.ta, p.tb, 0.5f, a.view(), b.view(), 1.5f, c_serial.view());
      }
      expect_bitwise_equal<float>(c_pooled.view(), c_serial.view());
    }
  }
}

}  // namespace
}  // namespace tcevd
