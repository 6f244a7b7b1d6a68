// Level-3 BLAS against naive references, all transpose/side/uplo variants.
#include <gtest/gtest.h>

#include "src/blas/blas.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;

/// Naive dense reference: C = alpha op(A) op(B) + beta C.
void ref_gemm(Trans ta, Trans tb, double alpha, ConstMatrixView<double> a,
              ConstMatrixView<double> b, double beta, MatrixView<double> c) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (index_t l = 0; l < k; ++l) {
        const double av = (ta == Trans::No) ? a(i, l) : a(l, i);
        const double bv = (tb == Trans::No) ? b(l, j) : b(j, l);
        s += av * bv;
      }
      c(i, j) = alpha * s + beta * c(i, j);
    }
}

struct GemmCase {
  Trans ta, tb;
  index_t m, n, k;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesReference) {
  const auto p = GetParam();
  const index_t am = (p.ta == Trans::No) ? p.m : p.k;
  const index_t an = (p.ta == Trans::No) ? p.k : p.m;
  const index_t bm = (p.tb == Trans::No) ? p.k : p.n;
  const index_t bn = (p.tb == Trans::No) ? p.n : p.k;
  auto a = test::random_matrix(am, an, 1);
  auto b = test::random_matrix(bm, bn, 2);
  auto c = test::random_matrix(p.m, p.n, 3);
  auto c_ref = c;
  blas::gemm(p.ta, p.tb, 1.3, a.view(), b.view(), -0.7, c.view());
  ref_gemm(p.ta, p.tb, 1.3, a.view(), b.view(), -0.7, c_ref.view());
  EXPECT_LT(test::rel_diff<double>(c.view(), c_ref.view()), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTransposes, GemmTest,
    ::testing::Values(GemmCase{Trans::No, Trans::No, 33, 29, 41},
                      GemmCase{Trans::No, Trans::Yes, 33, 29, 41},
                      GemmCase{Trans::Yes, Trans::No, 33, 29, 41},
                      GemmCase{Trans::Yes, Trans::Yes, 33, 29, 41},
                      GemmCase{Trans::No, Trans::No, 1, 1, 1},
                      GemmCase{Trans::No, Trans::No, 64, 1, 64},   // skinny output
                      GemmCase{Trans::No, Trans::Yes, 64, 64, 1},  // outer product
                      GemmCase{Trans::Yes, Trans::No, 5, 300, 7},
                      GemmCase{Trans::No, Trans::No, 300, 5, 300}));

TEST(BlasL3, GemmBetaZeroOverwritesNan) {
  // beta == 0 must not propagate garbage from C (including inf/NaN).
  Matrix<double> a(2, 2), b(2, 2), c(2, 2);
  set_identity(a.view());
  set_identity(b.view());
  c(0, 0) = std::numeric_limits<double>::quiet_NaN();
  blas::gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view());
  EXPECT_EQ(c(0, 0), 1.0);
}

TEST(BlasL3, GemmOnSubviews) {
  auto big_a = test::random_matrix(20, 20, 7);
  auto big_b = test::random_matrix(20, 20, 8);
  Matrix<double> c(6, 5);
  Matrix<double> c_ref(6, 5);
  auto a = big_a.sub(3, 2, 6, 9);
  auto b = big_b.sub(1, 4, 9, 5);
  blas::gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c.view());
  ref_gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c_ref.view());
  EXPECT_LT(test::rel_diff<double>(c.view(), c_ref.view()), 1e-13);
}

TEST(BlasL3, GemmEmptyKScalesC) {
  Matrix<double> a(3, 0), b(0, 3);
  Matrix<double> c(3, 3);
  c(1, 1) = 4.0;
  blas::gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.5, c.view());
  EXPECT_DOUBLE_EQ(c(1, 1), 2.0);
}

TEST(BlasL3, SyrkMatchesGemmOnLowerTriangle) {
  const index_t n = 21, k = 13;
  auto a = test::random_matrix(n, k, 9);
  auto c = test::random_symmetric<double>(n, 10);
  auto c_ref = c;
  blas::syrk(Uplo::Lower, Trans::No, 0.9, a.view(), 0.4, c.view());
  ref_gemm(Trans::No, Trans::Yes, 0.9, a.view(), a.view(), 0.4, c_ref.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) EXPECT_NEAR(c(i, j), c_ref(i, j), 1e-12);
}

TEST(BlasL3, SyrkTransUpper) {
  const index_t n = 14, k = 10;
  auto a = test::random_matrix(k, n, 11);
  auto c = test::random_symmetric<double>(n, 12);
  auto c_ref = c;
  blas::syrk(Uplo::Upper, Trans::Yes, 1.0, a.view(), 0.0, c.view());
  ref_gemm(Trans::Yes, Trans::No, 1.0, a.view(), a.view(), 0.0, c_ref.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) EXPECT_NEAR(c(i, j), c_ref(i, j), 1e-12);
}

TEST(BlasL3, Syr2kMatchesTwoGemms) {
  const index_t n = 19, k = 8;
  auto a = test::random_matrix(n, k, 13);
  auto b = test::random_matrix(n, k, 14);
  auto c = test::random_symmetric<double>(n, 15);
  auto c_ref = c;
  blas::syr2k(Uplo::Lower, Trans::No, -1.0, a.view(), b.view(), 1.0, c.view());
  ref_gemm(Trans::No, Trans::Yes, -1.0, a.view(), b.view(), 1.0, c_ref.view());
  ref_gemm(Trans::No, Trans::Yes, -1.0, b.view(), a.view(), 1.0, c_ref.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) EXPECT_NEAR(c(i, j), c_ref(i, j), 1e-12);
}

struct TriMatCase {
  Side side;
  Uplo uplo;
  Trans trans;
  Diag diag;
};

class TrmmTrsmTest : public ::testing::TestWithParam<TriMatCase> {};

TEST_P(TrmmTrsmTest, TrsmInvertsTrmm) {
  const auto p = GetParam();
  const index_t m = 13, n = 9;
  const index_t na = (p.side == Side::Left) ? m : n;
  Rng rng(41);
  Matrix<double> a(na, na);
  for (index_t j = 0; j < na; ++j) {
    for (index_t i = 0; i < na; ++i) a(i, j) = 0.1 * rng.normal();
    a(j, j) = 2.0 + rng.uniform();
  }
  auto b = test::random_matrix(m, n, 42);
  auto b0 = b;
  blas::trmm(p.side, p.uplo, p.trans, p.diag, 2.0, a.view(), b.view());
  blas::trsm(p.side, p.uplo, p.trans, p.diag, 0.5, a.view(), b.view());
  EXPECT_LT(test::rel_diff<double>(b.view(), b0.view()), 1e-12);
}

TEST_P(TrmmTrsmTest, TrmmMatchesDense) {
  const auto p = GetParam();
  const index_t m = 11, n = 7;
  const index_t na = (p.side == Side::Left) ? m : n;
  Rng rng(43);
  Matrix<double> a(na, na);
  fill_normal(rng, a.view());
  Matrix<double> t(na, na);
  const bool lower_stored = p.uplo == Uplo::Lower;
  for (index_t j = 0; j < na; ++j)
    for (index_t i = 0; i < na; ++i) {
      const bool in_tri = lower_stored ? (i >= j) : (i <= j);
      double v = in_tri ? a(i, j) : 0.0;
      if (i == j && p.diag == Diag::Unit) v = 1.0;
      t(i, j) = v;
    }
  auto b = test::random_matrix(m, n, 44);
  Matrix<double> ref(m, n);
  if (p.side == Side::Left)
    ref_gemm(p.trans, Trans::No, 1.0, t.view(), b.view(), 0.0, ref.view());
  else
    ref_gemm(Trans::No, p.trans, 1.0, b.view(), t.view(), 0.0, ref.view());
  blas::trmm(p.side, p.uplo, p.trans, p.diag, 1.0, a.view(), b.view());
  EXPECT_LT(test::rel_diff<double>(b.view(), ref.view()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrmmTrsmTest,
    ::testing::Values(TriMatCase{Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit},
                      TriMatCase{Side::Left, Uplo::Lower, Trans::Yes, Diag::Unit},
                      TriMatCase{Side::Left, Uplo::Upper, Trans::No, Diag::Unit},
                      TriMatCase{Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit},
                      TriMatCase{Side::Right, Uplo::Lower, Trans::No, Diag::Unit},
                      TriMatCase{Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit},
                      TriMatCase{Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit},
                      TriMatCase{Side::Right, Uplo::Upper, Trans::Yes, Diag::Unit}));

struct SymmCase {
  Side side;
  Uplo uplo;
};

class SymmTest : public ::testing::TestWithParam<SymmCase> {};

TEST_P(SymmTest, MatchesGemmOnFullSymmetricMatrix) {
  const auto p = GetParam();
  const index_t m = 17, n = 13;
  const index_t na = (p.side == Side::Left) ? m : n;
  auto a = test::random_symmetric<double>(na, 70);
  // Poison the unused triangle: symm must not read it.
  auto poisoned = a;
  for (index_t j = 0; j < na; ++j)
    for (index_t i = 0; i < na; ++i) {
      const bool in_stored = (p.uplo == Uplo::Lower) ? (i >= j) : (i <= j);
      if (!in_stored) poisoned(i, j) = 1e300;
    }
  auto b = test::random_matrix(m, n, 71);
  auto c = test::random_matrix(m, n, 72);
  auto c_ref = c;
  blas::symm(p.side, p.uplo, 0.8, poisoned.view(), b.view(), -0.3, c.view());
  if (p.side == Side::Left)
    ref_gemm(Trans::No, Trans::No, 0.8, a.view(), b.view(), -0.3, c_ref.view());
  else
    ref_gemm(Trans::No, Trans::No, 0.8, b.view(), a.view(), -0.3, c_ref.view());
  EXPECT_LT(test::rel_diff<double>(c.view(), c_ref.view()), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Variants, SymmTest,
                         ::testing::Values(SymmCase{Side::Left, Uplo::Lower},
                                           SymmCase{Side::Left, Uplo::Upper},
                                           SymmCase{Side::Right, Uplo::Lower},
                                           SymmCase{Side::Right, Uplo::Upper}));

TEST(BlasL3, FloatInstantiationWorks) {
  auto a = test::random_matrix_f(12, 12, 60);
  auto b = test::random_matrix_f(12, 12, 61);
  Matrix<float> c(12, 12);
  blas::gemm(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
  // Spot-check one entry against a double computation.
  double s = 0.0;
  for (index_t l = 0; l < 12; ++l) s += double(a(3, l)) * double(b(l, 5));
  EXPECT_NEAR(c(3, 5), s, 1e-4);
}

}  // namespace
}  // namespace tcevd
