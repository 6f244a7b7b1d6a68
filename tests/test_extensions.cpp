// Options wired in after the core reproduction: engine-native TC syr2k in
// ZY-SBR and block-reflector application.
#include <gtest/gtest.h>

#include "src/common/context.hpp"
#include "src/blas/blas.hpp"
#include "src/common/norms.hpp"
#include "src/evd/evd.hpp"
#include "src/sbr/sbr.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using blas::Trans;

TEST(ZyTcSyr2k, MatchesTwoGemmTrailingUpdate) {
  const index_t n = 96, b = 8;
  auto a = test::random_symmetric<float>(n, 3);
  sbr::SbrOptions two;
  two.bandwidth = b;
  sbr::SbrOptions native = two;
  native.zy_use_tc_syr2k = true;

  tc::TcEngine e1(tc::TcPrecision::Fp16), e2(tc::TcPrecision::Fp16);
  Context c1(e1), c2(e2);
  auto r1 = *sbr::sbr_zy(a.view(), c1, two);
  auto r2 = *sbr::sbr_zy(a.view(), c2, native);
  // Same numerics family, but each panel's rounding differences compound
  // through the reflectors, so the two band forms drift at a multiple of the
  // TC eps (they remain orthogonally similar — spectrum check below).
  EXPECT_LT(test::rel_diff<float>(r1.band.view(), r2.band.view()), 5e-2);
  // Spectrum identical to fp64-class tolerance of TC pipeline.
  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a.view(), ad.view());
  auto ref = *evd::reference_eigenvalues(ad.view());
  Matrix<double> bd(n, n);
  convert_matrix<float, double>(ConstMatrixView<float>(r2.band.view()), bd.view());
  auto got = *evd::reference_eigenvalues(bd.view());
  EXPECT_LT(eigenvalue_error(ref.data(), got.data(), n), 1e-4);
}

TEST(ZyTcSyr2k, FallsBackSilentlyOnNonTcEngine) {
  const index_t n = 64, b = 8;
  auto a = test::random_symmetric<float>(n, 4);
  sbr::SbrOptions opt;
  opt.bandwidth = b;
  opt.zy_use_tc_syr2k = true;  // fp32 engine: option must be a no-op
  tc::Fp32Engine e1, e2;
  Context c1(e1), c2(e2);
  auto r1 = *sbr::sbr_zy(a.view(), c1, opt);
  opt.zy_use_tc_syr2k = false;
  auto r2 = *sbr::sbr_zy(a.view(), c2, opt);
  EXPECT_EQ(frobenius_diff<float>(r1.band.view(), r2.band.view()), 0.0);
}

TEST(ApplyWyBlocks, MatchesExplicitQMultiplication) {
  const index_t n = 96, b = 8;
  auto a = test::random_symmetric<float>(n, 5);
  tc::Fp32Engine eng;
  Context ctx(eng);
  sbr::SbrOptions opt;
  opt.bandwidth = b;
  opt.big_block = 32;
  auto res = *sbr::sbr_wy(a.view(), ctx, opt);
  ASSERT_FALSE(res.blocks.empty());

  auto x = test::random_matrix_f(n, 7, 6);
  // Reference: explicit Q times X.
  auto q = sbr::form_q(res.blocks, n, ctx);
  Matrix<float> qx(n, 7);
  blas::gemm(Trans::No, Trans::No, 1.0f, ConstMatrixView<float>(q.view()),
             ConstMatrixView<float>(x.view()), 0.0f, qx.view());
  // In-place block application.
  Matrix<float> x2 = x;
  sbr::apply_wy_blocks_left(res.blocks, ctx, x2.view());
  EXPECT_LT(test::rel_diff<float>(x2.view(), qx.view()), 1e-5);
}

TEST(ApplyWyBlocks, PreservesNorms) {
  // Q is orthogonal: column norms of X are invariant.
  const index_t n = 80;
  auto a = test::random_symmetric<float>(n, 7);
  tc::Fp32Engine eng;
  Context ctx(eng);
  sbr::SbrOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  auto res = *sbr::sbr_wy(a.view(), ctx, opt);
  auto x = test::random_matrix_f(n, 3, 8);
  std::vector<double> norms;
  for (index_t j = 0; j < 3; ++j) norms.push_back(blas::nrm2(n, &x(0, j), 1));
  sbr::apply_wy_blocks_left(res.blocks, ctx, x.view());
  for (index_t j = 0; j < 3; ++j)
    EXPECT_NEAR(blas::nrm2(n, &x(0, j), 1), norms[static_cast<std::size_t>(j)], 1e-4);
}

}  // namespace
}  // namespace tcevd
