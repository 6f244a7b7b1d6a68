// Cross-module integration: the full pipeline exercised end to end in
// configurations the unit tests don't combine — every engine x reduction x
// solver on spectrum-controlled matrices, the SVD-on-EVD stack, and the
// refine-after-TC workflow (the library's intended mixed-precision recipe).
#include <gtest/gtest.h>

#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/refine.hpp"
#include "src/matgen/matgen.hpp"
#include "src/svd/svd.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

struct FullCase {
  const char* engine;  // "fp32" | "tc" | "ectc"
  evd::Reduction red;
  evd::TriSolver solver;
};

class FullPipelineTest : public ::testing::TestWithParam<FullCase> {};

TEST_P(FullPipelineTest, GeoMatrixWithVectors) {
  const auto p = GetParam();
  const index_t n = 96;
  Rng rng(10);
  auto ad = matgen::generate(matgen::MatrixType::Geo, n, 1e3, rng);
  Matrix<float> a(n, n);
  convert_matrix<double, float>(ad.view(), a.view());

  tc::Fp32Engine fp;
  tc::TcEngine tchalf(tc::TcPrecision::Fp16);
  tc::EcTcEngine ec(tc::TcPrecision::Fp16);
  tc::GemmEngine* eng = &fp;
  double tol = 1e-5;
  if (std::string(p.engine) == "tc") {
    eng = &tchalf;
    tol = 1e-2;
  } else if (std::string(p.engine) == "ectc") {
    eng = &ec;
    tol = 1e-4;
  }

  evd::EvdOptions opt;
  opt.reduction = p.red;
  opt.solver = p.solver;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.vectors = true;
  Context ctx(*eng);
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(evd::eigenpair_residual(a.view(), res.eigenvalues, res.vectors.view()), tol);
  EXPECT_LT(orthogonality_error<float>(res.vectors.view()), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FullPipelineTest,
    ::testing::Values(FullCase{"fp32", evd::Reduction::TwoStageWy, evd::TriSolver::Ql},
                      FullCase{"fp32", evd::Reduction::TwoStageZy, evd::TriSolver::DivideConquer},
                      FullCase{"tc", evd::Reduction::TwoStageWy, evd::TriSolver::DivideConquer},
                      FullCase{"tc", evd::Reduction::TwoStageZy, evd::TriSolver::Ql},
                      FullCase{"ectc", evd::Reduction::TwoStageWy, evd::TriSolver::DivideConquer},
                      FullCase{"fp32", evd::Reduction::OneStage, evd::TriSolver::Ql}));

TEST(Workflow, TcSolveThenRefineSelected) {
  // The intended mixed-precision recipe: fast low-precision full solve on
  // the (emulated) Tensor Core, then refine the few pairs that matter.
  const index_t n = 128;
  Rng rng(20);
  auto a = matgen::generate_f(matgen::MatrixType::Arith, n, 1e3, rng);

  tc::TcEngine eng(tc::TcPrecision::Fp16);
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 16;
  opt.big_block = 64;
  opt.vectors = true;
  auto coarse = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(coarse.converged);

  const index_t k = 4;  // refine the k largest pairs
  std::vector<float> lam(coarse.eigenvalues.end() - k, coarse.eigenvalues.end());
  auto vk = coarse.vectors.sub(0, n - k, n, k);
  auto refined = evd::refine_eigenpairs(ctx, a.view(), lam, ConstMatrixView<float>(vk));

  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a.view(), ad.view());
  const double anorm = frobenius_norm<double>(ad.view());
  for (double r : refined.residuals) EXPECT_LT(r, 1e-10 * anorm);
}

TEST(Workflow, PartialMatchesFullOnTc) {
  const index_t n = 96;
  Rng rng(21);
  auto a = matgen::generate_f(matgen::MatrixType::Geo, n, 1e2, rng);
  tc::TcEngine eng(tc::TcPrecision::Fp16);
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;

  auto full = *evd::solve(a.view(), ctx, opt);
  auto part = *evd::solve_selected(a.view(), ctx, opt, 0, 9);
  for (index_t i = 0; i < 10; ++i)
    EXPECT_NEAR(part.eigenvalues[static_cast<std::size_t>(i)],
                full.eigenvalues[static_cast<std::size_t>(i)], 2e-3);
}

TEST(Workflow, SvdOfTallMatrixThroughTcEvd) {
  const index_t m = 120, n = 40;
  Rng rng(22);
  Matrix<float> a(m, n);
  fill_normal(rng, a.view());

  tc::EcTcEngine eng(tc::TcPrecision::Fp16);  // EC keeps the Gram route sane
  Context ctx(eng);
  svd::SvdOptions opt;
  opt.evd.bandwidth = 8;
  opt.evd.big_block = 16;
  auto res = svd::svd_via_evd(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);

  Matrix<double> ad(m, n);
  convert_matrix<float, double>(a.view(), ad.view());
  auto ref = svd::jacobi_svd(ad.view());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(res.sigma[static_cast<std::size_t>(i)],
                static_cast<float>(ref.sigma[static_cast<std::size_t>(i)]),
                2e-3f * static_cast<float>(ref.sigma[0]));
}

TEST(Workflow, LowRankReconstructionAccuracyChain) {
  // Build rank-6 + noise, take top-6 eigenpairs via the TC pipeline, refine,
  // and check the refined reconstruction beats the unrefined one.
  const index_t n = 96, r = 6;
  Rng rng(23);
  Matrix<float> b(n, r);
  fill_normal(rng, b.view());
  Matrix<float> a(n, n);
  blas::syrk(blas::Uplo::Lower, blas::Trans::No, 1.0f, b.view(), 0.0f, a.view());
  symmetrize_from_lower(a.view());
  for (index_t i = 0; i < n; ++i) a(i, i) += 0.01f;  // noise floor

  tc::TcEngine eng(tc::TcPrecision::Fp16);
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.vectors = true;
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);

  std::vector<float> lam(res.eigenvalues.end() - r, res.eigenvalues.end());
  auto vr = res.vectors.sub(0, n - r, n, r);
  auto refined = evd::refine_eigenpairs(ctx, a.view(), lam, ConstMatrixView<float>(vr));

  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a.view(), ad.view());
  auto recon_err = [&](auto&& lamv, ConstMatrixView<double> v) {
    Matrix<double> vl(n, r);
    for (index_t j = 0; j < r; ++j)
      for (index_t i = 0; i < n; ++i)
        vl(i, j) = v(i, j) * static_cast<double>(lamv[static_cast<std::size_t>(j)]);
    Matrix<double> rec(n, n);
    blas::gemm(blas::Trans::No, blas::Trans::Yes, 1.0, ConstMatrixView<double>(vl.view()), v,
               0.0, rec.view());
    return frobenius_diff<double>(rec.view(), ad.view());
  };
  Matrix<double> v0(n, r);
  convert_matrix<float, double>(ConstMatrixView<float>(vr), v0.view());
  const double before = recon_err(lam, v0.view());
  const double after = recon_err(refined.eigenvalues, refined.vectors.view());
  EXPECT_LE(after, before);
}

}  // namespace
}  // namespace tcevd
