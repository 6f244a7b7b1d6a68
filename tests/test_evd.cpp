// End-to-end EVD: all reductions x solvers x engines, eigenvalue accuracy
// against the double reference, eigenvector residuals, timings populated.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/evd/evd.hpp"
#include "src/matgen/matgen.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using evd::EvdOptions;
using evd::Reduction;
using evd::TriSolver;

std::vector<double> dbl_reference(ConstMatrixView<float> a) {
  const index_t n = a.rows();
  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a, ad.view());
  return *evd::reference_eigenvalues(ad.view());
}

struct EvdCase {
  Reduction red;
  TriSolver solver;
  index_t n, b;
};

class EvdPipelineTest : public ::testing::TestWithParam<EvdCase> {};

TEST_P(EvdPipelineTest, EigenvaluesMatchReferenceFp32) {
  const auto p = GetParam();
  auto a = test::random_symmetric<float>(p.n, 500 + p.n);
  EvdOptions opt;
  opt.reduction = p.red;
  opt.solver = p.solver;
  opt.bandwidth = p.b;
  opt.big_block = 4 * p.b;
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(static_cast<index_t>(res.eigenvalues.size()), p.n);

  auto ref = dbl_reference(a.view());
  std::vector<double> got(res.eigenvalues.begin(), res.eigenvalues.end());
  // fp32 pipeline: expect ~1e-6 normalized error (paper's MAGMA column).
  EXPECT_LT(eigenvalue_error(ref.data(), got.data(), p.n), 1e-5 / p.n * 10);
  // Ascending order.
  for (index_t i = 1; i < p.n; ++i)
    EXPECT_LE(res.eigenvalues[static_cast<std::size_t>(i - 1)],
              res.eigenvalues[static_cast<std::size_t>(i)]);
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, EvdPipelineTest,
    ::testing::Values(EvdCase{Reduction::TwoStageWy, TriSolver::DivideConquer, 96, 8},
                      EvdCase{Reduction::TwoStageWy, TriSolver::Ql, 96, 8},
                      EvdCase{Reduction::TwoStageWy, TriSolver::Bisection, 96, 8},
                      EvdCase{Reduction::TwoStageZy, TriSolver::DivideConquer, 96, 8},
                      EvdCase{Reduction::TwoStageZy, TriSolver::Ql, 80, 16},
                      EvdCase{Reduction::OneStage, TriSolver::DivideConquer, 96, 8},
                      EvdCase{Reduction::OneStage, TriSolver::Ql, 64, 8},
                      EvdCase{Reduction::TwoStageWy, TriSolver::DivideConquer, 130, 16}));

TEST(Evd, VectorsDiagonalize) {
  const index_t n = 80;
  auto a = test::random_symmetric<float>(n, 3);
  EvdOptions opt;
  opt.vectors = true;
  opt.bandwidth = 8;
  opt.big_block = 32;
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(orthogonality_error<float>(res.vectors.view()), 1e-6);
  EXPECT_LT(evd::eigenpair_residual(a.view(), res.eigenvalues, res.vectors.view()), 1e-5);
}

TEST(Evd, VectorsViaQlAlsoDiagonalize) {
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 5);
  EvdOptions opt;
  opt.vectors = true;
  opt.solver = TriSolver::Ql;
  opt.bandwidth = 8;
  opt.big_block = 16;
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(evd::eigenpair_residual(a.view(), res.eigenvalues, res.vectors.view()), 1e-5);
}

TEST(Evd, OneStageVectors) {
  const index_t n = 50;
  auto a = test::random_symmetric<float>(n, 7);
  EvdOptions opt;
  opt.vectors = true;
  opt.reduction = Reduction::OneStage;
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(evd::eigenpair_residual(a.view(), res.eigenvalues, res.vectors.view()), 1e-5);
}

TEST(Evd, TensorCorePipelineWithinTcEpsilon) {
  const index_t n = 128;
  Rng rng(11);
  auto a = matgen::generate_f(matgen::MatrixType::Arith, n, 1e3, rng);
  EvdOptions opt;
  opt.bandwidth = 16;
  opt.big_block = 32;
  tc::TcEngine eng(tc::TcPrecision::Fp16);
  Context ctx(eng);
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  auto ref = dbl_reference(a.view());
  std::vector<double> got(res.eigenvalues.begin(), res.eigenvalues.end());
  // Paper Table 4: E_s ~ 1e-4..1e-5 with N normalization.
  EXPECT_LT(eigenvalue_error(ref.data(), got.data(), n), 1e-4);
}

TEST(Evd, EcTcBeatsPlainTc) {
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 13);
  EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  auto ref = dbl_reference(a.view());

  tc::TcEngine tc_eng(tc::TcPrecision::Fp16);
  tc::EcTcEngine ec_eng(tc::TcPrecision::Fp16);
  Context tc_ctx(tc_eng), ec_ctx(ec_eng);
  auto r1 = *evd::solve(a.view(), tc_ctx, opt);
  auto r2 = *evd::solve(a.view(), ec_ctx, opt);
  ASSERT_TRUE(r1.converged && r2.converged);
  std::vector<double> g1(r1.eigenvalues.begin(), r1.eigenvalues.end());
  std::vector<double> g2(r2.eigenvalues.begin(), r2.eigenvalues.end());
  EXPECT_LT(eigenvalue_error(ref.data(), g2.data(), n),
            eigenvalue_error(ref.data(), g1.data(), n));
}

TEST(Evd, TimingsPopulated) {
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 17);
  EvdOptions opt;
  opt.bandwidth = 8;
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto res = *evd::solve(a.view(), ctx, opt);
  EXPECT_GT(res.timings.reduction_s, 0.0);
  EXPECT_GT(res.timings.solver_s, 0.0);
  EXPECT_GE(res.timings.total_s,
            res.timings.reduction_s + res.timings.bulge_s + res.timings.solver_s - 1e-9);
}

TEST(Evd, TrivialSizesSolveInsteadOfAborting) {
  tc::Fp32Engine eng;
  Context ctx(eng);
  EvdOptions opt;
  opt.vectors = true;

  // n = 1: bandwidth = min(b, n-1) = 0 used to fail the SBR precondition
  // check and abort the process.
  Matrix<float> a1(1, 1);
  a1(0, 0) = -3.25f;
  auto r1 = evd::solve(a1.view(), ctx, opt);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r1->converged);
  ASSERT_EQ(r1->eigenvalues.size(), 1u);
  EXPECT_EQ(r1->eigenvalues[0], -3.25f);
  EXPECT_EQ(r1->vectors(0, 0), 1.0f);

  // n = 0: empty, converged result.
  Matrix<float> a0(0, 0);
  auto r0 = evd::solve(a0.view(), ctx, opt);
  ASSERT_TRUE(r0.ok());
  EXPECT_TRUE(r0->converged);
  EXPECT_TRUE(r0->eigenvalues.empty());

  // n = 2 is the smallest size that goes through the real pipeline.
  auto a2 = test::random_symmetric<float>(2, 29);
  auto r2 = evd::solve(a2.view(), ctx, opt);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->eigenvalues.size(), 2u);
  EXPECT_LE(r2->eigenvalues[0], r2->eigenvalues[1]);

  // solve_selected shares the trivial path.
  auto sel = evd::solve_selected(a1.view(), ctx, opt, 0, 0);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->eigenvalues[0], -3.25f);
}

TEST(Evd, KnownSpectrumRecovered) {
  const index_t n = 100;
  Rng rng(19);
  auto a = matgen::generate_f(matgen::MatrixType::Geo, n, 1e3, rng);
  auto spectrum = matgen::prescribed_spectrum(matgen::MatrixType::Geo, n, 1e3);
  EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  std::vector<double> got(res.eigenvalues.begin(), res.eigenvalues.end());
  EXPECT_LT(eigenvalue_error(spectrum.data(), got.data(), n), 1e-6);
}

}  // namespace
}  // namespace tcevd
