// Partial eigensolve: selected eigenvalues + vectors by bisection + inverse
// iteration, as an index window on the SolveJob pipeline.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/common/verify.hpp"
#include "src/evd/evd.hpp"
#include "src/matgen/matgen.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

TEST(Partial, SelectedValuesMatchFullSolve) {
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 1);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;

  auto full = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(full.converged);
  auto part = *evd::solve_selected(a.view(), ctx, opt, 10, 19);
  ASSERT_TRUE(part.converged);
  ASSERT_EQ(part.eigenvalues.size(), 10u);
  for (index_t i = 0; i < 10; ++i)
    EXPECT_NEAR(part.eigenvalues[static_cast<std::size_t>(i)],
                full.eigenvalues[static_cast<std::size_t>(10 + i)], 2e-4);
}

TEST(Partial, VectorsAreEigenvectorsOfA) {
  const index_t n = 80;
  Rng rng(2);
  auto a = matgen::generate_f(matgen::MatrixType::Geo, n, 1e2, rng);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;

  opt.vectors = true;
  auto part = *evd::solve_selected(a.view(), ctx, opt, n - 5, n - 1);
  ASSERT_TRUE(part.converged);
  ASSERT_EQ(part.vectors.cols(), 5);
  EXPECT_LT(evd::eigenpair_residual(a.view(), part.eigenvalues, part.vectors.view()), 1e-4);
  EXPECT_LT(orthogonality_residual<float>(part.vectors.view()), 1e-3);
}

TEST(Partial, ExtremeEndsAndSinglePair) {
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 3);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;

  auto full = *evd::solve(a.view(), ctx, opt);
  opt.vectors = true;
  auto lo = *evd::solve_selected(a.view(), ctx, opt, 0, 0);
  auto hi = *evd::solve_selected(a.view(), ctx, opt, n - 1, n - 1);
  EXPECT_NEAR(lo.eigenvalues[0], full.eigenvalues.front(), 2e-4);
  EXPECT_NEAR(hi.eigenvalues[0], full.eigenvalues.back(), 2e-4);
  EXPECT_LT(evd::eigenpair_residual(a.view(), lo.eigenvalues, lo.vectors.view()), 1e-4);
}

TEST(Partial, TensorCoreEngineWorks) {
  const index_t n = 96;
  Rng rng(4);
  auto a = matgen::generate_f(matgen::MatrixType::Arith, n, 1e2, rng);
  tc::TcEngine eng(tc::TcPrecision::Fp16);
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;

  opt.vectors = true;
  auto part = *evd::solve_selected(a.view(), ctx, opt, n - 3, n - 1);
  ASSERT_TRUE(part.converged);
  // TC numerics: residual bounded by TC eps.
  EXPECT_LT(evd::eigenpair_residual(a.view(), part.eigenvalues, part.vectors.view()), 1e-2);
}

TEST(Partial, OneStageReductionPath) {
  const index_t n = 48;
  auto a = test::random_symmetric<float>(n, 5);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.reduction = evd::Reduction::OneStage;
  opt.vectors = true;
  auto part = *evd::solve_selected(a.view(), ctx, opt, 0, 4);
  ASSERT_TRUE(part.converged);
  EXPECT_LT(evd::eigenpair_residual(a.view(), part.eigenvalues, part.vectors.view()), 1e-4);
}

TEST(Partial, ZyReductionPath) {
  const index_t n = 48;
  auto a = test::random_symmetric<float>(n, 6);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.reduction = evd::Reduction::TwoStageZy;
  opt.bandwidth = 8;
  opt.vectors = true;
  auto part = *evd::solve_selected(a.view(), ctx, opt, 20, 24);
  ASSERT_TRUE(part.converged);
  EXPECT_LT(evd::eigenpair_residual(a.view(), part.eigenvalues, part.vectors.view()), 1e-4);
}

void expect_bitwise_equal(const evd::EvdResult& got, const evd::EvdResult& want) {
  ASSERT_EQ(got.eigenvalues.size(), want.eigenvalues.size());
  for (std::size_t i = 0; i < got.eigenvalues.size(); ++i)
    EXPECT_EQ(got.eigenvalues[i], want.eigenvalues[i]) << "eigenvalue " << i;
  ASSERT_EQ(got.vectors.rows(), want.vectors.rows());
  ASSERT_EQ(got.vectors.cols(), want.vectors.cols());
  for (index_t j = 0; j < got.vectors.cols(); ++j)
    for (index_t i = 0; i < got.vectors.rows(); ++i)
      ASSERT_EQ(got.vectors(i, j), want.vectors(i, j)) << "V(" << i << "," << j << ")";
}

// The full-spectrum Bisection solver is the window routine on [0, n - 1].
TEST(Partial, FullWindowMatchesBisectionSolveBitwise) {
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 8);
  tc::Fp32Engine fp32;
  tc::TcEngine tc16(tc::TcPrecision::Fp16);
  for (tc::GemmEngine* eng : {static_cast<tc::GemmEngine*>(&fp32),
                              static_cast<tc::GemmEngine*>(&tc16)})
    for (evd::Reduction red : {evd::Reduction::TwoStageWy, evd::Reduction::TwoStageDbr}) {
      SCOPED_TRACE(std::string(eng->name()) +
                   (red == evd::Reduction::TwoStageWy ? " / wy" : " / dbr"));
      Context ctx(*eng);
      evd::EvdOptions opt;
      opt.reduction = red;
      opt.bandwidth = 8;
      opt.big_block = 32;
      opt.vectors = true;
      auto window = evd::solve_selected(a.view(), ctx, opt, 0, n - 1);
      opt.solver = evd::TriSolver::Bisection;
      auto full = evd::solve(a.view(), ctx, opt);
      ASSERT_TRUE(window.ok()) << window.status().to_string();
      ASSERT_TRUE(full.ok()) << full.status().to_string();
      expect_bitwise_equal(*window, *full);
    }
}

TEST(Partial, LookaheadWindowMatchesSerialBitwise) {
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 9);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  opt.vectors = true;
  auto serial = evd::solve_selected(a.view(), ctx, opt, 30, 49);
  opt.lookahead = true;
  auto overlapped = evd::solve_selected(a.view(), ctx, opt, 30, 49);
  ASSERT_TRUE(serial.ok() && overlapped.ok());
  expect_bitwise_equal(*overlapped, *serial);
}

// Cluster1 matrices (one small singular value, the rest 1) give a window of
// near-identical tridiagonal eigenvalues; inverse iteration must still return
// orthonormal vectors. Each case returned near-parallel vectors before the
// stein shift/reorthogonalization fix.
struct ClusterCase {
  index_t n, il, iu;
  bool tc;
  std::uint64_t seed;
};

// Names the case in test listings (the default prints the raw bytes,
// padding included).
void PrintTo(const ClusterCase& c, std::ostream* os) {
  *os << "n" << c.n << "_window" << c.il << "-" << c.iu << (c.tc ? "_tc" : "_fp32") << "_seed"
      << c.seed;
}

class PartialCluster : public ::testing::TestWithParam<ClusterCase> {};

TEST_P(PartialCluster, WindowVectorsStayOrthogonal) {
  const ClusterCase c = GetParam();
  Rng rng(c.seed);
  auto a = matgen::generate_f(matgen::MatrixType::Cluster1, c.n, 1e5, rng);
  tc::Fp32Engine fp32;
  tc::TcEngine tc16(tc::TcPrecision::Fp16);
  tc::GemmEngine& eng = c.tc ? static_cast<tc::GemmEngine&>(tc16) : fp32;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.vectors = true;
  auto res = evd::solve_selected(a.view(), ctx, opt, c.il, c.iu);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  ASSERT_EQ(res->vectors.cols(), c.iu - c.il + 1);
  EXPECT_LE(orthogonality_residual<float>(res->vectors.view()),
            verify::thresholds_for(eng.kind(), c.n).orthogonality);
}

INSTANTIATE_TEST_SUITE_P(Cluster1, PartialCluster,
                         ::testing::Values(ClusterCase{48, 4, 30, true, 273},
                                           ClusterCase{48, 4, 30, false, 12},
                                           ClusterCase{96, 48, 75, true, 71},
                                           ClusterCase{96, 48, 75, false, 47}));

}  // namespace
}  // namespace tcevd
