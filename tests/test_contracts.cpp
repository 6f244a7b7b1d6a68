// Contract enforcement: invalid arguments must trip TCEVD_CHECK (abort with
// a diagnostic) rather than corrupt memory or return garbage. Recoverable
// runtime conditions (non-convergence, singular panels, bad numerical input)
// are NOT contracts — they return Status and are covered in test_fault.cpp.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "src/common/context.hpp"
#include "src/common/recovery.hpp"
#include "src/blas/blas.hpp"
#include "src/evd/evd.hpp"
#include "src/sbr/sbr.hpp"
#include "src/svd/svd.hpp"
#include "src/tsqr/tsqr.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

class ContractsDeath : public ::testing::Test {
 protected:
  void SetUp() override { testing::FLAGS_gtest_death_test_style = "threadsafe"; }
};

TEST_F(ContractsDeath, GemmShapeMismatchAborts) {
  Matrix<float> a(4, 5), b(6, 3), c(4, 3);  // inner dims disagree
  EXPECT_DEATH(blas::gemm(blas::Trans::No, blas::Trans::No, 1.0f, a.view(), b.view(), 0.0f,
                          c.view()),
               "gemm shape mismatch");
}

TEST_F(ContractsDeath, TrsmNonSquareTriangularAborts) {
  Matrix<float> a(4, 4), b(5, 3);
  EXPECT_DEATH(blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::No,
                          blas::Diag::NonUnit, 1.0f, a.view(), b.view()),
               "triangular factor shape mismatch");
}

// Option inconsistencies are no longer process aborts: since the detached
// band reduction decoupled bandwidth from big_block, the SBR entry points
// validate caller options and return InvalidArgument (or round down with a
// recovery note for a non-multiple big_block). See tests/test_dbr.cpp for
// the full validation matrix; the Status form is pinned here so the old
// death contract can't silently come back.
// A non-square input is InvalidArgument too; tests/test_sbr.cpp covers
// each driver (SbrInvalidInput.*).
TEST(Contracts, SbrBandwidthOutOfRangeIsInvalidArgument) {
  auto a = test::random_symmetric<float>(8, 1);
  tc::Fp32Engine eng;
  Context ctx(eng);
  sbr::SbrOptions opt;
  opt.bandwidth = 8;  // must be < n
  auto res = sbr::sbr_wy(a.view(), ctx, opt);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(res.status().message().find("bandwidth"), std::string::npos);
}

TEST(Contracts, SbrBigBlockNotMultipleRoundsDown) {
  auto a = test::random_symmetric<float>(64, 2);
  tc::Fp32Engine eng;
  Context ctx(eng);
  sbr::SbrOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 12;  // not a multiple of 8: rounds down to 8, with a note
  recovery::Scope scope;
  auto res = sbr::sbr_wy(a.view(), ctx, opt);
  ASSERT_TRUE(res.ok());
  RecoveryLog log = scope.take();
  bool noted = false;
  for (const RecoveryEvent& ev : log) noted = noted || ev.site == "sbr.options";
  EXPECT_TRUE(noted);
}

TEST_F(ContractsDeath, TsqrWideInputAborts) {
  Matrix<float> a(4, 8), q(4, 8), r(8, 8);
  EXPECT_DEATH((void)tsqr::tsqr_factor(a.view(), q.view(), r.view()), "tall");
}

// Bisection with vectors is no longer a contract violation: the solver
// computes vectors via stein + back-transform (so the fallback chain is
// uniform). The positive-path test lives in test_fault.cpp.

// A bad index window is request data, not a programmer contract: batch and
// streaming drivers feed per-request ranges and must be able to reject one
// bad request without taking the process down. Pinned as a Status like the
// SBR option checks above so the old death contract can't come back.
TEST(Contracts, PartialBadRangeIsInvalidArgument) {
  auto a = test::random_symmetric<float>(16, 4);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  for (auto [il, iu] : {std::pair<index_t, index_t>{5, 2},   // inverted window
                        std::pair<index_t, index_t>{-1, 2},  // negative start
                        std::pair<index_t, index_t>{0, 16}}) {  // iu == n
    auto res = evd::solve_selected(a.view(), ctx, opt, il, iu);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(res.status().message().find("range"), std::string::npos);
  }
}

// A non-square matrix is request data too: both drivers return a Status.
TEST(Contracts, NonSquareSolveIsInvalidArgument) {
  Matrix<float> rect(6, 4);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  auto full = evd::solve(rect.view(), ctx, opt);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(full.status().message().find("not square"), std::string::npos);
  auto sel = evd::solve_selected(rect.view(), ctx, opt, 0, 1);
  ASSERT_FALSE(sel.ok());
  EXPECT_EQ(sel.status().code(), ErrorCode::InvalidArgument);
}

// Verification estimates need the full eigensystem, so a windowed solve with
// a verify policy is refused instead of silently returning unverified.
TEST(Contracts, VerifiedWindowIsInvalidArgument) {
  auto a = test::random_symmetric<float>(16, 4);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  for (verify::Policy policy : {verify::Policy::Estimate, verify::Policy::EstimateEscalate}) {
    opt.verify = policy;
    auto res = evd::solve_selected(a.view(), ctx, opt, 0, 3);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(res.status().message().find("verif"), std::string::npos);
  }
}

// Windowed solves get the same input screen as full ones.
TEST(Contracts, NanInputToSolveSelectedIsInvalidInput) {
  auto a = test::random_symmetric<float>(16, 4);
  a(3, 5) = std::numeric_limits<float>::quiet_NaN();
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto res = evd::solve_selected(a.view(), ctx, {}, 0, 3);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), ErrorCode::InvalidInput);
}

TEST_F(ContractsDeath, SvdWideInputAborts) {
  Matrix<float> a(4, 9);
  tc::Fp32Engine eng;
  Context ctx(eng);
  EXPECT_DEATH((void)svd::svd_via_evd(a.view(), ctx), "m >= n");
}

TEST_F(ContractsDeath, MatrixNegativeDimensionAborts) {
  EXPECT_DEATH(Matrix<float>(-1, 3), "nonnegative");
}

}  // namespace
}  // namespace tcevd
