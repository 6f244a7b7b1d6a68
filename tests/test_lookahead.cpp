// Look-ahead WY-SBR (ctest label: lookahead): the overlapped schedule must
// produce the same banded output as the serial schedule, keep the sibling
// arena at steady state, attribute its stages on the context telemetry, and
// survive panel faults fired inside the overlap window.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <vector>

#include "src/common/context.hpp"
#include "src/common/fault.hpp"
#include "src/common/norms.hpp"
#include "src/common/recovery.hpp"
#include "src/common/thread_pool.hpp"
#include "src/evd/evd.hpp"
#include "src/sbr/band.hpp"
#include "src/sbr/sbr.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using sbr::PanelKind;
using sbr::SbrOptions;

struct Shape {
  index_t n, b, nb;
};

// Deliberately awkward shapes: n not a multiple of nb, nb == b, odd n.
const Shape kShapes[] = {
    {96, 8, 32}, {130, 16, 32}, {120, 8, 64}, {64, 4, 16}, {100, 8, 8}, {57, 4, 12},
};

SbrOptions options_for(const Shape& s) {
  SbrOptions opt;
  opt.bandwidth = s.b;
  opt.big_block = s.nb;
  return opt;
}

TEST(Lookahead, BandMatchesSerialAcrossShapes) {
  for (const Shape& s : kShapes) {
    Matrix<float> a = test::random_symmetric<float>(s.n, 0xA11CEu + s.n);
    tc::Fp32Engine engine;
    Context ctx(engine);

    SbrOptions opt = options_for(s);
    opt.lookahead = false;
    auto off = sbr::sbr_wy(a.view(), ctx, opt);
    ASSERT_TRUE(off.ok());
    opt.lookahead = true;
    auto on = sbr::sbr_wy(a.view(), ctx, opt);
    ASSERT_TRUE(on.ok());

    // The split trailing update computes each column independently with the
    // same operands in the same k-order, and the prefactored panel sees
    // bitwise-identical input columns — so the bands agree far inside the
    // acceptance bound ||B_on - B_off||_F <= 1e-5 ||A||_F.
    const double na = frobenius_norm<float>(a.view());
    const double diff =
        frobenius_diff<float>(on->band.view(), off->band.view());
    EXPECT_LE(diff, 1e-5 * na) << "n=" << s.n << " b=" << s.b << " nb=" << s.nb;
    EXPECT_EQ(sbr::band_violation<float>(on->band.view(), s.b), 0.0);

    // The accumulated WY blocks are the same reflectors either way.
    ASSERT_EQ(on->blocks.size(), off->blocks.size());
  }
}

TEST(Lookahead, BandMatchesSerialWithBlockedQrPanels) {
  const Shape s{96, 8, 32};
  Matrix<float> a = test::random_symmetric<float>(s.n, 0xB10CD);
  tc::Fp32Engine engine;
  Context ctx(engine);
  SbrOptions opt = options_for(s);
  opt.panel = PanelKind::BlockedQr;
  opt.lookahead = false;
  auto off = sbr::sbr_wy(a.view(), ctx, opt);
  ASSERT_TRUE(off.ok());
  opt.lookahead = true;
  auto on = sbr::sbr_wy(a.view(), ctx, opt);
  ASSERT_TRUE(on.ok());
  EXPECT_LE(frobenius_diff<float>(on->band.view(), off->band.view()),
            1e-5 * frobenius_norm<float>(a.view()));
}

TEST(Lookahead, TensorCoreEnginePreservesBand) {
  const Shape s{120, 8, 64};
  Matrix<float> a = test::random_symmetric<float>(s.n, 0x7C7C);
  tc::TcEngine engine;
  Context ctx(engine);
  SbrOptions opt = options_for(s);
  opt.lookahead = false;
  auto off = sbr::sbr_wy(a.view(), ctx, opt);
  ASSERT_TRUE(off.ok());
  opt.lookahead = true;
  auto on = sbr::sbr_wy(a.view(), ctx, opt);
  ASSERT_TRUE(on.ok());
  EXPECT_LE(frobenius_diff<float>(on->band.view(), off->band.view()),
            1e-5 * frobenius_norm<float>(a.view()));
}

TEST(Lookahead, SingleBlockNeverOpensOverlapWindow) {
  // One big block exhausts the matrix: the overlap gate (next block viable)
  // must keep the schedule serial and record no overlap stages.
  Matrix<float> a = test::random_symmetric<float>(20, 0x51A6);
  tc::Fp32Engine engine;
  Context ctx(engine);
  SbrOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  opt.lookahead = true;
  auto res = sbr::sbr_wy(a.view(), ctx, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(ctx.telemetry().stage_seconds("sbr.wy.lookahead"), 0.0);
  EXPECT_EQ(ctx.telemetry().stage_seconds("sbr.wy.lookahead.panel"), 0.0);

  opt.lookahead = false;
  auto off = sbr::sbr_wy(a.view(), ctx, opt);
  ASSERT_TRUE(off.ok());
  for (index_t j = 0; j < 20; ++j)
    for (index_t i = 0; i < 20; ++i) EXPECT_EQ(res->band(i, j), off->band(i, j));
}

TEST(Lookahead, StageAttributionLandsOnMainTelemetry) {
  const Shape s{130, 16, 32};  // several big blocks -> several overlap windows
  Matrix<float> a = test::random_symmetric<float>(s.n, 0x57A6E);
  tc::Fp32Engine engine;
  Context ctx(engine);
  SbrOptions opt = options_for(s);
  opt.lookahead = true;
  ASSERT_TRUE(sbr::sbr_wy(a.view(), ctx, opt).ok());

  // absorb_sibling_telemetry folded the caller-side panel stage (recorded on
  // the sibling) back into the main sink, so all three stages are visible
  // here, with matching window/panel call counts.
  const Telemetry& t = ctx.telemetry();
  long window_calls = 0, panel_calls = 0, trailing_calls = 0;
  for (const Telemetry::StageStat& st : t.stages()) {
    if (st.name == "sbr.wy.lookahead") window_calls = st.calls;
    if (st.name == "sbr.wy.lookahead.panel") panel_calls = st.calls;
    if (st.name == "sbr.wy.trailing") trailing_calls = st.calls;
  }
  EXPECT_GT(window_calls, 0);
  EXPECT_EQ(window_calls, panel_calls);
  EXPECT_EQ(window_calls, trailing_calls);
  EXPECT_GT(t.stage_seconds("sbr.wy"), 0.0);

  // The sibling was drained by the absorb: a second run must not double-
  // count stale sibling stages.
  ASSERT_TRUE(ctx.has_lookahead_sibling());
  EXPECT_TRUE(ctx.lookahead_sibling().telemetry().stages().empty());
}

TEST(Lookahead, SiblingArenaReachesSteadyState) {
  const Shape s{130, 16, 32};
  Matrix<float> a = test::random_symmetric<float>(s.n, 0xD00D);
  tc::Fp32Engine engine;
  Context ctx(engine);
  SbrOptions opt = options_for(s);
  opt.lookahead = true;
  ASSERT_TRUE(sbr::sbr_wy(a.view(), ctx, opt).ok());
  ASSERT_TRUE(ctx.has_lookahead_sibling());
  Workspace& sib = ctx.lookahead_sibling().workspace();
  const long spills_after_first = sib.spill_count();
  const std::size_t blocks_after_first = sib.block_count();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(sbr::sbr_wy(a.view(), ctx, opt).ok());
  EXPECT_EQ(sib.spill_count(), spills_after_first);
  EXPECT_EQ(sib.block_count(), blocks_after_first);
  EXPECT_EQ(sib.bytes_in_use(), 0u);  // the cross-block scope was released
  // lookahead_workspace_query must genuinely bound the sibling's peak.
  EXPECT_LE(sib.high_water_mark(), sbr::lookahead_workspace_query(s.n, opt));
}

TEST(Lookahead, PanelFaultInsideOverlapWindowIsRecovered) {
  // Poison the TSQR output of a panel that is factored during the overlap
  // window; the TSQR -> BlockedQr fallback must fire on the caller thread
  // and the note must reach the ambient recovery scope.
  const Shape s{96, 8, 32};
  Matrix<float> a = test::random_symmetric<float>(s.n, 0xFA17);
  tc::Fp32Engine engine;
  Context ctx(engine);
  SbrOptions opt = options_for(s);
  opt.lookahead = true;

  recovery::Scope rscope;
  fault::arm(fault::Site::PanelNan, -1);  // every panel, overlapped ones included
  auto res = sbr::sbr_wy(a.view(), ctx, opt);
  fault::disarm_all();
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(sbr::band_violation<float>(res->band.view(), s.b), 0.0);
  bool noted = false;
  for (const RecoveryEvent& ev : rscope.events())
    if (ev.site == "sbr.panel") noted = true;
  EXPECT_TRUE(noted);
}

TEST(Lookahead, EvdPlumbingMatchesSerialEigenvalues) {
  const index_t n = 96;
  Matrix<float> a = test::random_symmetric<float>(n, 0xE7D);
  tc::Fp32Engine engine;
  Context c_off(engine), c_on(engine);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.vectors = true;
  opt.lookahead = false;
  auto off = evd::solve(a.view(), c_off, opt);
  ASSERT_TRUE(off.ok());
  opt.lookahead = true;
  auto on = evd::solve(a.view(), c_on, opt);
  ASSERT_TRUE(on.ok());
  ASSERT_EQ(on->eigenvalues.size(), off->eigenvalues.size());
  for (std::size_t i = 0; i < on->eigenvalues.size(); ++i)
    EXPECT_NEAR(on->eigenvalues[i], off->eigenvalues[i],
                1e-5f * std::max(1.0f, std::abs(off->eigenvalues[i])));
  EXPECT_LE(evd::eigenpair_residual(a.view(), on->eigenvalues,
                                    ConstMatrixView<float>(on->vectors.view())),
            1e-4);
}

// ---------------------------------------------------------------------------
// Infrastructure the look-ahead schedule rides on.
// ---------------------------------------------------------------------------

TEST(RunPair, RunsBothTasksAndJoins) {
  ThreadPool pool(2);
  int pooled = 0, inlined = 0;
  pool.run_pair([&] { pooled = 1; }, [&] { inlined = 1; });
  EXPECT_EQ(pooled, 1);  // join guarantees both completed before return
  EXPECT_EQ(inlined, 1);
}

TEST(RunPair, WorksOnSingleWorkerPool) {
  // With one worker the pooled half queues behind nothing and the caller's
  // inline half runs concurrently (or first); either way run_pair returns
  // only after both.
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex m;
  for (int i = 0; i < 8; ++i) {
    bool a = false, b = false;
    pool.run_pair([&] { std::lock_guard<std::mutex> l(m); a = true; },
                  [&] { std::lock_guard<std::mutex> l(m); b = true; });
    ASSERT_TRUE(a && b);
  }
}

TEST(RunPair, OverlapPoolIsSharedAndReentrantFromCallers) {
  ThreadPool& pool = overlap_pool();
  EXPECT_GE(pool.size(), 1);
  std::atomic<int> done{0};
  // Concurrent run_pair calls from several threads: tasks queue, never
  // deadlock (callers do not run on the overlap pool itself).
  ThreadPool callers(4);
  callers.parallel_for(8, [&](int, long) {
    pool.run_pair([&] { done.fetch_add(1); }, [&] { done.fetch_add(1); });
  });
  EXPECT_EQ(done.load(), 16);
}

}  // namespace
}  // namespace tcevd
