// Workspace arena and Context plumbing: alignment, scope rewind, spill
// accounting, high-water mark, and the steady-state allocation-regression
// guarantees the Context refactor exists to provide.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/blas/blas.hpp"
#include "src/bulge/bulge_chasing.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/common/context.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/workspace.hpp"
#include "src/sbr/band.hpp"
#include "src/evd/evd.hpp"
#include "src/tensorcore/engine.hpp"
#include "src/tensorcore/tc_gemm.hpp"
#include "src/tsqr/tsqr.hpp"
#include "heap_counter.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

bool aligned(const void* p, std::size_t a) {
  return reinterpret_cast<std::uintptr_t>(p) % a == 0;
}

TEST(Workspace, CheckoutsAreAligned) {
  Workspace ws;
  auto scope = ws.scope();
  for (std::size_t n : {1u, 3u, 63u, 64u, 65u, 1000u}) {
    void* p = ws.alloc_bytes(n);
    EXPECT_TRUE(aligned(p, Workspace::kAlignment)) << "request of " << n << " bytes";
  }
  float* f = scope.alloc<float>(7);
  EXPECT_TRUE(aligned(f, Workspace::kAlignment));
}

TEST(Workspace, MatrixCheckoutIsZeroInitialized) {
  Workspace ws;
  auto scope = ws.scope();
  {
    auto m = scope.matrix<float>(16, 16);
    for (index_t j = 0; j < 16; ++j)
      for (index_t i = 0; i < 16; ++i) m(i, j) = 42.0f;
  }
  // A second checkout reuses the dirtied memory and must still read zero.
  auto scope2 = ws.scope();
  auto m2 = scope2.matrix<float>(16, 16);
  for (index_t j = 0; j < 16; ++j)
    for (index_t i = 0; i < 16; ++i) EXPECT_EQ(m2(i, j), 0.0f);
}

TEST(Workspace, ScopeReleaseRewindsBump) {
  Workspace ws;
  ws.reserve(1 << 16);
  const std::size_t base = ws.bytes_in_use();
  {
    auto scope = ws.scope();
    (void)scope.matrix<float>(32, 32);
    EXPECT_GT(ws.bytes_in_use(), base);
  }
  EXPECT_EQ(ws.bytes_in_use(), base);
}

TEST(Workspace, NestedScopesReleaseLifo) {
  Workspace ws;
  ws.reserve(1 << 16);
  auto outer = ws.scope();
  (void)outer.matrix<float>(8, 8);
  const std::size_t after_outer = ws.bytes_in_use();
  {
    auto inner = ws.scope();
    (void)inner.matrix<float>(64, 64);
    EXPECT_GT(ws.bytes_in_use(), after_outer);
    {
      auto inner2 = ws.scope();
      (void)inner2.alloc<double>(100);
    }
    // inner2 released, inner's checkout still live.
    EXPECT_GT(ws.bytes_in_use(), after_outer);
  }
  EXPECT_EQ(ws.bytes_in_use(), after_outer);
}

TEST(Workspace, SpillAppendsBlockAndScopeReleasesIt) {
  Workspace ws;
  ws.reserve(1 << 12);  // deliberately tiny: the next checkout must spill
  const std::size_t blocks0 = ws.block_count();
  {
    auto scope = ws.scope();
    // Far larger than the reserved block: must spill exactly once.
    (void)scope.alloc<float>((std::size_t{4} << 20) / sizeof(float));
    EXPECT_EQ(ws.block_count(), blocks0 + 1);
    EXPECT_EQ(ws.spill_count(), 1);
  }
  // The spill block survives the scope (capacity is sticky) and is reused:
  // the same request again must NOT add another block.
  const std::size_t blocks1 = ws.block_count();
  {
    auto scope = ws.scope();
    (void)scope.alloc<float>((std::size_t{4} << 20) / sizeof(float));
  }
  EXPECT_EQ(ws.block_count(), blocks1);
  EXPECT_EQ(ws.spill_count(), 1);
}

TEST(Workspace, SpillBlocksHaveMinimumSize) {
  Workspace ws;  // no reserve: first alloc spills
  auto scope = ws.scope();
  (void)scope.alloc<float>(4);
  EXPECT_GE(ws.capacity(), Workspace::kMinBlockBytes);
}

TEST(Workspace, HighWaterMarkTracksPeakNotCurrent) {
  Workspace ws;
  ws.reserve(1 << 16);
  {
    auto scope = ws.scope();
    (void)scope.matrix<float>(50, 50);
  }
  const std::size_t hwm = ws.high_water_mark();
  EXPECT_GE(hwm, 50u * 50u * sizeof(float));
  EXPECT_EQ(ws.bytes_in_use(), 0u);
  // A smaller follow-up checkout must not move the peak.
  {
    auto scope = ws.scope();
    (void)scope.matrix<float>(4, 4);
  }
  EXPECT_EQ(ws.high_water_mark(), hwm);
}

TEST(Workspace, ReserveIsIdempotentAndKeepsCapacity) {
  Workspace ws;
  ws.reserve(1 << 16);
  const std::size_t cap = ws.capacity();
  const std::size_t blocks = ws.block_count();
  ws.reserve(1 << 10);  // smaller: no-op
  ws.reserve(1 << 16);  // equal: no-op
  EXPECT_EQ(ws.capacity(), cap);
  EXPECT_EQ(ws.block_count(), blocks);
}

TEST(Context, OwnsOrBorrowsEngine) {
  tc::Fp32Engine borrowed;
  Context c1(borrowed);
  EXPECT_EQ(&c1.engine(), static_cast<tc::GemmEngine*>(&borrowed));

  Context c2(std::make_unique<tc::Fp32Engine>());
  EXPECT_EQ(c2.engine().kind(), tc::EngineKind::Fp32);
}

TEST(Context, StageTimerAccumulatesByName) {
  tc::Fp32Engine eng;
  Context ctx(eng);
  { StageTimer t(ctx.telemetry(), "stage.a"); }
  { StageTimer t(ctx.telemetry(), "stage.a"); }
  { StageTimer t(ctx.telemetry(), "stage.b"); }
  const auto& stages = ctx.telemetry().stages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(ctx.telemetry().stages()[0].calls, 2);
  EXPECT_GE(ctx.telemetry().stage_seconds("stage.a"), 0.0);
  EXPECT_EQ(ctx.telemetry().stage_seconds("stage.nope"), 0.0);
}

// The allocation-regression guarantee of the refactor: a second evd::solve
// of the same shape on the same Context must not grow the arena at all —
// no new blocks, no spills — regardless of how accurate workspace_query is.
/// A vectors solve through the two-stage DBR reduction at a size (kPooledN)
/// where the TSQR panels have several leaves and the bulge stage overlaps
/// the chase with the pooled Q update on its packed panels.
constexpr index_t kPooledN = 384;
evd::EvdOptions dbr_vectors_options() {
  evd::EvdOptions opt;
  opt.reduction = evd::Reduction::TwoStageDbr;
  opt.bandwidth = 8;
  opt.big_block = 64;
  opt.vectors = true;
  return opt;
}

void expect_steady_state_solve(index_t n, const evd::EvdOptions& opt) {
  SCOPED_TRACE(::testing::Message() << "n=" << n);
  auto a = test::random_symmetric<float>(n, 4242);
  tc::Fp32Engine eng;
  Context ctx(eng);

  auto r1 = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(r1.converged);
  const std::size_t blocks = ctx.workspace().block_count();
  const long spills = ctx.workspace().spill_count();
  const std::size_t hwm = ctx.workspace().high_water_mark();
  EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u);  // every scope closed

  auto r2 = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(r2.converged);
  EXPECT_EQ(ctx.workspace().block_count(), blocks) << "second solve grew the arena";
  EXPECT_EQ(ctx.workspace().spill_count(), spills) << "second solve spilled";
  EXPECT_EQ(ctx.workspace().high_water_mark(), hwm) << "second solve peaked higher";
  EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u);

  // Same eigenvalues both times (the arena is state-free across solves).
  for (std::size_t i = 0; i < r1.eigenvalues.size(); ++i)
    EXPECT_EQ(r1.eigenvalues[i], r2.eigenvalues[i]);
}

TEST(Workspace, SteadyStateEvdSolveReusesArena) {
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.vectors = true;
  opt.solver = evd::TriSolver::Bisection;  // exercises the arena-heavy path
  expect_steady_state_solve(96, opt);
  expect_steady_state_solve(kPooledN, dbr_vectors_options());
}

// solve_many's steady-state contract: a Context reused across a 16-problem
// batch (different matrices, same shape) must rewind the arena to its
// reserved high-water mark between iterations — zero new blocks, zero
// re-spills, stable peak after the first problem — not pay per-problem
// growth. This is the regression guard for the batched driver's "one
// pre-reserved Context per worker" design.
TEST(Workspace, SteadyStateHoldsAcrossSixteenProblemBatch) {
  const index_t n = 72;
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.vectors = true;

  std::size_t blocks = 0, hwm = 0;
  long spills = 0;
  for (int i = 0; i < 16; ++i) {
    auto a = test::random_symmetric<float>(n, 31337 + i);
    auto res = *evd::solve(a.view(), ctx, opt);
    ASSERT_TRUE(res.converged) << "problem " << i;
    EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u) << "problem " << i;
    if (i == 0) {
      blocks = ctx.workspace().block_count();
      spills = ctx.workspace().spill_count();
      hwm = ctx.workspace().high_water_mark();
    } else {
      EXPECT_EQ(ctx.workspace().block_count(), blocks) << "problem " << i << " grew the arena";
      EXPECT_EQ(ctx.workspace().spill_count(), spills) << "problem " << i << " re-spilled";
      EXPECT_EQ(ctx.workspace().high_water_mark(), hwm) << "problem " << i << " peaked higher";
    }
  }
}

// An idle-but-fragmented arena (spills left several too-small blocks)
// consolidates on the next reserve() instead of accreting blocks forever:
// afterwards one block covers max(request, observed peak) and the request
// that used to spill fits without growth.
TEST(Workspace, ReserveConsolidatesFragmentedIdleArena) {
  Workspace ws;
  ws.reserve(1 << 12);
  {
    auto scope = ws.scope();
    (void)scope.alloc<float>((std::size_t{2} << 20) / sizeof(float));  // forced spill
  }
  ASSERT_EQ(ws.spill_count(), 1);
  ASSERT_GE(ws.block_count(), 2u);
  const std::size_t hwm = ws.high_water_mark();

  ws.reserve(std::size_t{3} << 20);  // bigger than any existing block
  EXPECT_EQ(ws.block_count(), 1u) << "idle fragmented blocks were not coalesced";
  EXPECT_GE(ws.capacity(), std::max(std::size_t{3} << 20, hwm));
  {
    auto scope = ws.scope();
    (void)scope.alloc<float>((std::size_t{3} << 20) / sizeof(float));
  }
  EXPECT_EQ(ws.spill_count(), 1) << "the consolidated block re-spilled";
}

// The packed GEMM pipeline's allocation guarantee: once the thread-local pack
// buffers are sized and gemm_pool's workers exist (both happen on the first
// call), a steady-state blas::gemm or tc::tc_gemm performs ZERO heap
// allocations — serial or pooled, any trans combination. Pooled dispatch goes
// through ThreadPool::try_broadcast, which allocates nothing by construction.
TEST(Workspace, SteadyStateGemmAndTcGemmAreAllocationFree) {
  using blas::Trans;
  const index_t n = 160;  // 2n^3 ~ 8.2 Mflop: above the pooling floor
  Rng rng(99);
  Matrix<float> a(n, n), b(n, n), c(n, n);
  fill_normal(rng, a.view());
  fill_normal(rng, b.view());

  // Warm-up: sizes the pack buffers, spawns the pool, rounds once.
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
  tc::tc_gemm(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());

  const std::uint64_t before = test::heap_allocs();
  blas::gemm<float>(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.5f, c.view());
  blas::gemm<float>(Trans::Yes, Trans::No, 1.0f, a.view(), b.view(), 0.5f, c.view());
  blas::gemm<float>(Trans::No, Trans::Yes, 1.0f, a.view(), b.view(), 0.5f, c.view());
  blas::gemm<float>(Trans::Yes, Trans::Yes, 1.0f, a.view(), b.view(), 0.5f, c.view());
  tc::tc_gemm(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.5f, c.view());
  tc::tc_gemm(Trans::Yes, Trans::No, 1.0f, a.view(), b.view(), 0.5f, c.view());
  const std::uint64_t after = test::heap_allocs();
  EXPECT_EQ(after, before) << (after - before)
                           << " heap allocations in steady-state gemm/tc_gemm calls";
}

// The wavefront bulge chase's steady-state allocation budget must equal the
// serial chase's exactly (the two unavoidable result-vector allocations of
// BulgeResult::d/e and nothing else): compact band, progress vector and Q
// support live in the warm workspace arena, lanes fan out through the
// allocation-free try_broadcast, and telemetry stage names are interned on
// the warm-up calls.
TEST(Workspace, SteadyStateWavefrontChaseMatchesSerialAllocations) {
  const index_t n = 128, bw = 8;
  Rng rng(2024);
  Matrix<double> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  sbr::truncate_to_band<double>(a.view(), bw);

  tc::Fp32Engine eng;
  Context ctx(eng);
  ThreadPool pool(3);
  bulge::WavefrontOptions wopt;
  wopt.pool = &pool;

  // Warm-up: sizes the arena, interns the stage names, spins up the pool.
  (void)bulge::bulge_chase_wavefront<double>(ctx, a.view(), bw, wopt);
  (void)bulge::bulge_chase(ctx, a.view(), bw, nullptr);
  const std::size_t blocks = ctx.workspace().block_count();
  const long spills = ctx.workspace().spill_count();

  const std::uint64_t before = test::heap_allocs();
  auto r_wave = bulge::bulge_chase_wavefront<double>(ctx, a.view(), bw, wopt);
  const std::uint64_t mid = test::heap_allocs();
  auto r_serial = bulge::bulge_chase(ctx, a.view(), bw, nullptr);
  const std::uint64_t after = test::heap_allocs();

  EXPECT_EQ(mid - before, after - mid)
      << "wavefront chase allocated " << (mid - before) << " vs serial " << (after - mid);
  EXPECT_EQ(ctx.workspace().block_count(), blocks) << "steady-state chase grew the arena";
  EXPECT_EQ(ctx.workspace().spill_count(), spills) << "steady-state chase spilled";
  EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u);
  for (std::size_t i = 0; i < r_wave.d.size(); ++i)
    EXPECT_EQ(r_wave.d[i], r_serial.d[i]);
}

// With Q, the rotation logs and packed Q panels also come from the warm
// arena and the overlapped Q update fans out through try_broadcast: the
// with-Q chase allocates exactly what the chase without Q does (the d/e
// result vectors) — zero heap allocations for the Q update — in place or
// pooled.
TEST(Workspace, SteadyStateChaseWithQIsAllocationFree) {
  const index_t n = 128, bw = 8;
  Rng rng(2025);
  Matrix<double> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  sbr::truncate_to_band<double>(a.view(), bw);

  tc::Fp32Engine eng;
  Context ctx(eng);
  ThreadPool pool(3);

  // Warm-up: sizes the arena, interns the stage names, spins up the pool.
  Matrix<double> q_warm(n, n);
  auto qv_warm = q_warm.view();
  (void)bulge::bulge_chase(ctx, a.view(), bw, &qv_warm, &pool);
  (void)bulge::bulge_chase(ctx, a.view(), bw, &qv_warm);
  const std::size_t blocks = ctx.workspace().block_count();
  const long spills = ctx.workspace().spill_count();

  // Copies made BEFORE the measured window.
  Matrix<double> q1(n, n), q2(n, n);
  set_identity(q1.view());
  set_identity(q2.view());
  auto qv1 = q1.view();
  auto qv2 = q2.view();
  const std::uint64_t before = test::heap_allocs();
  (void)bulge::bulge_chase(ctx, a.view(), bw, nullptr);
  const std::uint64_t plain = test::heap_allocs() - before;
  const std::uint64_t mid = test::heap_allocs();
  (void)bulge::bulge_chase(ctx, a.view(), bw, &qv1, &pool);
  const std::uint64_t pooled_q = test::heap_allocs() - mid;
  const std::uint64_t mid2 = test::heap_allocs();
  (void)bulge::bulge_chase(ctx, a.view(), bw, &qv2);
  const std::uint64_t serial_q = test::heap_allocs() - mid2;

  EXPECT_EQ(pooled_q, plain) << "the pooled Q update allocated " << (pooled_q - plain);
  EXPECT_EQ(serial_q, plain) << "the in-place Q update allocated " << (serial_q - plain);
  EXPECT_EQ(ctx.workspace().block_count(), blocks) << "steady-state chase grew the arena";
  EXPECT_EQ(ctx.workspace().spill_count(), spills) << "steady-state chase spilled";
  EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) EXPECT_EQ(q1(i, j), q2(i, j));
}

// The DBR panel's TSQR takes every leaf's factors, tau and reflector
// scratch from the arena: a steady-state factorization of a panel tall
// enough for several leaves and combine levels allocates nothing.
TEST(Workspace, SteadyStateTsqrIsAllocationFree) {
  const index_t m = 1024, n = 32;
  Rng rng(2026);
  Matrix<float> a(m, n), q(m, n), r(n, n);
  fill_normal(rng, a.view());
  tc::Fp32Engine eng;
  Context ctx(eng);
  ASSERT_TRUE(tsqr::tsqr_factor(ctx, a.view(), q.view(), r.view()).ok());  // warm-up
  const std::size_t blocks = ctx.workspace().block_count();

  const std::uint64_t before = test::heap_allocs();
  const Status st = tsqr::tsqr_factor(ctx, a.view(), q.view(), r.view());
  const std::uint64_t allocs = test::heap_allocs() - before;
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(allocs, 0u) << "steady-state TSQR allocated " << allocs << " times";
  EXPECT_EQ(ctx.workspace().block_count(), blocks);
}

TEST(Workspace, WorkspaceQueryCoversEvdSolve) {
  // The lwork-style estimate must be an upper bound on the actual peak, so a
  // caller who pre-reserves it sees zero spills from the very first solve.
  const auto expect_covered = [](index_t n, const evd::EvdOptions& opt) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    auto a = test::random_symmetric<float>(n, 77);
    tc::Fp32Engine eng;
    Context ctx(eng);
    ctx.workspace().reserve(evd::workspace_query(n, opt));
    auto res = *evd::solve(a.view(), ctx, opt);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(ctx.workspace().spill_count(), 0) << "workspace_query undersized the arena";
    EXPECT_LE(ctx.workspace().high_water_mark(), evd::workspace_query(n, opt));
    return ctx.telemetry().stage_seconds("bulge.q_update");
  };
  evd::EvdOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 16;
  opt.vectors = true;
  expect_covered(80, opt);
  EXPECT_GT(expect_covered(kPooledN, dbr_vectors_options()), 0.0)
      << "n = " << kPooledN << " should update Q in the bulge chase";
}

}  // namespace
}  // namespace tcevd
