// Concurrency stress layer (ctest label: stress; run in the sanitizer CI
// jobs and locally under -DTCEVD_SANITIZE=thread): many threads hammering
// ONE shared GemmEngine through independent per-thread Contexts.
//
// This pins the library's thread-safety contract — engines are stateless per
// call (their one diagnostic counter is atomic) and shareable, while every
// piece of per-solve mutable state (workspace arena, telemetry, recovery
// scope) lives on a thread-private Context. The pre-PR-2 design recorded
// GEMM shapes on the engine itself; this test's shared-engine +
// recording-contexts pattern is exactly the workload that raced there and
// would catch a regression to engine-held state.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>

#include "src/blas/blas.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/bulge/bulge_chasing.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/evd/batch.hpp"
#include "src/evd/evd.hpp"
#include "src/sbr/band.hpp"
#include "src/sbr/sbr.hpp"
#include "src/tensorcore/engine.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

constexpr int kThreads = 8;

// Randomized problem shape: n in [16, 80], band half-width b, big block nb a
// multiple of b — deliberately including odd n and n not divisible by nb.
struct Shape {
  index_t n, b, nb;
};

Shape random_shape(Rng& rng) {
  Shape s;
  s.n = 16 + static_cast<index_t>(rng.bounded(65));
  const index_t bs[] = {2, 4, 8, 16};
  s.b = bs[static_cast<std::size_t>(rng.bounded(4))];
  s.nb = s.b * static_cast<index_t>(1 + rng.bounded(4));
  return s;
}

// ---------------------------------------------------------------------------
// 8 threads x 1 shared engine x per-thread Contexts, full EVD pipeline.
// ---------------------------------------------------------------------------

class SharedEngineStress : public ::testing::TestWithParam<const char*> {};

TEST_P(SharedEngineStress, ConcurrentSolvesOnOneEngineStayCorrect) {
  const std::string which = GetParam();
  tc::Fp32Engine fp32;
  tc::TcEngine tcfp16(tc::TcPrecision::Fp16);
  tc::EcTcEngine ectc(tc::TcPrecision::Fp16);
  tc::GemmEngine& engine = which == "fp32" ? static_cast<tc::GemmEngine&>(fp32)
                           : which == "tc" ? static_cast<tc::GemmEngine&>(tcfp16)
                                           : static_cast<tc::GemmEngine&>(ectc);

  const long tasks = 48;
  std::atomic<long> failures{0};
  ThreadPool pool(kThreads);
  pool.parallel_for(tasks, [&](int /*worker*/, long i) {
    // Fresh Context per task (not per worker) to also stress construction /
    // teardown interleaving against the shared engine.
    Rng rng(0x5EED0000u + static_cast<std::uint64_t>(i));
    const Shape s = random_shape(rng);
    Matrix<float> a(s.n, s.n);
    fill_normal(rng, a.view());
    make_symmetric(a.view());

    double trace = 0.0;
    for (index_t k = 0; k < s.n; ++k) trace += a(k, k);

    Context ctx(engine);
    ctx.telemetry().set_recording(true);  // per-context recording must not race
    evd::EvdOptions opt;
    opt.bandwidth = s.b;
    opt.big_block = s.nb;
    opt.vectors = (i % 3 == 0);
    // Half the tasks run the overlapped look-ahead schedule, so the TSan CI
    // job sees the run_pair window (sibling arena + split telemetry) under
    // shared-engine contention.
    opt.lookahead = (i % 2 == 0);
    auto res = evd::solve(a.view(), ctx, opt);
    if (!res.ok() || !res->converged) {
      failures.fetch_add(1);
      return;
    }
    // Cheap per-task invariant: eigenvalue sum == trace.
    double sum = 0.0;
    for (float v : res->eigenvalues) sum += v;
    if (std::abs(sum - trace) > 1e-2 * std::max(1.0, std::abs(trace)) + 1e-2 * s.n)
      failures.fetch_add(1);
    if (ctx.telemetry().recorded().empty()) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Engines, SharedEngineStress,
                         ::testing::Values("fp32", "tc", "ectc"));

// ---------------------------------------------------------------------------
// Long-lived per-worker Contexts reused across many randomized SBR shapes:
// the "one context per thread" contract under arena reuse.
// ---------------------------------------------------------------------------

TEST(SharedEngineStressFixture, ReusedContextsAcrossRandomSbrShapes) {
  tc::EcTcEngine engine;
  ThreadPool pool(kThreads);
  std::atomic<long> failures{0};

  // One Context per worker, built up front and reused for every task that
  // worker steals — the exact shape of the batched driver's inner loop.
  std::deque<Context> contexts;
  for (int w = 0; w < kThreads; ++w) contexts.emplace_back(engine);

  const long tasks = 64;
  pool.parallel_for(tasks, [&](int worker, long i) {
    Rng rng(0xABCD0000u + static_cast<std::uint64_t>(i));
    const Shape s = random_shape(rng);
    Matrix<float> a(s.n, s.n);
    fill_normal(rng, a.view());
    make_symmetric(a.view());

    Context& ctx = contexts[static_cast<std::size_t>(worker)];
    sbr::SbrOptions opt;
    opt.bandwidth = std::min<index_t>(s.b, s.n - 1);
    opt.big_block = std::max<index_t>(s.nb, opt.bandwidth);
    opt.big_block -= opt.big_block % opt.bandwidth;
    opt.lookahead = (i % 2 == 0);  // exercise the overlap window under TSan
    auto res = sbr::sbr_wy(a.view(), ctx, opt);
    if (!res.ok()) {
      failures.fetch_add(1);
      return;
    }
    // Band postcondition + orthogonal-similarity norm preservation.
    if (sbr::band_violation<float>(res->band.view(), opt.bandwidth) != 0.0)
      failures.fetch_add(1);
    const double fa = frobenius_norm<float>(a.view());
    if (std::abs(frobenius_norm<float>(res->band.view()) - fa) > 1e-3 * fa)
      failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);

  // Every worker context closed all its scopes.
  for (Context& ctx : contexts) EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u);
}

// ---------------------------------------------------------------------------
// solve_many itself under thread churn: repeated batches on one engine, with
// the shared EC-TC fallback counter read concurrently.
// ---------------------------------------------------------------------------

TEST(SharedEngineStressFixture, RepeatedBatchesKeepEngineConsistent) {
  tc::EcTcEngine engine;
  const index_t n = 40;
  std::vector<Matrix<float>> batch;
  for (int i = 0; i < 12; ++i) batch.push_back(test::random_symmetric<float>(n, 7100 + i));

  evd::BatchOptions bopt;
  bopt.evd.bandwidth = 8;
  bopt.evd.big_block = 16;
  bopt.num_threads = kThreads;

  std::vector<float> first;
  for (int round = 0; round < 3; ++round) {
    auto res = evd::solve_many(batch, engine, bopt);
    ASSERT_TRUE(res.all_ok()) << "round " << round;
    if (round == 0) {
      first = res.problems[0].eigenvalues;
    } else {
      // Shared-engine state must not leak between rounds: bitwise identical.
      for (std::size_t j = 0; j < first.size(); ++j)
        EXPECT_EQ(res.problems[0].eigenvalues[j], first[j]) << "round " << round;
    }
    EXPECT_GE(engine.fp32_fallbacks(), 0L);  // concurrent-read smoke check
  }
}

// ---------------------------------------------------------------------------
// Nested-oversubscription guard: while a batch (or any pool worker) is
// running solves, the GEMMs inside them must take the serial tile loop
// instead of fanning out on gemm_pool — the batch pool owns the machine at
// its level. The toggle contrast: the same large GEMM issued from the main
// thread afterwards DOES dispatch to gemm_pool.
// ---------------------------------------------------------------------------

TEST(SharedEngineStressFixture, GemmPoolStandsDownUnderBatchWorkers) {
  tc::Fp32Engine engine;
  const index_t n = 200;  // big enough that its GEMMs clear the pooling floor
  std::vector<Matrix<float>> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(test::random_symmetric<float>(n, 9200 + i));

  evd::BatchOptions bopt;
  bopt.evd.bandwidth = 16;
  bopt.evd.big_block = 32;
  bopt.evd.lookahead = true;  // cover the run_pair window's stand-down too
  bopt.num_threads = kThreads;

  const auto before = blas::gemm_pool_dispatches();
  auto res = evd::solve_many(batch, engine, bopt);
  ASSERT_TRUE(res.all_ok());
  EXPECT_EQ(blas::gemm_pool_dispatches(), before)
      << "a GEMM nested under a batch worker fanned out on gemm_pool";

  // Toggle: the identical shape from the main thread is allowed to pool.
  Matrix<float> c(n, n);
  blas::gemm<float>(blas::Trans::Yes, blas::Trans::No, 1.0f, batch[0].view(),
                    batch[1].view(), 0.0f, c.view());
  EXPECT_GT(blas::gemm_pool_dispatches(), before);
}

// Regression for the stale-worker broadcast race: a worker's final
// exhaustion-probe fetch_add on the claim counter can interleave with the
// NEXT broadcast's setup (gemm_packed issues broadcasts back-to-back with
// varying tile counts per macro block). Before the epoch-stamped ticket, that
// straggler could re-claim an index into the new broadcast (an index run
// twice — silent C-tile corruption), read fn/ctx/count mid-rewrite (UB /
// dead-stack ctx), or over-increment `done` past count (caller hang). The
// hammer below drives thousands of back-to-back broadcasts through one
// oversubscribed pool (more workers than cores, so stragglers get preempted
// mid-probe) with counts alternating between 1 and larger — small counts
// maximize the probe-vs-setup overlap window — and asserts every index of
// every round runs exactly once. Run under TSan in the sanitizer CI leg.
TEST(BroadcastStress, BackToBackBroadcastsRunEachIndexExactlyOnce) {
  ThreadPool pool(2 * kThreads);
  constexpr long kMaxCount = 64;
  constexpr int kRounds = 20000;
  struct Ctx {
    std::atomic<int> hits[kMaxCount];
  };
  // ctx lives on this frame and is re-zeroed per round, mimicking the
  // per-macro-block stack TileCtx in gemm_packed.
  Ctx ctx;
  for (int r = 0; r < kRounds; ++r) {
    const long count = (r % 2 == 0) ? 1 : 1 + (r % kMaxCount);
    for (long i = 0; i < count; ++i) ctx.hits[i].store(0, std::memory_order_relaxed);
    const bool ran = pool.try_broadcast(
        count,
        [](void* c, long i) {
          static_cast<Ctx*>(c)->hits[i].fetch_add(1, std::memory_order_relaxed);
        },
        &ctx);
    ASSERT_TRUE(ran) << "single-caller broadcast reported the pool busy";
    for (long i = 0; i < count; ++i)
      ASSERT_EQ(ctx.hits[i].load(std::memory_order_relaxed), 1)
          << "round " << r << " index " << i << " of " << count;
  }
}

// Regression for worker attrition: a worker woken for a broadcast whose
// indices the other participants claimed before it re-checked fell through
// to the stop path and exited, so a long-lived pool (gemm_pool) lost its
// workers one by one and every later fan-out ran on fewer threads — with the
// same results, which is why only a liveness check catches it. After a burst
// of back-to-back broadcasts, all size() workers must still run tasks that
// wait for each other.
TEST(BroadcastStress, WorkersSurviveBackToBackBroadcasts) {
  // Declared before the pool: tasks still queued when the pool is destroyed
  // run in its destructor and use these.
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  int met = 0;
  ThreadPool pool(kThreads);
  for (int r = 0; r < 20000; ++r) {
    ASSERT_TRUE(pool.try_broadcast(2, [](void*, long) {}, nullptr));
  }
  const int workers = pool.size();
  for (int w = 0; w < workers; ++w) {
    pool.submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      ++arrived;
      cv.notify_all();
      if (cv.wait_for(lock, std::chrono::seconds(5), [&] { return arrived == workers; })) ++met;
      cv.notify_all();
    });
  }
  // Bounded wait: with dead workers the queued tasks may never run.
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait_for(lock, std::chrono::seconds(30), [&] { return met == workers; });
  EXPECT_EQ(met, workers) << arrived << " of " << workers
                          << " workers ran after the broadcasts";
}

// ---------------------------------------------------------------------------
// Parallel bulge chasing under contention: repeated chases broadcasting on a
// shared pool while solve_many traffic churns on ANOTHER pool's workers. The
// wavefront's progress-vector spins, per-chunk release publishes and block
// ticket, and the overlapped Q update's panel claims and double-buffered
// rotation logs, all run with lanes preempted mid-step (oversubscribed
// machine), and every chase must still be bitwise-equal to the serial
// reference. Run under TSan in CI — the acquire/release protocol on the
// progress vector and the broadcast joins between diagonals are the
// happens-before spine both schedules lean on.
// ---------------------------------------------------------------------------

TEST(BulgeWavefrontStress, RepeatedChasesUnderConcurrentSolveTraffic) {
  tc::Fp32Engine engine;

  // Background solve_many traffic on its own pool, kept alive for the whole
  // hammer via a submitted task.
  ThreadPool traffic_pool(kThreads / 2);
  std::atomic<bool> stop_traffic{false};
  std::atomic<long> traffic_failures{0};
  traffic_pool.submit([&] {
    std::vector<Matrix<float>> batch;
    for (int i = 0; i < 6; ++i) batch.push_back(test::random_symmetric<float>(36, 4400 + i));
    evd::BatchOptions bopt;
    bopt.evd.bandwidth = 4;
    bopt.evd.big_block = 8;
    bopt.num_threads = 2;
    while (!stop_traffic.load(std::memory_order_relaxed)) {
      auto res = evd::solve_many(batch, engine, bopt);
      if (!res.all_ok()) traffic_failures.fetch_add(1);
    }
  });

  // The chase hammer: one broadcast pool, many back-to-back chases with
  // varying shapes and blocking, each checked bitwise against serial.
  ThreadPool chase_pool(kThreads);
  Context ctx(engine);
  long mismatches = 0;
  for (int round = 0; round < 40; ++round) {
    Rng rng(0xBC0DE000u + static_cast<std::uint64_t>(round));
    const index_t n = 48 + static_cast<index_t>(rng.bounded(80));
    const index_t bws[] = {2, 3, 8};
    const index_t bw = bws[static_cast<std::size_t>(rng.bounded(3))];
    Matrix<double> a(n, n);
    fill_normal(rng, a.view());
    make_symmetric(a.view());
    sbr::truncate_to_band<double>(a.view(), bw);

    Matrix<double> q_serial(n, n), q_wave(n, n);
    set_identity(q_serial.view());
    set_identity(q_wave.view());
    auto qs = q_serial.view();
    auto ref = bulge::bulge_chase<double>(a.view(), bw, &qs);

    bulge::WavefrontOptions wopt;
    wopt.pool = &chase_pool;
    wopt.sweep_block = 1 + static_cast<index_t>(rng.bounded(8));
    wopt.tile_rows = 1 + static_cast<index_t>(rng.bounded(192));
    auto wave = bulge::bulge_chase_wavefront<double>(ctx, a.view(), bw, wopt);

    auto qw = q_wave.view();
    const int lanes = 2 + static_cast<int>(rng.bounded(kThreads));
    auto got = bulge::bulge_chase(ctx, a.view(), bw, &qw, &chase_pool, lanes);

    for (const auto* res : {&wave, &got}) {
      for (std::size_t i = 0; i < ref.d.size(); ++i)
        if (ref.d[i] != res->d[i]) ++mismatches;
      for (std::size_t i = 0; i < ref.e.size(); ++i)
        if (ref.e[i] != res->e[i]) ++mismatches;
    }
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i)
        if (q_serial(i, j) != q_wave(i, j)) ++mismatches;
  }
  stop_traffic.store(true);
  traffic_pool.wait_idle();

  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(traffic_failures.load(), 0);
  EXPECT_EQ(ctx.workspace().bytes_in_use(), 0u);
}

}  // namespace
}  // namespace tcevd
