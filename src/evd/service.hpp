// Streaming EVD service: a long-lived, stage-pipelined driver for mixed
// workloads.
//
// Where solve_many takes one same-shape batch and returns when the last
// problem finishes, EvdService accepts an open-ended stream of requests —
// mixed sizes, mixed options, full or selected spectra — and keeps a fixed
// worker pool saturated by interleaving the pipeline stages of many solves:
// each request is a SolveJob (src/evd/solve_job.hpp) that advances one stage
// (reduction -> bulge -> solver -> verify) per scheduling turn, so a worker
// never idles behind one problem's long stage while other requests have
// runnable work. A selected-spectrum request is the same job with an index
// window, stepped through the same stages. Because a job executes the
// identical step sequence as sequential evd::solve (evd::solve_selected for
// a window) on a private Context, per-request results are bitwise-identical
// to those calls — the service changes scheduling, never numerics.
//
// Admission control: at most ServiceOptions::max_in_flight requests may be
// submitted-but-not-completed; past that, submit() blocks (Block) or returns
// ResourceExhausted (Reject). Per-request deadlines and priorities are
// honored at stage boundaries — the scheduler always picks the runnable
// request with the highest priority (ties: earliest deadline, then FIFO),
// and a request whose deadline expires before its next stage begins fails
// with DeadlineExceeded instead of occupying a worker. max_started caps how
// many requests are mid-pipeline at once, bounding the live workspace
// footprint independently of the queue depth.
//
// Contexts are pooled by workspace size-class (workspace_query rounded up to
// a power of two): a request checks a warm Context out of its class, runs
// every stage on it, and returns it, so the steady state of a homogeneous
// stream performs zero arena growth per request — the same contract
// solve_many's per-worker contexts gave one batch, extended across batch
// boundaries. solve_many itself is now a thin synchronous wrapper over this
// service (src/evd/batch.cpp).
//
// Telemetry: per-problem evd.* stages land on the solving Context exactly as
// in a sequential solve; the service additionally records, under its own
// aggregate sink, "service.queue" (admission-to-first-stage wait) and
// "service.stage.<reduction|bulge|solver|finish>" (per-step wall time), each
// both as a StageStat (throughput) and a LatencyStat (histogram quantiles).
// telemetry_snapshot() merges the service sink with every idle pooled
// Context; call it quiescent (after wait_all) for complete numbers.
//
// Thread-safety: submit/wait/wait_all/stats/telemetry_snapshot may be called
// from any thread, concurrently. The submitted matrix view is borrowed and
// must stay alive and unmodified until the request's wait() returns.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/context.hpp"
#include "src/common/matrix.hpp"
#include "src/common/recovery.hpp"
#include "src/common/status.hpp"
#include "src/common/thread_pool.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/solve_job.hpp"

namespace tcevd::evd {

/// What submit() does when max_in_flight requests are already in flight.
enum class OverflowPolicy {
  Block,   ///< block the submitting thread until a slot frees
  Reject,  ///< return ResourceExhausted immediately
};

struct ServiceOptions {
  /// Worker count; 0 picks ThreadPool::hardware_threads().
  int num_threads = 0;
  /// Admission bound: submitted-but-not-completed requests (results awaiting
  /// wait() have already released their slot). Values < 1 clamp to 1.
  int max_in_flight = 256;
  OverflowPolicy overflow = OverflowPolicy::Block;
  /// Cap on requests that are mid-pipeline (first stage begun, not yet
  /// finished) at once — this bounds live workspace arenas, not queue depth.
  /// 0 picks 2 * num_threads: enough spare started work to cover stage-length
  /// imbalance without ballooning resident memory.
  int max_started = 0;
  /// Idle Contexts retained per workspace size-class; an over-limit release
  /// folds the context's telemetry into the service aggregate and frees its
  /// arena. 0 picks num_threads.
  int max_idle_contexts_per_class = 0;
};

/// Per-request configuration: the solve itself plus scheduling attributes.
struct RequestOptions {
  EvdOptions evd;
  /// Partial-spectrum mode: eigenvalue indices [il, iu] (0-based, inclusive),
  /// solved as a windowed SolveJob exactly like evd::solve_selected;
  /// evd.vectors then requests the selected vectors. A window cannot be
  /// verified: evd.verify != Off fails the request with InvalidArgument.
  bool selected = false;
  index_t il = 0;
  index_t iu = 0;
  /// Higher runs first at every scheduling decision (default 0).
  int priority = 0;
  /// Seconds from submit() after which the request fails with
  /// DeadlineExceeded instead of starting its next stage; 0 = no deadline.
  /// Checked at stage boundaries only — a stage in execution is never
  /// interrupted. Ties among equal priorities schedule earliest-deadline
  /// first.
  double deadline_s = 0.0;
};

/// Opaque request handle returned by submit() and claimed by wait().
using RequestId = std::uint64_t;

/// Outcome of one streamed request; mirrors solve_many's ProblemResult.
struct RequestResult {
  Status status;                   ///< Ok => the value fields below are valid
  std::vector<float> eigenvalues;  ///< ascending (iu-il+1 values when selected)
  Matrix<float> vectors;           ///< empty unless evd.vectors
  RecoveryLog recovery;            ///< per-request degradation events
  verify::Report verify;           ///< evd.verify != Off only (full spectrum)
  int worker = -1;                 ///< runner that completed the final stage
  double seconds = 0.0;            ///< first stage start -> completion
  /// 1-based service-wide completion ordinal: request k was the
  /// completion_seq-th to finish. This is the observable the scheduling
  /// tests pin priority/deadline ordering against.
  std::uint64_t completion_seq = 0;
};

struct ServiceStats {
  long submitted = 0;
  long completed = 0;          ///< includes failed and deadline-expired
  long rejected = 0;           ///< Reject-policy admission refusals
  long deadline_expired = 0;   ///< completed with DeadlineExceeded
  int num_threads = 0;
  std::size_t pooled_contexts = 0;  ///< idle Contexts across all size-classes
};

class EvdService {
 public:
  /// `engine` is borrowed, shared by every pooled Context, and must outlive
  /// the service.
  explicit EvdService(tc::GemmEngine& engine, const ServiceOptions& opt = {});
  /// Drains: blocks until every in-flight request completes (unclaimed
  /// results are discarded), then joins the workers.
  ~EvdService();
  EvdService(const EvdService&) = delete;
  EvdService& operator=(const EvdService&) = delete;

  int num_threads() const noexcept { return threads_; }

  /// Enqueue one request. Fails with InvalidArgument (non-square input, bad
  /// selected range) or ResourceExhausted (Reject policy, queue full)
  /// without consuming a slot. `a` is borrowed until wait() returns.
  StatusOr<RequestId> submit(ConstMatrixView<float> a, const RequestOptions& opt = {});

  /// Block until request `id` completes and claim its result (each id may be
  /// waited exactly once; an unknown or already-claimed id returns
  /// InvalidArgument in RequestResult::status).
  RequestResult wait(RequestId id);

  /// Block until no request is in flight (unclaimed results keep waiting for
  /// their wait() calls; they do not hold the service open).
  void wait_all();

  /// Service aggregate (queue/stage throughput + latency histograms) merged
  /// with every idle pooled Context's per-problem telemetry. Contexts bound
  /// to requests still in flight are not included — quiesce first for
  /// complete numbers.
  Telemetry telemetry_snapshot();

  ServiceStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    std::uint32_t gen = 1;  ///< bumped on slot recycle; stale ids never match
    bool in_use = false;
    // Request payload (set by submit).
    std::optional<ConstMatrixView<float>> a;
    RequestOptions opt;
    std::uint64_t seq = 0;  ///< FIFO tiebreaker
    Clock::time_point submit_tp;
    Clock::time_point deadline_tp;
    bool has_deadline = false;
    std::size_t size_class = 0;
    // Execution state (owned by the runner that popped the slot off ready_).
    std::unique_ptr<SolveJob> job;
    std::unique_ptr<Context> ctx;
    bool started = false;
    Clock::time_point start_tp;
    // Completion.
    bool completed = false;
    RequestResult result;
  };

  void runner_loop(int runner);
  /// Index into ready_ of the best runnable request (highest priority,
  /// earliest deadline, lowest seq; expired requests first — their finalize
  /// is cheap and frees a slot), or -1. Fresh requests are runnable only
  /// under the start cap; expired ones always are.
  int pick_ready_locked(Clock::time_point now) const noexcept;
  std::unique_ptr<Context> acquire_context_locked(std::size_t size_class);
  void release_context_locked(std::size_t size_class, std::unique_ptr<Context> ctx);
  /// Mark `req` complete: stop its clock, recycle its context, wake waiters.
  void finalize_locked(Request& req, int runner);

  tc::GemmEngine* engine_;
  ServiceOptions opt_;
  int threads_ = 0;
  int max_started_ = 0;
  int max_idle_per_class_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable sched_cv_;  ///< ready_/started_/stopping_ changed
  std::condition_variable admit_cv_;  ///< in_flight_ dropped below the bound
  std::condition_variable done_cv_;   ///< a request completed
  std::deque<Request> slots_;         ///< stable addresses; recycled via free_slots_
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> ready_;  ///< slots awaiting their next stage
  long in_flight_ = 0;
  int started_ = 0;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
  std::map<std::size_t, std::vector<std::unique_ptr<Context>>> idle_contexts_;
  Telemetry telemetry_;  ///< service.queue / service.stage.* + retired contexts
  long submitted_ = 0;
  long completed_ = 0;
  long rejected_ = 0;
  long expired_ = 0;

  std::unique_ptr<ThreadPool> pool_;  ///< last member: runners touch the above
};

}  // namespace tcevd::evd
