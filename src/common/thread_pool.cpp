#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#include "src/common/check.hpp"

namespace tcevd {

namespace {
// Set for the lifetime of every pool worker thread (any pool). File-static so
// the flag is shared across all ThreadPool instances in the process.
thread_local bool t_on_pool_worker = false;
}  // namespace

bool ThreadPool::on_worker_thread() noexcept { return t_on_pool_worker; }

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int w = 0; w < num_threads; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  TCEVD_CHECK(task != nullptr, "ThreadPool::submit requires a non-null task");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TCEVD_CHECK(!stop_, "ThreadPool::submit on a stopping pool");
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::parallel_for(long count,
                              const std::function<void(int worker, long index)>& body) {
  if (count <= 0) return;
  // One looping task per worker; indices are stolen off `state->next` so
  // workers that finish early keep pulling work instead of waiting on a
  // partition. Shared state is refcounted: the last worker to decrement
  // `remaining` may still be unwinding its loop after the caller returns.
  struct State {
    std::atomic<long> next{0};
    std::atomic<long> remaining;
    std::mutex mutex;
    std::condition_variable done;
    explicit State(long n) : remaining(n) {}
  };
  auto state = std::make_shared<State>(count);

  const int tasks = static_cast<int>(std::min<long>(size(), count));
  for (int w = 0; w < tasks; ++w) {
    submit([state, count, &body, w] {
      for (long i = state->next.fetch_add(1, std::memory_order_relaxed); i < count;
           i = state->next.fetch_add(1, std::memory_order_relaxed)) {
        body(w, i);
        if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard<std::mutex> lock(state->mutex);
          state->done.notify_all();
        }
      }
    });
  }
  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&] { return state->remaining.load(std::memory_order_acquire) == 0; });
}

void ThreadPool::run_pair(const std::function<void()>& pooled,
                          const std::function<void()>& inline_task) {
  TCEVD_CHECK(pooled != nullptr && inline_task != nullptr,
              "ThreadPool::run_pair requires two non-null tasks");
  // The caller blocks in this frame until the pooled half finishes, so the
  // task may capture `pooled` by reference; the shared_ptr keeps the join
  // state alive even if the worker is still unwinding after notify.
  struct Join {
    std::mutex mutex;
    std::condition_variable done;
    bool finished = false;
  };
  auto join = std::make_shared<Join>();
  submit([join, &pooled] {
    pooled();
    {
      std::lock_guard<std::mutex> lock(join->mutex);
      join->finished = true;
    }
    join->done.notify_all();
  });
  inline_task();
  std::unique_lock<std::mutex> lock(join->mutex);
  join->done.wait(lock, [&] { return join->finished; });
}

bool ThreadPool::broadcast_live_locked() const noexcept {
  if (!bcast_.active) return false;
  const std::uint64_t t = bcast_.ticket.load(std::memory_order_relaxed);
  return (t >> kBcastIndexBits) == bcast_.epoch &&
         static_cast<long>(t & kBcastIndexMask) < bcast_.count;
}

void ThreadPool::broadcast_participate() {
  // Snapshot the current broadcast under mutex_, so fn/ctx/count are never
  // read while the next broadcast's setup (also under mutex_) rewrites them.
  // Claims then run lock-free off the epoch-stamped ticket; the epoch tells a
  // straggler whether its claim belongs to the broadcast it snapshotted.
  void (*fn)(void*, long) = nullptr;
  void* ctx = nullptr;
  long count = 0;
  std::uint64_t epoch = 0;
  const auto refresh = [&]() -> bool {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!bcast_.active) return false;
    fn = bcast_.fn;
    ctx = bcast_.ctx;
    count = bcast_.count;
    epoch = bcast_.epoch;
    return true;
  };
  if (!refresh()) return;
  for (;;) {
    const std::uint64_t t = bcast_.ticket.fetch_add(1, std::memory_order_acq_rel);
    const std::uint64_t t_epoch = t >> kBcastIndexBits;
    const long i = static_cast<long>(t & kBcastIndexMask);
    if (t_epoch != epoch) {
      // The claim landed in a different broadcast generation than the
      // snapshot. Re-snapshot: if the claimed generation is the one now
      // active, the index is a valid claim into it (its fn/ctx/count were
      // published under mutex_ before its ticket store) — adopt the new
      // snapshot and run it below. Otherwise the claim was an exhaustion
      // probe of a generation that has already fully completed (an
      // in-bounds index of a live generation keeps done < count, which
      // keeps it active), so it is harmless — retry with the fresh
      // snapshot. If no broadcast is active at all, hand back to the
      // worker loop / caller.
      if (!refresh()) return;
      if (t_epoch != epoch) continue;
    }
    if (i >= count) return;  // current broadcast exhausted
    fn(ctx, i);
    if (bcast_.done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
      std::lock_guard<std::mutex> lk(bcast_.done_mutex);
      bcast_.done_cv.notify_all();
    }
  }
}

bool ThreadPool::try_broadcast(long count, void (*fn)(void* ctx, long index), void* ctx) {
  TCEVD_CHECK(fn != nullptr, "ThreadPool::try_broadcast requires a non-null fn");
  if (count <= 0) return true;
  // The index field must also absorb one exhaustion probe per participant
  // without carrying into the epoch bits; tile counts are nowhere near this.
  TCEVD_CHECK(static_cast<std::uint64_t>(count) < kBcastIndexMask / 2,
              "ThreadPool::try_broadcast count exceeds the ticket index field");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || bcast_.active) return false;
    bcast_.active = true;
    bcast_.fn = fn;
    bcast_.ctx = ctx;
    bcast_.count = count;
    bcast_.done.store(0, std::memory_order_relaxed);
    // The epoch lives in the ticket's high bits, so it wraps modulo the
    // field width (ABA would need a straggler parked across 2^32 broadcasts).
    bcast_.epoch = (bcast_.epoch + 1) & kBcastIndexMask;
    // Last setup step: resets the index field to 0 and stamps the new epoch
    // in one store. A straggler fetch_add from the previous broadcast either
    // lands before this store (its increment is simply overwritten) or after
    // (it reads the new epoch and re-snapshots under mutex_ — a valid claim
    // into this broadcast, never a double-claimed or stale index).
    bcast_.ticket.store(bcast_.epoch << kBcastIndexBits, std::memory_order_release);
  }
  work_ready_.notify_all();
  broadcast_participate();  // the caller steals indices too
  {
    std::unique_lock<std::mutex> lk(bcast_.done_mutex);
    bcast_.done_cv.wait(lk, [this, count] {
      return bcast_.done.load(std::memory_order_acquire) >= count;
    });
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bcast_.active = false;
  }
  return true;
}

ThreadPool& overlap_pool() {
  static ThreadPool pool(std::min(4, ThreadPool::hardware_threads()));
  return pool;
}

ThreadPool& gemm_pool() {
  static ThreadPool pool(std::max(1, ThreadPool::hardware_threads() - 1));
  return pool;
}

void spin_wait_hint(int& backoff) noexcept {
  if (backoff < 64) {
    ++backoff;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  } else {
    std::this_thread::yield();
  }
}

int ThreadPool::hardware_threads() noexcept {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int usable = CPU_COUNT(&set);
    if (usable > 0) return usable;
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::worker_loop(int /*worker_id*/) {
  t_on_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock,
                       [this] { return stop_ || !queue_.empty() || broadcast_live_locked(); });
      if (broadcast_live_locked()) {
        lock.unlock();
        broadcast_participate();
        continue;
      }
      if (queue_.empty()) {
        if (stop_) return;  // nothing left to drain
        // Woken for a broadcast whose indices the other participants claimed
        // (lock-free) before this re-check: keep waiting, do not exit.
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_idle_.notify_all();
    }
  }
}

}  // namespace tcevd
