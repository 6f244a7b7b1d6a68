#include "src/bulge/bulge_chasing.hpp"

#include <algorithm>
#include <atomic>

#include "src/bulge/bulge_kernels.hpp"
#include "src/bulge/q_update.hpp"
#include "src/common/context.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/timer.hpp"
#include "src/common/workspace.hpp"

namespace tcevd::bulge {

namespace {

// Peel diagonal d: sweep s zeroes column s of the d-th diagonal and chases
// the resulting bulge off the matrix. The (d, s, k) indexing is shared with
// the wavefront driver (bulge_wavefront.cpp), which runs the same chase_elim
// calls in a dependency-respecting order. `log` (nullable) receives the
// diagonal's rotations in serial (s, k) order.
template <typename T>
void chase_diagonal(detail::BandView<T> band, index_t d, T* log) {
  for (index_t s = 0; s + d < band.n; ++s) {
    const index_t len = detail::sweep_length(band.n, d, s);
    for (index_t k = 0; k < len; ++k) detail::chase_elim(band, d, s, k, log);
    if (log != nullptr) log += 2 * len;
  }
}

// One broadcast of the overlapped route. Index 0 chases diagonal chase_d
// into its log; every index (index 0 once its chase is done) then claims Q
// panels and packs, applies diagonal apply_d to, and unpacks each as asked.
// Lanes touch disjoint panels and write only their own fields here; the
// caller reads the times after the join, so lanes never touch Telemetry.
template <typename T>
struct OverlapStep {
  detail::BandView<T> band;
  const QUpdate<T>* qu = nullptr;
  index_t chase_d = 0;  // 0: no chase in this step
  index_t apply_d = 0;  // 0: no rotations in this step
  bool pack = false;
  bool unpack = false;
  Timer start;
  double chase_s = 0.0;
  std::atomic<index_t> next_panel{0};
  std::atomic<double> q_done_s{0.0};  // latest panel finish, from start

  static void lane(void* self, long index) {
    auto& st = *static_cast<OverlapStep*>(self);
    if (index == 0 && st.chase_d != 0) {
      Timer t;
      chase_diagonal(st.band, st.chase_d, st.qu->log(st.chase_d));
      st.chase_s = t.seconds();
    }
    bool worked = false;
    for (index_t p = st.next_panel.fetch_add(1, std::memory_order_relaxed);
         p < st.qu->panels(); p = st.next_panel.fetch_add(1, std::memory_order_relaxed)) {
      if (st.pack) st.qu->pack(p);
      if (st.apply_d != 0) st.qu->apply(p, st.apply_d);
      if (st.unpack) st.qu->unpack(p);
      worked = true;
    }
    if (!worked) return;
    const double done = st.start.seconds();
    double seen = st.q_done_s.load(std::memory_order_relaxed);
    while (seen < done &&
           !st.q_done_s.compare_exchange_weak(seen, done, std::memory_order_relaxed)) {
    }
  }
};

// The with-Q routes' split, once per chase: the chase's own time and the Q
// update's (under overlap, its critical path; the two ran concurrently).
void record_times(Telemetry* telemetry, double chase_seconds, double q_seconds) {
  if (telemetry == nullptr) return;
  telemetry->record_stage("bulge.chase.sweep", chase_seconds);
  telemetry->record_stage("bulge.q_update", q_seconds);
}

// Overlapped route: chase dmax while the lanes pack Q, then per diagonal d
// chase d - 1 while the lanes apply d; the last step also unpacks. A
// declined broadcast runs the step's indices in order on the caller.
template <typename T>
void chase_overlapped(detail::BandView<T> band, index_t dmax, MatrixView<T> q, Workspace& ws,
                      Telemetry* telemetry, ThreadPool& pool, long lanes) {
  const QUpdate<T> qu(q, ws, /*packed=*/true);
  const long count = std::min<long>(lanes, static_cast<long>(qu.panels()) + 1);
  double chase_seconds = 0.0;
  double q_seconds = 0.0;
  for (index_t d = dmax + 1; d >= 2; --d) {
    OverlapStep<T> st;
    st.band = band;
    st.qu = &qu;
    st.chase_d = d - 1 >= 2 ? d - 1 : 0;
    st.apply_d = d <= dmax ? d : 0;
    st.pack = d > dmax;
    st.unpack = d == 2;
    if (!pool.try_broadcast(count, &OverlapStep<T>::lane, &st)) {
      for (long i = 0; i < count; ++i) OverlapStep<T>::lane(&st, i);
    }
    chase_seconds += st.chase_s;
    q_seconds += st.q_done_s.load(std::memory_order_relaxed);
  }
  record_times(telemetry, chase_seconds, q_seconds);
}

// In-place route: one lane chases each diagonal, then rotates Q's strips.
template <typename T>
void chase_in_place(detail::BandView<T> band, index_t dmax, MatrixView<T> q, Workspace& ws,
                    Telemetry* telemetry) {
  const QUpdate<T> qu(q, ws, /*packed=*/false);
  double chase_seconds = 0.0;
  double q_seconds = 0.0;
  for (index_t d = dmax; d >= 2; --d) {
    Timer t;
    chase_diagonal(band, d, qu.log(d));
    chase_seconds += t.seconds();
    t.reset();
    qu.apply_in_place(d);
    q_seconds += t.seconds();
  }
  record_times(telemetry, chase_seconds, q_seconds);
}

template <typename T>
BulgeResult<T> chase_serial(ConstMatrixView<T> a, index_t bw, MatrixView<T>* q, Workspace& ws,
                            Telemetry* telemetry, ThreadPool* pool, int max_lanes) {
  const index_t n = a.rows();
  TCEVD_CHECK(a.cols() == n, "bulge_chase requires a square matrix");
  TCEVD_CHECK(bw >= 1, "bulge_chase bandwidth must be >= 1");
  if (q) TCEVD_CHECK(q->cols() == n, "bulge_chase Q must have n columns");

  Workspace::Scope scope(ws);
  const detail::BandView<T> band = detail::load_band(a, bw, ws);
  // Peel diagonals d = dmax, dmax-1, ..., 2 (distance-1 entries remain).
  const index_t dmax = std::min(bw, n - 1);
  long lanes = 1;
  if (pool != nullptr && !ThreadPool::on_worker_thread()) {
    lanes = static_cast<long>(pool->size()) + 1;
    if (max_lanes > 0) lanes = std::min<long>(lanes, max_lanes);
  }
  if (q == nullptr || dmax < 2) {
    for (index_t d = dmax; d >= 2; --d) chase_diagonal<T>(band, d, nullptr);
  } else if (lanes > 1 && q->rows() > 0) {
    chase_overlapped(band, dmax, *q, ws, telemetry, *pool, lanes);
  } else {
    chase_in_place(band, dmax, *q, ws, telemetry);
  }

  BulgeResult<T> out;
  detail::extract_tridiag(band, out.d, out.e);
  return out;
}

}  // namespace

template <typename T>
BulgeResult<T> bulge_chase(ConstMatrixView<T> a, index_t bw, MatrixView<T>* q) {
  Workspace ws;  // holds the compact band and the rotation log
  return chase_serial(a, bw, q, ws, nullptr, nullptr, 1);
}

template BulgeResult<float> bulge_chase<float>(ConstMatrixView<float>, index_t,
                                               MatrixView<float>*);
template BulgeResult<double> bulge_chase<double>(ConstMatrixView<double>, index_t,
                                                 MatrixView<double>*);

BulgeResult<float> bulge_chase(Context& ctx, ConstMatrixView<float> a, index_t bw,
                               MatrixView<float>* q, ThreadPool* pool, int max_lanes) {
  StageTimer stage(ctx.telemetry(), "bulge.chase");
  return chase_serial(a, bw, q, ctx.workspace(), &ctx.telemetry(), pool, max_lanes);
}

BulgeResult<double> bulge_chase(Context& ctx, ConstMatrixView<double> a, index_t bw,
                                MatrixView<double>* q, ThreadPool* pool, int max_lanes) {
  StageTimer stage(ctx.telemetry(), "bulge.chase");
  return chase_serial(a, bw, q, ctx.workspace(), &ctx.telemetry(), pool, max_lanes);
}

}  // namespace tcevd::bulge
