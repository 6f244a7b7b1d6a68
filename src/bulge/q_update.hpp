// The second stage's Q update: the one place that writes Q while a band is
// chased to tridiagonal form.
//
// The chase (bulge_kernels.hpp, chase_elim) does not rotate Q. It logs each
// elimination's (c, s) into a per-diagonal rotation log, and after the
// diagonal is chased the drivers hand the log to QUpdate::apply, which
// right-multiplies Q by the diagonal's rotations in serial (s, k) order. Each
// row of Q is transformed independently, so every element sees the same
// operations in the same order as under an immediate per-rotation update:
// the result is bitwise identical for any split of the rows.
//
// Rows are split into contiguous blocks, one per lane. With more than one
// lane, each block is packed once per chase into a lane-private h x n buffer
// from the workspace arena (column c at buf + c*h), every diagonal's log is
// applied to the buffers in parallel through ThreadPool::try_broadcast, and
// finish() unpacks them. One lane — requested, no pool, a caller that is a
// pool worker, or a pool that declines the packing broadcast — applies the
// log in place on Q with no packing. See DESIGN.md §14 for why the packing is
// the design: in-place row blocks on the shared column-major Q do not scale.
#pragma once

#include <cstddef>

#include "src/blas/simd_dispatch.hpp"
#include "src/common/matrix.hpp"

namespace tcevd {
class Telemetry;
class ThreadPool;
class Workspace;
}  // namespace tcevd

namespace tcevd::bulge {

template <typename T>
class QUpdate {
 public:
  /// Plan the update of q (rows x n, n = q.cols()). Up to `lanes` row blocks
  /// fan out on `pool`. The rotation log and the packed blocks are checked
  /// out of `ws`, so the caller's open Workspace::Scope must outlive this
  /// object. The time spent packing, applying and unpacking is recorded on
  /// `telemetry` (nullable) as stage "bulge.q_update" by finish().
  QUpdate(MatrixView<T> q, Workspace& ws, Telemetry* telemetry, ThreadPool* pool, int lanes);
  QUpdate(const QUpdate&) = delete;
  QUpdate& operator=(const QUpdate&) = delete;

  /// The rotation log the chase fills for one diagonal at a time: room for
  /// detail::diagonal_rotations(n, 2) (c, s) slots, the most any diagonal has.
  T* log() const noexcept { return log_; }
  /// Right-multiply Q by the rotations of peeled diagonal d, read from log()
  /// in serial (s, k) order.
  void apply(index_t d);
  /// Unpack the row blocks into Q and record the stage time. Call once,
  /// after the last apply().
  void finish();

  /// Upper bound on the workspace bytes the update checks out for an n x n
  /// Q: the log and the packed blocks.
  static std::size_t workspace_bytes(index_t n);

 private:
  enum class Op { Pack, Apply, Unpack };
  static void trampoline(void* self, long block);
  void run(Op op);
  void run_block(long block);

  MatrixView<T> q_;
  Telemetry* telemetry_;
  ThreadPool* pool_ = nullptr;
  blas::simd::RotSweepFn<T> kernel_;
  T* log_ = nullptr;
  T* packed_ = nullptr;     // rows x n, block b at packed_ + b * block_rows_ * n
  index_t block_rows_ = 0;  // rows per block (the last block may be shorter)
  long nblocks_ = 0;
  double seconds_ = 0.0;
  // Arguments of the broadcast in flight.
  Op op_ = Op::Apply;
  index_t d_ = 0;
};

extern template class QUpdate<float>;
extern template class QUpdate<double>;

}  // namespace tcevd::bulge
