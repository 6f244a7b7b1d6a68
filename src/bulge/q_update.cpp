#include "src/bulge/q_update.hpp"

#include <algorithm>
#include <type_traits>

#include "src/blas/rot_kernel_scalar.hpp"
#include "src/bulge/bulge_kernels.hpp"
#include "src/common/context.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/timer.hpp"
#include "src/common/workspace.hpp"

namespace tcevd::bulge {

namespace {

// Block heights are multiples of the widest vector (8 floats), so only the
// last block has a scalar row tail.
constexpr index_t kRowAlign = 8;

template <typename T>
blas::simd::RotSweepFn<T> rot_sweep_kernel() {
  const blas::simd::KernelTable& kt = blas::simd::active_kernels();
  blas::simd::RotSweepFn<T> fn = nullptr;
  if constexpr (std::is_same_v<T, float>) {
    fn = kt.rot_sweep_f32;
  } else {
    fn = kt.rot_sweep_f64;
  }
  return fn != nullptr ? fn : &blas::rot_sweep_scalar<T>;
}

index_t log_slots(index_t n) { return std::max<index_t>(1, detail::diagonal_rotations(n, 2)); }

// Replay diagonal d's log onto the h-row column-major block `cols` (n
// columns, leading dimension ld): sweep s rotates the planes
// (s + d - 1 + k d, s + d + k d), k = 0 .. sweep_length - 1.
template <typename T>
void replay(blas::simd::RotSweepFn<T> kernel, T* cols, index_t ld, index_t h, index_t n,
            index_t d, const T* log) {
  for (index_t s = 0; s + d < n; ++s) {
    const index_t len = detail::sweep_length(n, d, s);
    kernel(cols, ld, h, s + d - 1, d, len, log);
    log += 2 * len;
  }
}

}  // namespace

template <typename T>
QUpdate<T>::QUpdate(MatrixView<T> q, Workspace& ws, Telemetry* telemetry, ThreadPool* pool,
                    int lanes)
    : q_(q), telemetry_(telemetry), kernel_(rot_sweep_kernel<T>()) {
  Timer t;
  const index_t n = q.cols();
  const index_t rows = q.rows();
  log_ = ws.alloc<T>(2 * static_cast<std::size_t>(log_slots(n)));
  if (pool != nullptr && lanes > 1 && rows > 1 && !ThreadPool::on_worker_thread()) {
    const index_t per_lane = (rows + lanes - 1) / lanes;
    block_rows_ = (per_lane + kRowAlign - 1) / kRowAlign * kRowAlign;
    nblocks_ = static_cast<long>((rows + block_rows_ - 1) / block_rows_);
  }
  if (nblocks_ > 1) {
    packed_ = ws.alloc<T>(static_cast<std::size_t>(rows) * static_cast<std::size_t>(n));
    pool_ = pool;
    op_ = Op::Pack;
    // A pool busy with another broadcast now would keep this chase on one
    // thread anyway: apply in place instead of packing serially.
    if (!pool_->try_broadcast(nblocks_, &trampoline, this)) packed_ = nullptr;
  }
  seconds_ += t.seconds();
}

template <typename T>
void QUpdate<T>::apply(index_t d) {
  Timer t;
  if (packed_ != nullptr) {
    d_ = d;
    run(Op::Apply);
  } else {
    replay(kernel_, q_.data(), q_.ld(), q_.rows(), q_.cols(), d, log_);
  }
  seconds_ += t.seconds();
}

template <typename T>
void QUpdate<T>::finish() {
  Timer t;
  if (packed_ != nullptr) run(Op::Unpack);
  seconds_ += t.seconds();
  if (telemetry_ != nullptr) telemetry_->record_stage("bulge.q_update", seconds_);
}

template <typename T>
std::size_t QUpdate<T>::workspace_bytes(index_t n) {
  const std::size_t count = static_cast<std::size_t>(n > 0 ? n : 1);
  return (2 * static_cast<std::size_t>(log_slots(n)) + count * count) * sizeof(T) +
         2 * Workspace::kAlignment;
}

template <typename T>
void QUpdate<T>::trampoline(void* self, long block) {
  static_cast<QUpdate<T>*>(self)->run_block(block);
}

template <typename T>
void QUpdate<T>::run(Op op) {
  op_ = op;
  // A declined broadcast leaves every block to the caller: same per-row
  // operations, one thread.
  if (!pool_->try_broadcast(nblocks_, &trampoline, this)) {
    for (long b = 0; b < nblocks_; ++b) run_block(b);
  }
}

template <typename T>
void QUpdate<T>::run_block(long block) {
  const index_t n = q_.cols();
  const index_t r0 = static_cast<index_t>(block) * block_rows_;
  const index_t h = std::min(block_rows_, q_.rows() - r0);
  T* buf = packed_ + r0 * n;
  switch (op_) {
    case Op::Pack:
      for (index_t c = 0; c < n; ++c) std::copy_n(&q_(r0, c), h, buf + c * h);
      break;
    case Op::Apply:
      replay(kernel_, buf, h, h, n, d_, log_);
      break;
    case Op::Unpack:
      for (index_t c = 0; c < n; ++c) std::copy_n(buf + c * h, h, &q_(r0, c));
      break;
  }
}

template class QUpdate<float>;
template class QUpdate<double>;

}  // namespace tcevd::bulge
