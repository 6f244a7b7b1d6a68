#include "src/bulge/q_update.hpp"

#include <algorithm>
#include <type_traits>

#include "src/blas/rot_kernel_scalar.hpp"
#include "src/bulge/bulge_kernels.hpp"
#include "src/common/workspace.hpp"

namespace tcevd::bulge {

namespace {

static_assert(QUpdate<float>::kGroupSweeps <= blas::kMaxWaveSweeps);

template <typename T>
blas::simd::RotWaveFn<T> rot_wave_kernel() {
  const blas::simd::KernelTable& kt = blas::simd::active_kernels();
  blas::simd::RotWaveFn<T> fn = nullptr;
  if constexpr (std::is_same_v<T, float>) {
    fn = kt.rot_wave_f32;
  } else {
    fn = kt.rot_wave_f64;
  }
  return fn != nullptr ? fn : &blas::rot_wave_scalar<T>;
}

// Log slots of the largest even and odd diagonals (d = 2 and d = 3).
index_t even_slots(index_t n) { return std::max<index_t>(1, detail::diagonal_rotations(n, 2)); }
index_t odd_slots(index_t n) { return std::max<index_t>(1, detail::diagonal_rotations(n, 3)); }

}  // namespace

template <typename T>
QUpdate<T>::QUpdate(MatrixView<T> q, Workspace& ws, bool packed)
    : q_(q), kernel_(rot_wave_kernel<T>()) {
  const index_t n = q.cols();
  const index_t rows = q.rows();
  panels_ = (rows + kPanelRows - 1) / kPanelRows;
  log_even_ = ws.alloc<T>(2 * static_cast<std::size_t>(even_slots(n)));
  log_odd_ = log_even_;
  if (packed) {
    log_odd_ = ws.alloc<T>(2 * static_cast<std::size_t>(odd_slots(n)));
    packed_ = ws.alloc<T>(static_cast<std::size_t>(rows) * static_cast<std::size_t>(n));
  }
}

template <typename T>
T* QUpdate<T>::log(index_t d) const noexcept {
  return d % 2 == 0 ? log_even_ : log_odd_;
}

template <typename T>
void QUpdate<T>::replay(T* cols, index_t ld, index_t h, index_t d) const {
  const index_t n = q_.cols();
  const T* log_d = log(d);
  for (index_t s0 = 0; s0 + d < n; s0 += kGroupSweeps) {
    const index_t m = std::min(kGroupSweeps, n - d - s0);
    kernel_(cols, ld, h, n, d, s0, m, log_d + 2 * detail::sweep_offset(n, d, s0));
  }
}

template <typename T>
void QUpdate<T>::pack(index_t p) const {
  const index_t n = q_.cols();
  const index_t r0 = p * kPanelRows;
  const index_t h = std::min(kPanelRows, q_.rows() - r0);
  T* panel = packed_ + r0 * n;
  for (index_t c = 0; c < n; ++c) std::copy_n(&q_(r0, c), h, panel + c * h);
}

template <typename T>
void QUpdate<T>::apply(index_t p, index_t d) const {
  const index_t r0 = p * kPanelRows;
  const index_t h = std::min(kPanelRows, q_.rows() - r0);
  replay(packed_ + r0 * q_.cols(), h, h, d);
}

template <typename T>
void QUpdate<T>::unpack(index_t p) const {
  const index_t n = q_.cols();
  const index_t r0 = p * kPanelRows;
  const index_t h = std::min(kPanelRows, q_.rows() - r0);
  const T* panel = packed_ + r0 * n;
  for (index_t c = 0; c < n; ++c) std::copy_n(panel + c * h, h, &q_(r0, c));
}

template <typename T>
void QUpdate<T>::apply_in_place(index_t d) const {
  for (index_t r0 = 0; r0 < q_.rows(); r0 += kPanelRows) {
    replay(q_.data() + r0, q_.ld(), std::min(kPanelRows, q_.rows() - r0), d);
  }
}

template <typename T>
std::size_t QUpdate<T>::workspace_bytes(index_t n) {
  const std::size_t count = static_cast<std::size_t>(n > 0 ? n : 1);
  return (2 * static_cast<std::size_t>(even_slots(n) + odd_slots(n)) + count * count) *
             sizeof(T) +
         3 * Workspace::kAlignment;
}

template class QUpdate<float>;
template class QUpdate<double>;

}  // namespace tcevd::bulge
