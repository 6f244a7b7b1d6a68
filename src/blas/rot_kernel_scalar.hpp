// Scalar reference for the Givens rotation kernels: the bulge chase's Q
// update (src/bulge/q_update.cpp) applies its logged rotations through them.
//
// These loops are THE numerical definition of the Q update. The vector twins
// (simd_kernels_avx2.cpp, simd_kernels_avx512.cpp) must be bitwise-identical
// to them, which the dispatch-time self-check (simd_dispatch.cpp) and the
// gemmfast/bulge tests enforce. Each element of the two rotated columns sees
// one multiply per operand and one add, in this order:
//   x' = fl(fl(c * x) + fl(s * y)),   y' = fl(fl(-s * x) + fl(c * y)),
// the expression the chase uses for the band (detail::chase_elim). An
// element's result depends only on its own row, so replaying a logged
// rotation later gives the bits an immediate update would.
#pragma once

#include <algorithm>
#include <limits>

#include "src/common/matrix.hpp"

namespace tcevd {
namespace blas {

/// Rotation-log marker for a skipped rotation, stored as c. A computed
/// rotation has c = f / hypot(f, g) with g != 0, which is finite or NaN, so
/// the marker never collides with one. A skip must not be logged as the
/// identity (1, 0): applying it would turn a -0 entry into +0.
template <typename T>
inline constexpr T kRotSkip = std::numeric_limits<T>::infinity();

/// Rotate rows [0, h) of the column pair (x, y) by [[c, -s], [s, c]] on the
/// right: (x, y) <- (c x + s y, -s x + c y).
template <typename T>
inline void rot_pair_scalar(T* x, T* y, index_t h, T c, T s) {
  for (index_t r = 0; r < h; ++r) {
    const T t1 = x[r];
    const T t2 = y[r];
    x[r] = c * t1 + s * t2;
    y[r] = -s * t1 + c * t2;
  }
}

/// Apply `count` logged rotations to the column-major h-row block `q`
/// (leading dimension ld), in order. Rotation j acts on columns
/// i0 + j*stride and i0 + j*stride + 1 with (c, s) = (cs[2j], cs[2j+1]);
/// an entry with c == kRotSkip leaves both columns untouched. This is the
/// serial order a wave group (below) must reproduce.
template <typename T>
inline void rot_sweep_scalar(T* q, index_t ld, index_t h, index_t i0, index_t stride,
                             index_t count, const T* cs) {
  for (index_t j = 0; j < count; ++j) {
    const T c = cs[2 * j];
    if (c == kRotSkip<T>) continue;
    T* x = q + (i0 + j * stride) * ld;
    rot_pair_scalar(x, x + ld, h, c, cs[2 * j + 1]);
  }
}

/// Most sweeps one wave group holds: its per-sweep state lives on the stack.
inline constexpr index_t kMaxWaveSweeps = 64;

/// Lag, in waves, of sweep j of a group at diagonal distance d >= 2. It is
/// the smallest lag that keeps every pair of rotations sharing a column in
/// serial order (DESIGN.md §14).
inline index_t wave_lag(index_t j, index_t d) { return 2 * j / d; }

/// The wave order of one group of chase sweeps, shared by every kernel level.
///
/// The group is sweeps s0 .. s0+m-1 (1 <= m <= kMaxWaveSweeps, all with
/// s + d < n) of a diagonal at distance d >= 2 on an n-column Q. Sweep s
/// logs (n-1-s)/d rotations; the group's sweeps are logged back to back from
/// `cs`, two entries (c, s) per rotation. Rotation k of sweep s acts on
/// columns s+d-1+k*d and the next one of the column-major block q (leading
/// dimension ld). Wave w applies rotation k = w - wave_lag(j, d) of sweep
/// s0 + j, for j ascending, through rot(x, y, c, s); skips are dropped. Any
/// two rotations that share a column run in serial (s, k) order, so every
/// element sees the operations of rot_sweep_scalar replayed sweep by sweep.
template <typename T, typename Rot>
inline void for_each_wave_rotation(T* q, index_t ld, index_t n, index_t d, index_t s0,
                                   index_t m, const T* cs, Rot&& rot) {
  index_t len[kMaxWaveSweeps];
  index_t lag[kMaxWaveSweeps];
  const T* log[kMaxWaveSweeps];
  index_t waves = 0;
  for (index_t j = 0; j < m; ++j) {
    len[j] = (n - 1 - s0 - j) / d;
    lag[j] = wave_lag(j, d);
    log[j] = cs;
    cs += 2 * len[j];
    waves = std::max(waves, len[j] + lag[j]);
  }
  T* const base = q + (s0 + d - 1) * ld;  // column of rotation (s0, 0)
  for (index_t w = 0; w < waves; ++w) {
    for (index_t j = 0; j < m; ++j) {
      const index_t k = w - lag[j];
      if (k < 0) break;  // lags only grow with j
      if (k >= len[j]) continue;
      const T c = log[j][2 * k];
      if (c == kRotSkip<T>) continue;
      T* x = base + (j + k * d) * ld;
      rot(x, x + ld, c, log[j][2 * k + 1]);
    }
  }
}

/// Apply one wave group (for_each_wave_rotation) to rows [0, h) of q.
template <typename T>
inline void rot_wave_scalar(T* q, index_t ld, index_t h, index_t n, index_t d, index_t s0,
                            index_t m, const T* cs) {
  for_each_wave_rotation(q, ld, n, d, s0, m, cs,
                         [h](T* x, T* y, T c, T s) { rot_pair_scalar(x, y, h, c, s); });
}

}  // namespace blas
}  // namespace tcevd
