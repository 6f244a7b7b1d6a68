// Shared rotation kernels for the two bulge-chasing drivers.
//
// The serial driver (bulge_chasing.cpp) and the wavefront-parallel driver
// (bulge_wavefront.cpp) must produce bitwise-identical tridiagonal output and
// accumulated Q: the parallel schedule only reorders rotation applications
// whose touched entries are disjoint (see DESIGN.md §14), so any arithmetic
// difference between the two paths would break the equality the test suite
// pins. Both drivers therefore execute chase iterations through the one
// chase_elim below — there is exactly one place that computes (c, s) and
// applies a rotation to the band. chase_elim does not touch Q: it writes
// (c, s) into the diagonal's rotation log, and the Q update (q_update.hpp)
// replays that log after the diagonal is chased.
#pragma once

#include <algorithm>
#include <cmath>

#include "src/blas/rot_kernel_scalar.hpp"
#include "src/common/matrix.hpp"

namespace tcevd::bulge {
namespace detail {

/// Two-sided Givens rotation A <- G^T A G in the plane (i, i+1), touching
/// only columns/rows in [lo, hi) (the band window). G([i,i+1],[i,i+1]) =
/// [[c, -s], [s, c]].
template <typename T>
inline void apply_sym_rotation(MatrixView<T> a, index_t i, T c, T s, index_t lo,
                               index_t hi) {
  const index_t j = i + 1;
  for (index_t k = lo; k < hi; ++k) {
    const T t1 = a(i, k);
    const T t2 = a(j, k);
    a(i, k) = c * t1 + s * t2;
    a(j, k) = -s * t1 + c * t2;
  }
  for (index_t k = lo; k < hi; ++k) {
    const T t1 = a(k, i);
    const T t2 = a(k, j);
    a(k, i) = c * t1 + s * t2;
    a(k, j) = -s * t1 + c * t2;
  }
}

/// Number of chase iterations of sweep `s` at diagonal distance `d`:
/// the bulge lands at rows s + d, s + 2d, ... while they stay below n.
inline index_t sweep_length(index_t n, index_t d, index_t s) { return (n - 1 - s) / d; }

/// Rotations of sweeps 0 .. s-1 at diagonal distance d: the log slot of
/// elimination (s, 0). Closed form of the prefix sum of sweep_length, using
/// sum_{t=0}^{m} floor(t/d) = d q (q-1)/2 + q (r+1) with m = q d + r.
inline index_t sweep_offset(index_t n, index_t d, index_t s) {
  const auto floor_sum = [d](index_t m) {
    if (m < 0) return index_t{0};
    const index_t q = m / d;
    const index_t r = m % d;
    return d * q * (q - 1) / 2 + q * (r + 1);
  };
  return floor_sum(n - 1) - floor_sum(n - 1 - s);
}

/// Log slots of the whole diagonal d (sweeps 0 .. n-d-1). Largest at d = 2,
/// about n^2 / 4.
inline index_t diagonal_rotations(index_t n, index_t d) { return sweep_offset(n, d, n - d); }

/// One chase iteration: elimination k of sweep s at diagonal distance d.
/// k == 0 zeroes the original outer-diagonal entry (s + d, s); every later k
/// zeroes the bulge the previous iteration pushed d rows further down. The
/// iteration index fully determines the touched entries, so drivers need no
/// per-sweep cursor state beyond k itself.
///
/// `sweep_log` (nullable) is the log of sweep s, i.e. the diagonal's log at
/// slot sweep_offset(n, d, s), two entries per slot: (c, s) of the rotation
/// in the plane (row - 1, row), or c == blas::kRotSkip<T> when the entry was
/// already zero. Slots are fixed by (s, k), so concurrent sweeps write
/// disjoint entries.
template <typename T>
inline void chase_elim(MatrixView<T> a, index_t n, index_t d, index_t s, index_t k,
                       T* sweep_log) {
  const index_t tcol = (k == 0) ? s : s + k * d - 1;
  const index_t row = s + (k + 1) * d;
  const T f = a(row - 1, tcol);
  const T g = a(row, tcol);
  if (g == T{}) {
    if (sweep_log != nullptr) sweep_log[2 * k] = blas::kRotSkip<T>;
    return;
  }
  const T h = std::hypot(f, g);
  const T c = f / h;
  const T sn = g / h;
  // Window: the rotated rows/cols carry entries within the current band
  // (+1 for the live bulge) around indices row-1, row.
  const index_t lo = tcol;
  const index_t hi = std::min(n, row + d + 1);
  apply_sym_rotation(a, row - 1, c, sn, lo, hi);
  a(row, tcol) = T{};  // exact zero by construction
  a(tcol, row) = T{};
  if (sweep_log != nullptr) {
    sweep_log[2 * k] = c;
    sweep_log[2 * k + 1] = sn;
  }
}

}  // namespace detail
}  // namespace tcevd::bulge
