// Shared rotation kernel for the two bulge-chasing drivers.
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
//
// The band lives in compact storage (BandView): O(n b) memory instead of the
// n x n matrix, and only the lower triangle is stored and rotated.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/blas/rot_kernel_scalar.hpp"
#include "src/common/matrix.hpp"
#include "src/common/workspace.hpp"

namespace tcevd::bulge {
namespace detail {

/// Non-owning symmetric band in LAPACK 'sb' lower storage: entry (i, j),
/// i >= j, i - j < ld, lives at data[(i - j) + j * ld]. The chase uses
/// ld = b + 2: the b + 1 diagonals of the band plus one for the live bulge.
template <typename T>
struct BandView {
  T* data = nullptr;
  index_t n = 0;
  index_t ld = 2;

  T& operator()(index_t i, index_t j) const noexcept { return data[(i - j) + j * ld]; }
};

/// Leading dimension of the compact band of an n x n matrix with bandwidth
/// bw (clamped to n - 1): the band's diagonals plus the bulge slot.
inline index_t band_ld(index_t n, index_t bw) {
  return std::clamp<index_t>(bw, 0, std::max<index_t>(n - 1, 0)) + 2;
}

/// Bytes load_band checks out of a workspace, alignment slop included.
template <typename T>
std::size_t band_bytes(index_t n, index_t bw) {
  return static_cast<std::size_t>(band_ld(n, bw)) *
             static_cast<std::size_t>(std::max<index_t>(n, 1)) * sizeof(T) +
         Workspace::kAlignment;
}

/// Copy the band |i - j| <= bw of symmetric `a` (lower triangle read) into
/// compact storage checked out of `ws`; the bulge slot starts at zero.
template <typename T>
BandView<T> load_band(ConstMatrixView<T> a, index_t bw, Workspace& ws) {
  BandView<T> band;
  band.n = a.rows();
  band.ld = band_ld(band.n, bw);
  band.data = ws.alloc<T>(static_cast<std::size_t>(band.ld) *
                          static_cast<std::size_t>(std::max<index_t>(band.n, 1)));
  for (index_t j = 0; j < band.n; ++j) {
    T* col = band.data + j * band.ld;
    const index_t rows = std::min(band.ld - 1, band.n - j);
    for (index_t r = 0; r < rows; ++r) col[r] = a(j + r, j);
    std::fill(col + rows, col + band.ld, T{});
  }
  return band;
}

/// Read the tridiagonal (d, e) off a fully chased band.
template <typename T>
void extract_tridiag(BandView<T> band, std::vector<T>& d, std::vector<T>& e) {
  d.resize(static_cast<std::size_t>(band.n));
  e.resize(static_cast<std::size_t>(std::max<index_t>(band.n - 1, 0)));
  for (index_t i = 0; i < band.n; ++i) {
    d[static_cast<std::size_t>(i)] = band(i, i);
    if (i + 1 < band.n) e[static_cast<std::size_t>(i)] = band(i + 1, i);
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

/// One chase iteration: elimination k of sweep s at diagonal distance d
/// (d + 2 <= a.ld). k == 0 zeroes the original outer-diagonal entry
/// (s + d, s); every later k zeroes the bulge the previous iteration pushed
/// d rows further down. The iteration index fully determines the touched
/// entries, so drivers need no per-sweep cursor state beyond k itself.
///
/// The rotation G in the plane (i, j) = (row - 1, row), with
/// G([i,j],[i,j]) = [[c, -s], [s, c]], applies A <- G^T A G to the lower
/// triangle of the window [tcol, min(n, row + d + 1)) — the stored half of
/// a transpose-symmetric set of entries:
///   - rows i, j of columns tcol .. i-1 (adjacent in storage);
///   - the 2x2 block (i, i), (j, i), (j, j), as the row pass then the column
///     pass of the full-storage update, with A(i, j) read as A(j, i);
///   - columns i, j of rows j+1 .. end of window (the new bulge lands at
///     (row + d, i), the bulge slot).
///
/// `sweep_log` (nullable) is the log of sweep s, i.e. the diagonal's log at
/// slot sweep_offset(n, d, s), two entries per slot: (c, s) of the rotation,
/// or c == blas::kRotSkip<T> when the entry was already zero. Slots are fixed
/// by (s, k), so concurrent sweeps write disjoint entries.
template <typename T>
inline void chase_elim(BandView<T> a, index_t d, index_t s, index_t k, T* sweep_log) {
  const index_t tcol = (k == 0) ? s : s + k * d - 1;
  const index_t j = s + (k + 1) * d;
  const index_t i = j - 1;
  T* const target = &a(i, tcol);  // (i, tcol); (j, tcol) is the next entry
  const T f = target[0];
  const T g = target[1];
  if (g == T{}) {
    if (sweep_log != nullptr) sweep_log[2 * k] = blas::kRotSkip<T>;
    return;
  }
  const T h = std::hypot(f, g);
  const T c = f / h;
  const T sn = g / h;

  // Rows i, j left of the block: (i, col), (j, col) at p[0], p[1]; the next
  // column's pair is ld - 1 entries further on.
  T* p = target;
  for (index_t col = tcol; col < i; ++col, p += a.ld - 1) {
    const T t1 = p[0];
    const T t2 = p[1];
    p[0] = c * t1 + sn * t2;
    p[1] = -sn * t1 + c * t2;
  }
  target[1] = T{};  // exact zero by construction

  // The 2x2 block: row pass, then column pass.
  T* const dii = &a(i, i);  // (i, i), then (j, i)
  T* const djj = &a(j, j);
  const T aii = dii[0];
  const T aji = dii[1];
  const T ajj = djj[0];
  const T rii = c * aii + sn * aji;
  const T rij = c * aji + sn * ajj;
  const T rji = -sn * aii + c * aji;
  const T rjj = -sn * aji + c * ajj;
  dii[0] = c * rii + sn * rij;
  dii[1] = c * rji + sn * rjj;
  djj[0] = -sn * rji + c * rjj;

  // Columns i, j below the block: rows j+1 .. hi-1, contiguous in both.
  const index_t len = std::min(a.n, j + d + 1) - (j + 1);
  T* const x = dii + 2;  // (j + 1, i)
  T* const y = djj + 1;  // (j + 1, j)
  for (index_t r = 0; r < len; ++r) {
    const T t1 = x[r];
    const T t2 = y[r];
    x[r] = c * t1 + sn * t2;
    y[r] = -sn * t1 + c * t2;
  }

  if (sweep_log != nullptr) {
    sweep_log[2 * k] = c;
    sweep_log[2 * k + 1] = sn;
  }
}

}  // namespace detail
}  // namespace tcevd::bulge
