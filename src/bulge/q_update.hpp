// The second stage's Q update: the one place that writes Q while a band is
// chased to tridiagonal form.
//
// The chase (bulge_kernels.hpp, chase_elim) does not rotate Q. It logs each
// elimination's (c, s) into a per-diagonal rotation log, and once the
// diagonal is chased QUpdate right-multiplies Q by its rotations. It applies
// them kGroupSweeps sweeps at a time, in waves (blas::for_each_wave_rotation):
// every pair of rotations that shares a column keeps its serial (s, k) order,
// and a wave's rotations touch a narrow window of columns, so a group's
// working set stays in L1 while it sweeps across Q. Each row of Q is
// transformed independently and sees the operations of a serial
// per-rotation update in the same order, so the result is bitwise identical
// for any split of the rows.
//
// Two layouts:
//   * packed: Q is copied into row panels of kPanelRows rows, column c of a
//     panel at panel + c * h, so a panel's columns are contiguous. Panels are
//     independent units of work: the chase driver (bulge_chasing.cpp) hands
//     them to its lanes while it chases the next diagonal into the second
//     rotation log, then copies them back. See DESIGN.md §14.
//   * in place: one lane applies the groups to kPanelRows-row strips of Q
//     itself, with one rotation log (service workers, small problems).
#pragma once

#include <cstddef>

#include "src/blas/simd_dispatch.hpp"
#include "src/common/matrix.hpp"

namespace tcevd {
class Workspace;
}  // namespace tcevd

namespace tcevd::bulge {

template <typename T>
class QUpdate {
 public:
  /// Rows per panel or strip: 512 bytes of one column (128 floats, 64
  /// doubles), one register-blocked pass of the AVX-512 wave kernel.
  static constexpr index_t kPanelRows = static_cast<index_t>(512 / sizeof(T));
  /// Sweeps per wave group (at most blas::kMaxWaveSweeps).
  static constexpr index_t kGroupSweeps = 32;

  /// Plan the update of q (rows x n, n = q.cols()), packed or in place. The
  /// rotation logs (two when packed, one in place) and the panels are
  /// checked out of `ws`, so the caller's open Workspace::Scope must outlive
  /// this object. Nothing is copied yet.
  QUpdate(MatrixView<T> q, Workspace& ws, bool packed);
  QUpdate(const QUpdate&) = delete;
  QUpdate& operator=(const QUpdate&) = delete;

  /// The log the chase fills for peeled diagonal d. Packed, even and odd d
  /// get separate logs, so diagonal d - 1 can be logged while diagonal d is
  /// applied; in place, every diagonal shares one.
  T* log(index_t d) const noexcept;
  /// Number of row panels (packed) or strips (in place).
  index_t panels() const noexcept { return panels_; }

  /// Packed layout: copy panel p out of Q, apply peeled diagonal d's log to
  /// it, and copy it back. Distinct panels may run concurrently.
  void pack(index_t p) const;
  void apply(index_t p, index_t d) const;
  void unpack(index_t p) const;
  /// In-place layout: apply diagonal d's log to every strip of Q.
  void apply_in_place(index_t d) const;

  /// Upper bound on the workspace bytes the update checks out for an n x n
  /// Q in the packed layout (the in-place layout needs less).
  static std::size_t workspace_bytes(index_t n);

 private:
  void replay(T* cols, index_t ld, index_t h, index_t d) const;

  MatrixView<T> q_;
  blas::simd::RotWaveFn<T> kernel_;
  T* log_even_ = nullptr;
  T* log_odd_ = nullptr;
  T* packed_ = nullptr;  // rows x n; panel p at packed_ + p * kPanelRows * n
  index_t panels_ = 0;
};

extern template class QUpdate<float>;
extern template class QUpdate<double>;

}  // namespace tcevd::bulge
