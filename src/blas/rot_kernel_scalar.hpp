// Scalar reference for the Givens rotation-sweep kernel: the bulge chase's
// Q update (src/bulge/q_update.cpp) applies its logged rotations through it.
//
// These loops are THE numerical definition of the Q update. The AVX2 twin in
// simd_kernels_avx2.cpp must be bitwise-identical to them, which the
// dispatch-time self-check (simd_dispatch.cpp) and the gemmfast/bulge tests
// enforce. Each element of the two rotated columns sees one multiply per
// operand and one add, in this order:
//   x' = fl(fl(c * x) + fl(s * y)),   y' = fl(fl(-s * x) + fl(c * y)),
// the expression the chase uses for the band (detail::chase_elim). An
// element's result depends only on its own row, so replaying a logged
// rotation later gives the bits an immediate update would.
#pragma once

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
/// an entry with c == kRotSkip leaves both columns untouched.
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

}  // namespace blas
}  // namespace tcevd
