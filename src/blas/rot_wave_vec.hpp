// Register-blocked rotation waves, shared by the vector kernel families.
// Included only by the vector translation units (simd_kernels_avx2.cpp,
// simd_kernels_avx512.cpp), which supply the Vec traits and compile it with
// their ISA flags and -ffp-contract=off.
//
// One pass applies a whole wave group (blas::for_each_wave_rotation) to NV
// vectors of rows, one lane per row: every element sees rot_pair_scalar's
// x' = c*x + s*y, y' = (-s)*x + c*y with separate mul and add, in wave
// order. NV is a compile-time constant so the rows of a rotation unroll
// into straight-line code; the per-rotation work of the wave loop (log
// reads, skip test, addressing) is paid once per pass, so a pass covers as
// many rows as fit: a whole 512-byte panel column on AVX-512.
//
// Keeping the column two consecutive rotations of a wave share in registers
// was measured and dropped: GCC kept the held vectors on the stack, and the
// store-reload made the kernel about 1.7x slower (DESIGN.md §14).
#pragma once

#include "src/blas/rot_kernel_scalar.hpp"

namespace tcevd::blas::simd::detail {

/// Apply one wave group to the rows a pass covers: `load(p, i)` and
/// `store(p, i, v)` move vector i of the column at p (masked at a row tail).
template <typename Vec, int NV, typename Load, typename Store>
inline void rot_wave_pass(typename Vec::T* q, index_t ld, index_t n, index_t d, index_t s0,
                          index_t m, const typename Vec::T* cs, Load load, Store store) {
  using T = typename Vec::T;
  using V = typename Vec::V;
  constexpr index_t w = Vec::kWidth;
  for_each_wave_rotation(q, ld, n, d, s0, m, cs, [&](T* x, T* y, T c, T s) {
    const V vc = Vec::set1(c);
    const V vs = Vec::set1(s);
    const V vns = Vec::set1(-s);
    for (int i = 0; i < NV; ++i) {
      const V xv = load(x + i * w, i);
      const V yv = load(y + i * w, i);
      store(x + i * w, i, Vec::add(Vec::mul(vc, xv), Vec::mul(vs, yv)));
      store(y + i * w, i, Vec::add(Vec::mul(vns, xv), Vec::mul(vc, yv)));
    }
  });
}

}  // namespace tcevd::blas::simd::detail
