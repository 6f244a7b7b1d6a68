// Scalar reference micro-kernels for the packed GEMM pipeline.
//
// These are THE numerical definition of a packed-GEMM micro-tile: every
// other implementation (the AVX2 and AVX-512 families in
// simd_kernels_avx2.cpp / simd_kernels_avx512.cpp) must be bitwise-identical
// to these loops, which is enforced twice — once by the
// dispatch-time self-check (simd_dispatch.cpp installs a vector kernel only
// after comparing it bitwise against these on probe problems) and once by the
// `gemmfast` SIMD-vs-scalar test sweep.
//
// The bitwise contract rests on the per-element operation sequence: each C
// element's accumulator performs, for k = 0..kc-1, one fp multiply
// fl(a(i,k)*b(k,j)) followed by one fp add into the accumulator, then one
// multiply by alpha and one add into C. A SIMD kernel that assigns one vector
// lane per row of the MR x NR tile and uses separate mul/add instructions
// executes exactly this sequence per lane. This is also why the build pins
// -ffp-contract=off (top-level CMakeLists): letting the compiler contract
// a*b+acc into an FMA would change the scalar reference's rounding and break
// the lane-per-row equivalence argument. The one exception is the AVX-512
// fp16-operand entry, whose FMA is provably equal to mul-then-add when both
// packed operands are fp16 values (DESIGN.md, "Exact FMA on fp16 operands").
#pragma once

#include "src/common/matrix.hpp"

namespace tcevd {
namespace blas {
namespace packed {

// Register-tile shape shared by the pack format, the scalar kernels, and the
// SIMD kernels, at every dispatch level. kMR = 16 is one 16-float AVX-512
// vector (one lane per row; the AVX2 kernels hold a panel row in two 8-float
// halves); kNR = 16 gives the AVX-512 kernel sixteen independent accumulator
// chains, enough to cover the FMA latency at two issues per cycle. (Neither
// width changes results: a C element's accumulation chain depends only on its
// own k-order, not on which tile neighbours share the micro-kernel call.)
inline constexpr index_t kMR = 16;
inline constexpr index_t kNR = 16;

/// Columns per accumulator chunk of the scalar kernels: one chunk's
/// accumulators fit the SSE2 register file. Chunking re-reads the A panel
/// but never reorders any element's chain, and chunks past nr are skipped.
template <typename T>
inline constexpr index_t kScalarChunk = sizeof(T) == 4 ? 2 : 1;

/// acc(MR x NR) += sum_k apanel(:, k) bpanel(k, :); then C += alpha * acc.
template <typename T>
void micro_kernel_scalar(index_t kc, const T* ap, const T* bp, T alpha, T* c0, index_t ldc,
                         index_t mr, index_t nr) {
  constexpr index_t kChunk = kScalarChunk<T>;
  for (index_t j0 = 0; j0 < nr; j0 += kChunk) {
    T acc[kChunk][kMR] = {};
    for (index_t k = 0; k < kc; ++k) {
      const T* arow = ap + k * kMR;
      const T* brow = bp + k * kNR + j0;
      for (index_t jj = 0; jj < kChunk; ++jj) {
        const T bv = brow[jj];
        for (index_t ii = 0; ii < kMR; ++ii) acc[jj][ii] += arow[ii] * bv;
      }
    }
    for (index_t jj = 0; jj < kChunk && j0 + jj < nr; ++jj) {
      T* cc = c0 + (j0 + jj) * ldc;
      for (index_t ii = 0; ii < mr; ++ii) cc[ii] += alpha * acc[jj][ii];
    }
  }
}

/// Two products sharing one C tile: C += alpha * (A1·B1 + A2·B2), with both
/// accumulators carried per k-step and their sum added element-wise. tc_syr2k
/// relies on this shape for bitwise upper/lower symmetry: the (j,i) tile's
/// acc1/acc2 are the (i,j) tile's acc2/acc1 value-for-value (fp multiply and
/// add are commutative bitwise), so acc1+acc2 matches across the diagonal.
template <typename T>
void micro_kernel_pair_scalar(index_t kc, const T* ap1, const T* bp1, const T* ap2,
                              const T* bp2, T alpha, T* c0, index_t ldc, index_t mr,
                              index_t nr) {
  constexpr index_t kChunk = kScalarChunk<T>;
  for (index_t j0 = 0; j0 < nr; j0 += kChunk) {
    T acc1[kChunk][kMR] = {};
    T acc2[kChunk][kMR] = {};
    for (index_t k = 0; k < kc; ++k) {
      const T* a1 = ap1 + k * kMR;
      const T* b1 = bp1 + k * kNR + j0;
      const T* a2 = ap2 + k * kMR;
      const T* b2 = bp2 + k * kNR + j0;
      for (index_t jj = 0; jj < kChunk; ++jj) {
        const T bv1 = b1[jj];
        const T bv2 = b2[jj];
        for (index_t ii = 0; ii < kMR; ++ii) {
          acc1[jj][ii] += a1[ii] * bv1;
          acc2[jj][ii] += a2[ii] * bv2;
        }
      }
    }
    for (index_t jj = 0; jj < kChunk && j0 + jj < nr; ++jj) {
      T* cc = c0 + (j0 + jj) * ldc;
      for (index_t ii = 0; ii < mr; ++ii) cc[ii] += alpha * (acc1[jj][ii] + acc2[jj][ii]);
    }
  }
}

}  // namespace packed
}  // namespace blas
}  // namespace tcevd
