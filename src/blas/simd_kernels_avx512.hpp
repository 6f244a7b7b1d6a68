// Declarations of the AVX-512 kernel family (definitions in
// simd_kernels_avx512.cpp, compiled with -mavx512f -mavx2 -mfma -mf16c
// -ffp-contract=off and only added to the build when the compiler supports
// those flags — the TCEVD_HAVE_AVX512 define gates every reference).
//
// Contract (checked bitwise against the scalar references at dispatch time):
//   * micro-kernels: same arguments and pack format as the scalar reference
//     (gemm_microkernel_scalar.hpp); ap/ap1/ap2 are 64-byte aligned panel
//     pointers, bp is broadcast-read, C is read/written with masked loads and
//     stores so rows past mr are never touched. One 16-lane vector per
//     panel row (two for double); lane ii is exactly the scalar chain
//     acc[jj][ii]. The plain entries use separate mul and add; only the
//     *_fp16 entries fuse them, and the dispatcher hands those only calls
//     whose packed operands are both fp16 values (exact products).
//   * convert kernels: contiguous float buffers, src == dst (in place)
//     allowed, and for the EC split head == src too; tails run masked.
//   * rotation waves: same arguments and wave order as
//     blas::rot_wave_scalar; lane r is row r of the rotated column pair,
//     separate mul and add, the row tail masked.
// These functions must only be CALLED after a cpuid probe says AVX-512F,
// FMA, AVX2 and F16C are available (simd_dispatch.cpp owns that decision).
#pragma once

#include "src/common/matrix.hpp"

#ifdef TCEVD_HAVE_AVX512

namespace tcevd::blas::simd::avx512 {

void micro_kernel_f32(index_t kc, const float* ap, const float* bp, float alpha, float* c0,
                      index_t ldc, index_t mr, index_t nr);
void micro_kernel_pair_f32(index_t kc, const float* ap1, const float* bp1, const float* ap2,
                           const float* bp2, float alpha, float* c0, index_t ldc,
                           index_t mr, index_t nr);
/// FMA twins of the two kernels above, exact when both operands are fp16.
void micro_kernel_f32_fp16(index_t kc, const float* ap, const float* bp, float alpha,
                           float* c0, index_t ldc, index_t mr, index_t nr);
void micro_kernel_pair_f32_fp16(index_t kc, const float* ap1, const float* bp1,
                                const float* ap2, const float* bp2, float alpha, float* c0,
                                index_t ldc, index_t mr, index_t nr);
void micro_kernel_f64(index_t kc, const double* ap, const double* bp, double alpha,
                      double* c0, index_t ldc, index_t mr, index_t nr);
void micro_kernel_pair_f64(index_t kc, const double* ap1, const double* bp1,
                           const double* ap2, const double* bp2, double alpha, double* c0,
                           index_t ldc, index_t mr, index_t nr);

/// Same semantics as the avx2:: convert kernels (simd_kernels_avx2.hpp).
void round_fp16_buffer(const float* src, float* dst, index_t n);
void round_tf32_buffer(const float* src, float* dst, index_t n);
void ec_split_fp16_buffer(const float* src, float* head, float* tail, index_t n,
                          float scale);
void ec_split_tf32_buffer(const float* src, float* head, float* tail, index_t n,
                          float scale);

/// Vector twins of blas::rot_wave_scalar (rot_kernel_scalar.hpp).
void rot_wave_f32(float* q, index_t ld, index_t h, index_t n, index_t d, index_t s0,
                  index_t m, const float* cs);
void rot_wave_f64(double* q, index_t ld, index_t h, index_t n, index_t d, index_t s0,
                  index_t m, const double* cs);

}  // namespace tcevd::blas::simd::avx512

#endif  // TCEVD_HAVE_AVX512
