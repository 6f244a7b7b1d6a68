// AVX2 kernel family: vector twins of the scalar reference kernels.
//
// Bitwise identity with the scalar reference is the design constraint, not a
// best-effort goal. Three rules enforce it:
//
//   1. One lane per row. Each __m256 (or __m256d pair) holds the MR=8 rows of
//      one C-tile column's accumulator. Lane ii then executes exactly the
//      scalar chain acc[jj][ii]: the same multiplies, the same adds, in the
//      same k order. Column chunking (pair / f64 kernels chunk columns to fit
//      the 16-register budget) re-reads the packed A panel but never touches
//      a given element's chain, so it is invisible bitwise.
//   2. Separate mul and add, never FMA. This file is compiled with
//      -mavx2 -mf16c -ffp-contract=off and WITHOUT -mfma, so the compiler
//      cannot contract _mm256_mul_ps + _mm256_add_ps into vfmadd and change
//      the rounding. The scalar reference TUs have no FMA ISA at all (no
//      -march flags; -ffp-contract=off globally as insurance).
//   3. Hardware converts only where they match the software reference. F16C
//      VCVTPS2PH/VCVTPH2PS implement RNE exactly for finite, subnormal and
//      infinite values and for the default quiet NaN; only exotic NaN
//      payloads (never produced by EVD data) can differ, and the dispatch
//      self-check (simd_dispatch.cpp) guards the whole family anyway. TF32
//      rounding has no hardware instruction, so it is re-implemented with
//      integer AVX2 as a lane-parallel transcription of round_to_tf32.
//
// Remainders: mr < 8 spills the accumulator to an aligned temp and finishes
// with the scalar writeback; n % 8 convert tails and the row tails of the
// rotation sweeps run the scalar reference.
#include "src/blas/simd_kernels_avx2.hpp"

#ifdef TCEVD_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>

#include "src/blas/gemm_microkernel_scalar.hpp"
#include "src/blas/rot_kernel_scalar.hpp"
#include "src/common/half.hpp"

namespace tcevd::blas::simd::avx2 {

using packed::kMR;
using packed::kNR;

static_assert(kMR == 8, "AVX2 f32 kernels assume one 8-float vector per panel row");
static_assert(kNR == 8, "AVX2 kernels assume an 8-column register tile");

void micro_kernel_f32(index_t kc, const float* ap, const float* bp, float alpha, float* c0,
                      index_t ldc, index_t mr, index_t nr) {
  __m256 acc[kNR];
  for (index_t jj = 0; jj < kNR; ++jj) acc[jj] = _mm256_setzero_ps();
  for (index_t k = 0; k < kc; ++k) {
    const __m256 av = _mm256_load_ps(ap + k * kMR);
    const float* brow = bp + k * kNR;
    for (index_t jj = 0; jj < kNR; ++jj) {
      acc[jj] = _mm256_add_ps(acc[jj], _mm256_mul_ps(av, _mm256_broadcast_ss(brow + jj)));
    }
  }
  const __m256 valpha = _mm256_set1_ps(alpha);
  if (mr == kMR) {
    for (index_t jj = 0; jj < nr; ++jj) {
      float* cc = c0 + jj * ldc;
      _mm256_storeu_ps(cc,
                       _mm256_add_ps(_mm256_loadu_ps(cc), _mm256_mul_ps(valpha, acc[jj])));
    }
  } else {
    alignas(32) float tmp[kMR];
    for (index_t jj = 0; jj < nr; ++jj) {
      _mm256_store_ps(tmp, acc[jj]);
      float* cc = c0 + jj * ldc;
      for (index_t ii = 0; ii < mr; ++ii) cc[ii] += alpha * tmp[ii];
    }
  }
}

void micro_kernel_pair_f32(index_t kc, const float* ap1, const float* bp1, const float* ap2,
                           const float* bp2, float alpha, float* c0, index_t ldc, index_t mr,
                           index_t nr) {
  const __m256 valpha = _mm256_set1_ps(alpha);
  // Column chunks of 4: 2x4 accumulators + two panel vectors stay in registers.
  for (index_t j0 = 0; j0 < nr; j0 += 4) {
    __m256 acc1[4];
    __m256 acc2[4];
    for (index_t jj = 0; jj < 4; ++jj) {
      acc1[jj] = _mm256_setzero_ps();
      acc2[jj] = _mm256_setzero_ps();
    }
    for (index_t k = 0; k < kc; ++k) {
      const __m256 av1 = _mm256_load_ps(ap1 + k * kMR);
      const __m256 av2 = _mm256_load_ps(ap2 + k * kMR);
      const float* b1 = bp1 + k * kNR + j0;
      const float* b2 = bp2 + k * kNR + j0;
      for (index_t jj = 0; jj < 4; ++jj) {
        acc1[jj] = _mm256_add_ps(acc1[jj], _mm256_mul_ps(av1, _mm256_broadcast_ss(b1 + jj)));
        acc2[jj] = _mm256_add_ps(acc2[jj], _mm256_mul_ps(av2, _mm256_broadcast_ss(b2 + jj)));
      }
    }
    const index_t jend = std::min<index_t>(4, nr - j0);
    for (index_t jj = 0; jj < jend; ++jj) {
      const __m256 sum = _mm256_add_ps(acc1[jj], acc2[jj]);
      float* cc = c0 + (j0 + jj) * ldc;
      if (mr == kMR) {
        _mm256_storeu_ps(cc, _mm256_add_ps(_mm256_loadu_ps(cc), _mm256_mul_ps(valpha, sum)));
      } else {
        alignas(32) float tmp[kMR];
        _mm256_store_ps(tmp, sum);
        for (index_t ii = 0; ii < mr; ++ii) cc[ii] += alpha * tmp[ii];
      }
    }
  }
}

void micro_kernel_f64(index_t kc, const double* ap, const double* bp, double alpha,
                      double* c0, index_t ldc, index_t mr, index_t nr) {
  const __m256d valpha = _mm256_set1_pd(alpha);
  // One panel row is two __m256d (lanes 0..3 and 4..7); chunk columns by 4.
  for (index_t j0 = 0; j0 < nr; j0 += 4) {
    __m256d lo[4];
    __m256d hi[4];
    for (index_t jj = 0; jj < 4; ++jj) {
      lo[jj] = _mm256_setzero_pd();
      hi[jj] = _mm256_setzero_pd();
    }
    for (index_t k = 0; k < kc; ++k) {
      const __m256d avlo = _mm256_load_pd(ap + k * kMR);
      const __m256d avhi = _mm256_load_pd(ap + k * kMR + 4);
      const double* brow = bp + k * kNR + j0;
      for (index_t jj = 0; jj < 4; ++jj) {
        const __m256d bv = _mm256_broadcast_sd(brow + jj);
        lo[jj] = _mm256_add_pd(lo[jj], _mm256_mul_pd(avlo, bv));
        hi[jj] = _mm256_add_pd(hi[jj], _mm256_mul_pd(avhi, bv));
      }
    }
    const index_t jend = std::min<index_t>(4, nr - j0);
    for (index_t jj = 0; jj < jend; ++jj) {
      double* cc = c0 + (j0 + jj) * ldc;
      if (mr == kMR) {
        _mm256_storeu_pd(cc,
                         _mm256_add_pd(_mm256_loadu_pd(cc), _mm256_mul_pd(valpha, lo[jj])));
        _mm256_storeu_pd(
            cc + 4, _mm256_add_pd(_mm256_loadu_pd(cc + 4), _mm256_mul_pd(valpha, hi[jj])));
      } else {
        alignas(32) double tmp[kMR];
        _mm256_store_pd(tmp, lo[jj]);
        _mm256_store_pd(tmp + 4, hi[jj]);
        for (index_t ii = 0; ii < mr; ++ii) cc[ii] += alpha * tmp[ii];
      }
    }
  }
}

void micro_kernel_pair_f64(index_t kc, const double* ap1, const double* bp1,
                           const double* ap2, const double* bp2, double alpha, double* c0,
                           index_t ldc, index_t mr, index_t nr) {
  const __m256d valpha = _mm256_set1_pd(alpha);
  // Two products x two half-rows: chunk columns by 2 to stay in registers.
  for (index_t j0 = 0; j0 < nr; j0 += 2) {
    __m256d lo1[2], hi1[2], lo2[2], hi2[2];
    for (index_t jj = 0; jj < 2; ++jj) {
      lo1[jj] = _mm256_setzero_pd();
      hi1[jj] = _mm256_setzero_pd();
      lo2[jj] = _mm256_setzero_pd();
      hi2[jj] = _mm256_setzero_pd();
    }
    for (index_t k = 0; k < kc; ++k) {
      const __m256d a1lo = _mm256_load_pd(ap1 + k * kMR);
      const __m256d a1hi = _mm256_load_pd(ap1 + k * kMR + 4);
      const __m256d a2lo = _mm256_load_pd(ap2 + k * kMR);
      const __m256d a2hi = _mm256_load_pd(ap2 + k * kMR + 4);
      const double* b1 = bp1 + k * kNR + j0;
      const double* b2 = bp2 + k * kNR + j0;
      for (index_t jj = 0; jj < 2; ++jj) {
        const __m256d bv1 = _mm256_broadcast_sd(b1 + jj);
        const __m256d bv2 = _mm256_broadcast_sd(b2 + jj);
        lo1[jj] = _mm256_add_pd(lo1[jj], _mm256_mul_pd(a1lo, bv1));
        hi1[jj] = _mm256_add_pd(hi1[jj], _mm256_mul_pd(a1hi, bv1));
        lo2[jj] = _mm256_add_pd(lo2[jj], _mm256_mul_pd(a2lo, bv2));
        hi2[jj] = _mm256_add_pd(hi2[jj], _mm256_mul_pd(a2hi, bv2));
      }
    }
    const index_t jend = std::min<index_t>(2, nr - j0);
    for (index_t jj = 0; jj < jend; ++jj) {
      const __m256d sumlo = _mm256_add_pd(lo1[jj], lo2[jj]);
      const __m256d sumhi = _mm256_add_pd(hi1[jj], hi2[jj]);
      double* cc = c0 + (j0 + jj) * ldc;
      if (mr == kMR) {
        _mm256_storeu_pd(cc,
                         _mm256_add_pd(_mm256_loadu_pd(cc), _mm256_mul_pd(valpha, sumlo)));
        _mm256_storeu_pd(
            cc + 4, _mm256_add_pd(_mm256_loadu_pd(cc + 4), _mm256_mul_pd(valpha, sumhi)));
      } else {
        alignas(32) double tmp[kMR];
        _mm256_store_pd(tmp, sumlo);
        _mm256_store_pd(tmp + 4, sumhi);
        for (index_t ii = 0; ii < mr; ++ii) cc[ii] += alpha * tmp[ii];
      }
    }
  }
}

namespace {

inline __m256 round_fp16_vec(__m256 v) {
  return _mm256_cvtph_ps(_mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

// Lane-parallel transcription of round_to_tf32 (src/common/half.cpp): RNE of
// the fp32 mantissa to 10 bits (round bit 0x1000, kept LSB 0x2000), inf/NaN
// pass through untouched.
inline __m256 round_tf32_vec(__m256 v) {
  const __m256i x = _mm256_castps_si256(v);
  const __m256i expmask = _mm256_set1_epi32(0x7f800000);
  const __m256i special = _mm256_cmpeq_epi32(_mm256_and_si256(x, expmask), expmask);
  const __m256i remmask = _mm256_set1_epi32(0x1fff);
  const __m256i rem = _mm256_and_si256(x, remmask);
  const __m256i base = _mm256_andnot_si256(remmask, x);
  const __m256i gt = _mm256_cmpgt_epi32(rem, _mm256_set1_epi32(0x1000));
  const __m256i eq = _mm256_cmpeq_epi32(rem, _mm256_set1_epi32(0x1000));
  // All-ones lane when the kept LSB (bit 13) of base is set: shift it to the
  // sign position, then arithmetic-shift it across the lane.
  const __m256i odd = _mm256_srai_epi32(_mm256_slli_epi32(base, 18), 31);
  const __m256i up = _mm256_or_si256(gt, _mm256_and_si256(eq, odd));
  const __m256i bumped = _mm256_add_epi32(base, _mm256_and_si256(up, _mm256_set1_epi32(0x2000)));
  return _mm256_castsi256_ps(_mm256_blendv_epi8(bumped, x, special));
}

}  // namespace

void round_fp16_buffer(const float* src, float* dst, index_t n) {
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, round_fp16_vec(_mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = round_to_half(src[i]);
}

void round_tf32_buffer(const float* src, float* dst, index_t n) {
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, round_tf32_vec(_mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = round_to_tf32(src[i]);
}

void ec_split_fp16_buffer(const float* src, float* head, float* tail, index_t n,
                          float scale) {
  const __m256 vscale = _mm256_set1_ps(scale);
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    const __m256 h = round_fp16_vec(v);
    _mm256_storeu_ps(head + i, h);
    _mm256_storeu_ps(tail + i,
                     round_fp16_vec(_mm256_mul_ps(vscale, _mm256_sub_ps(v, h))));
  }
  for (; i < n; ++i) {
    const float h = round_to_half(src[i]);
    head[i] = h;
    tail[i] = round_to_half(scale * (src[i] - h));
  }
}

void ec_split_tf32_buffer(const float* src, float* head, float* tail, index_t n,
                          float scale) {
  const __m256 vscale = _mm256_set1_ps(scale);
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    const __m256 h = round_tf32_vec(v);
    _mm256_storeu_ps(head + i, h);
    _mm256_storeu_ps(tail + i,
                     round_tf32_vec(_mm256_mul_ps(vscale, _mm256_sub_ps(v, h))));
  }
  for (; i < n; ++i) {
    const float h = round_to_tf32(src[i]);
    head[i] = h;
    tail[i] = round_to_tf32(scale * (src[i] - h));
  }
}

namespace {

// One rotation over rows [0, h) of the column pair (x, y), one lane per row:
// lane r computes exactly rot_pair_scalar's x' = c*x + s*y and
// y' = (-s)*x + c*y with separate mul and add.
struct VecF32 {
  using T = float;
  using V = __m256;
  static constexpr index_t kWidth = 8;
  static V set1(T v) { return _mm256_set1_ps(v); }
  static V load(const T* p) { return _mm256_loadu_ps(p); }
  static void store(T* p, V v) { _mm256_storeu_ps(p, v); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
};

struct VecF64 {
  using T = double;
  using V = __m256d;
  static constexpr index_t kWidth = 4;
  static V set1(T v) { return _mm256_set1_pd(v); }
  static V load(const T* p) { return _mm256_loadu_pd(p); }
  static void store(T* p, V v) { _mm256_storeu_pd(p, v); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
};

template <typename Vec>
void rot_pair_vec(typename Vec::T* x, typename Vec::T* y, index_t h, typename Vec::T c,
                  typename Vec::T s) {
  using V = typename Vec::V;
  constexpr index_t w = Vec::kWidth;
  const V vc = Vec::set1(c);
  const V vs = Vec::set1(s);
  const V vns = Vec::set1(-s);
  index_t r = 0;
  // Two vectors per step: independent chains hide the mul/add latency.
  for (; r + 2 * w <= h; r += 2 * w) {
    const V x0 = Vec::load(x + r);
    const V x1 = Vec::load(x + r + w);
    const V y0 = Vec::load(y + r);
    const V y1 = Vec::load(y + r + w);
    Vec::store(x + r, Vec::add(Vec::mul(vc, x0), Vec::mul(vs, y0)));
    Vec::store(x + r + w, Vec::add(Vec::mul(vc, x1), Vec::mul(vs, y1)));
    Vec::store(y + r, Vec::add(Vec::mul(vns, x0), Vec::mul(vc, y0)));
    Vec::store(y + r + w, Vec::add(Vec::mul(vns, x1), Vec::mul(vc, y1)));
  }
  for (; r + w <= h; r += w) {
    const V x0 = Vec::load(x + r);
    const V y0 = Vec::load(y + r);
    Vec::store(x + r, Vec::add(Vec::mul(vc, x0), Vec::mul(vs, y0)));
    Vec::store(y + r, Vec::add(Vec::mul(vns, x0), Vec::mul(vc, y0)));
  }
  rot_pair_scalar(x + r, y + r, h - r, c, s);
}

template <typename Vec>
void rot_sweep_vec(typename Vec::T* q, index_t ld, index_t h, index_t i0, index_t stride,
                   index_t count, const typename Vec::T* cs) {
  using T = typename Vec::T;
  for (index_t j = 0; j < count; ++j) {
    const T c = cs[2 * j];
    if (c == kRotSkip<T>) continue;
    T* x = q + (i0 + j * stride) * ld;
    rot_pair_vec<Vec>(x, x + ld, h, c, cs[2 * j + 1]);
  }
}

}  // namespace

void rot_sweep_f32(float* q, index_t ld, index_t h, index_t i0, index_t stride,
                   index_t count, const float* cs) {
  rot_sweep_vec<VecF32>(q, ld, h, i0, stride, count, cs);
}

void rot_sweep_f64(double* q, index_t ld, index_t h, index_t i0, index_t stride,
                   index_t count, const double* cs) {
  rot_sweep_vec<VecF64>(q, ld, h, i0, stride, count, cs);
}

}  // namespace tcevd::blas::simd::avx2

#endif  // TCEVD_HAVE_AVX2
