// AVX-512 kernel family: vector twins of the scalar reference kernels.
//
// Same three rules as the AVX2 family (simd_kernels_avx2.cpp), widened:
//
//   1. One lane per row. One __m512 (two __m512d) holds the MR=16 rows of
//      one C-tile column's accumulator, so lane ii executes exactly the
//      scalar chain acc[jj][ii]. Row tails (mr < 16) use masked loads and
//      stores on C; column tails write back only the first nr columns.
//   2. Separate mul and add in every entry but the *_fp16 ones. This file is
//      compiled with -ffp-contract=off, so the compiler cannot fuse the
//      plain entries' _mm512_mul_ps + _mm512_add_ps. The *_fp16 entries call
//      _mm512_fmadd_ps explicitly: when both packed operands are fp16 values
//      their product is exact in fp32 (at most 22 significant bits, magnitude
//      within [2^-48, 2^32]), so fma(a, b, c) = fl(fl(a*b) + c) — the
//      reference's own rounding. tf32 operands keep fp32's exponent range (a
//      product can underflow or overflow), so they never reach these entries.
//      The rotation waves never fuse: their operands are full fp32/fp64.
//   3. Hardware converts only where they match the software reference
//      (VCVTPS2PH/VCVTPH2PS for fp16; tf32 is a masked-integer transcription
//      of round_to_tf32). The dispatch self-check guards the whole family.
#include "src/blas/simd_kernels_avx512.hpp"

#ifdef TCEVD_HAVE_AVX512

#include <immintrin.h>

#include <algorithm>

#include "src/blas/gemm_microkernel_scalar.hpp"
#include "src/blas/rot_wave_vec.hpp"
#include "src/common/half.hpp"

namespace tcevd::blas::simd::avx512 {

using packed::kMR;
using packed::kNR;

static_assert(kMR == 16 && kNR == 16, "AVX-512 kernels assume the 16 x 16 register tile");

namespace {

struct Vec16F32 {
  using T = float;
  using V = __m512;
  using Mask = __mmask16;
  static constexpr index_t kWidth = 16;
  static V zero() { return _mm512_setzero_ps(); }
  static V set1(T v) { return _mm512_set1_ps(v); }
  static V load(const T* p) { return _mm512_load_ps(p); }
  static V loadu(const T* p) { return _mm512_loadu_ps(p); }
  static void storeu(T* p, V v) { _mm512_storeu_ps(p, v); }
  static V maskz_loadu(Mask m, const T* p) { return _mm512_maskz_loadu_ps(m, p); }
  static void mask_storeu(T* p, Mask m, V v) { _mm512_mask_storeu_ps(p, m, v); }
  static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V add(V a, V b) { return _mm512_add_ps(a, b); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
};

struct Vec8F64 {
  using T = double;
  using V = __m512d;
  using Mask = __mmask8;
  static constexpr index_t kWidth = 8;
  static V zero() { return _mm512_setzero_pd(); }
  static V set1(T v) { return _mm512_set1_pd(v); }
  static V load(const T* p) { return _mm512_load_pd(p); }
  static V loadu(const T* p) { return _mm512_loadu_pd(p); }
  static void storeu(T* p, V v) { _mm512_storeu_pd(p, v); }
  static V maskz_loadu(Mask m, const T* p) { return _mm512_maskz_loadu_pd(m, p); }
  static void mask_storeu(T* p, Mask m, V v) { _mm512_mask_storeu_pd(p, m, v); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
};

/// Lanes [0, count) of a vector, count clamped to [0, 16].
inline unsigned lane_mask(index_t count) {
  if (count <= 0) return 0u;
  if (count >= 16) return 0xffffu;
  return (1u << count) - 1u;
}

// NP products (1: plain, 2: pair) over column chunks of CW, R vectors per
// panel row. Each chunk's CW x NP x R accumulators stay in registers (at most
// 16 of the 32); the packed A panel is re-read once per chunk, which never
// touches any element's chain.
template <class Vec, int NP, int CW, bool Fma>
void gemm_chunked(index_t kc, const typename Vec::T* const (&ap)[NP],
                  const typename Vec::T* const (&bp)[NP], typename Vec::T alpha,
                  typename Vec::T* c0, index_t ldc, index_t mr, index_t nr) {
  using V = typename Vec::V;
  using Mask = typename Vec::Mask;
  constexpr int R = static_cast<int>(kMR / Vec::kWidth);
  constexpr index_t w = Vec::kWidth;
  const V valpha = Vec::set1(alpha);
  Mask rows[R];
  for (int r = 0; r < R; ++r) rows[r] = static_cast<Mask>(lane_mask(mr - r * w));
  for (index_t j0 = 0; j0 < nr; j0 += CW) {
    V acc[CW][NP][R];
#pragma GCC unroll 16
    for (int jj = 0; jj < CW; ++jj)
      for (int p = 0; p < NP; ++p)
        for (int r = 0; r < R; ++r) acc[jj][p][r] = Vec::zero();
    for (index_t k = 0; k < kc; ++k) {
      V av[NP][R];
      for (int p = 0; p < NP; ++p)
        for (int r = 0; r < R; ++r) av[p][r] = Vec::load(ap[p] + k * kMR + r * w);
#pragma GCC unroll 16
      for (int jj = 0; jj < CW; ++jj) {
        for (int p = 0; p < NP; ++p) {
          const V bv = Vec::set1(bp[p][k * kNR + j0 + jj]);
          for (int r = 0; r < R; ++r) {
            if constexpr (Fma)
              acc[jj][p][r] = Vec::fma(av[p][r], bv, acc[jj][p][r]);
            else
              acc[jj][p][r] = Vec::add(acc[jj][p][r], Vec::mul(av[p][r], bv));
          }
        }
      }
    }
    const index_t jend = std::min<index_t>(CW, nr - j0);
    for (index_t jj = 0; jj < jend; ++jj) {
      typename Vec::T* cc = c0 + (j0 + jj) * ldc;
      for (int r = 0; r < R; ++r) {
        V sum = acc[jj][0][r];
        if constexpr (NP == 2) sum = Vec::add(acc[jj][0][r], acc[jj][1][r]);
        const V c = Vec::maskz_loadu(rows[r], cc + r * w);
        Vec::mask_storeu(cc + r * w, rows[r], Vec::add(c, Vec::mul(valpha, sum)));
      }
    }
  }
}

// f32 plain tiles: a 16-column chunk when more than 8 columns are live, an
// 8-column one otherwise (the skinny tails never pay for dead columns).
template <bool Fma>
void gemm_f32(index_t kc, const float* ap, const float* bp, float alpha, float* c0,
              index_t ldc, index_t mr, index_t nr) {
  if (nr > 8)
    gemm_chunked<Vec16F32, 1, 16, Fma>(kc, {ap}, {bp}, alpha, c0, ldc, mr, nr);
  else
    gemm_chunked<Vec16F32, 1, 8, Fma>(kc, {ap}, {bp}, alpha, c0, ldc, mr, nr);
}

}  // namespace

void micro_kernel_f32(index_t kc, const float* ap, const float* bp, float alpha, float* c0,
                      index_t ldc, index_t mr, index_t nr) {
  gemm_f32<false>(kc, ap, bp, alpha, c0, ldc, mr, nr);
}

void micro_kernel_f32_fp16(index_t kc, const float* ap, const float* bp, float alpha,
                           float* c0, index_t ldc, index_t mr, index_t nr) {
  gemm_f32<true>(kc, ap, bp, alpha, c0, ldc, mr, nr);
}

void micro_kernel_pair_f32(index_t kc, const float* ap1, const float* bp1, const float* ap2,
                           const float* bp2, float alpha, float* c0, index_t ldc, index_t mr,
                           index_t nr) {
  gemm_chunked<Vec16F32, 2, 8, false>(kc, {ap1, ap2}, {bp1, bp2}, alpha, c0, ldc, mr, nr);
}

void micro_kernel_pair_f32_fp16(index_t kc, const float* ap1, const float* bp1,
                                const float* ap2, const float* bp2, float alpha, float* c0,
                                index_t ldc, index_t mr, index_t nr) {
  gemm_chunked<Vec16F32, 2, 8, true>(kc, {ap1, ap2}, {bp1, bp2}, alpha, c0, ldc, mr, nr);
}

void micro_kernel_f64(index_t kc, const double* ap, const double* bp, double alpha,
                      double* c0, index_t ldc, index_t mr, index_t nr) {
  gemm_chunked<Vec8F64, 1, 8, false>(kc, {ap}, {bp}, alpha, c0, ldc, mr, nr);
}

void micro_kernel_pair_f64(index_t kc, const double* ap1, const double* bp1,
                           const double* ap2, const double* bp2, double alpha, double* c0,
                           index_t ldc, index_t mr, index_t nr) {
  gemm_chunked<Vec8F64, 2, 4, false>(kc, {ap1, ap2}, {bp1, bp2}, alpha, c0, ldc, mr, nr);
}

namespace {

// The zero-masked forms with a full mask are the plain converts; GCC 12's
// unmasked intrinsics start from an "undefined" vector it then warns about.
inline __m512 round_fp16_vec(__m512 v) {
  const __m256i h =
      _mm512_maskz_cvtps_ph(0xffff, v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  return _mm512_maskz_cvtph_ps(0xffff, h);
}

// Lane-parallel transcription of round_to_tf32 (src/common/half.cpp): RNE of
// the fp32 mantissa to 10 bits (round bit 0x1000, kept LSB 0x2000), inf/NaN
// pass through untouched.
inline __m512 round_tf32_vec(__m512 v) {
  const __m512i x = _mm512_castps_si512(v);
  const __m512i expmask = _mm512_set1_epi32(0x7f800000);
  const __mmask16 special = _mm512_cmpeq_epi32_mask(_mm512_and_si512(x, expmask), expmask);
  const __m512i remmask = _mm512_set1_epi32(0x1fff);
  const __m512i rem = _mm512_and_si512(x, remmask);
  const __m512i base = _mm512_and_si512(x, _mm512_set1_epi32(~0x1fff));
  const __m512i half = _mm512_set1_epi32(0x1000);
  const __mmask16 gt = _mm512_cmpgt_epi32_mask(rem, half);
  const __mmask16 eq = _mm512_cmpeq_epi32_mask(rem, half);
  const __mmask16 odd = _mm512_test_epi32_mask(base, _mm512_set1_epi32(0x2000));
  const __mmask16 up = static_cast<__mmask16>(gt | (eq & odd));
  const __m512i bumped = _mm512_mask_add_epi32(base, up, base, _mm512_set1_epi32(0x2000));
  return _mm512_castsi512_ps(_mm512_mask_mov_epi32(bumped, special, x));
}

// dst = round(src) over [0, n), whole vectors then one masked tail.
template <__m512 (*Round)(__m512)>
void round_buffer(const float* src, float* dst, index_t n) {
  index_t i = 0;
  for (; i + 16 <= n; i += 16) _mm512_storeu_ps(dst + i, Round(_mm512_loadu_ps(src + i)));
  if (i < n) {
    const __mmask16 m = static_cast<__mmask16>(lane_mask(n - i));
    _mm512_mask_storeu_ps(dst + i, m, Round(_mm512_maskz_loadu_ps(m, src + i)));
  }
}

// head = round(v), tail = round(scale * (v - head)); v is read once into a
// register, so head may alias src.
template <__m512 (*Round)(__m512)>
void ec_split(const float* src, float* head, float* tail, index_t n, float scale) {
  const __m512 vscale = _mm512_set1_ps(scale);
  for (index_t i = 0; i < n; i += 16) {
    const __mmask16 m = static_cast<__mmask16>(lane_mask(n - i));
    const __m512 v = _mm512_maskz_loadu_ps(m, src + i);
    const __m512 h = Round(v);
    _mm512_mask_storeu_ps(head + i, m, h);
    _mm512_mask_storeu_ps(tail + i, m, Round(_mm512_mul_ps(vscale, _mm512_sub_ps(v, h))));
  }
}

}  // namespace

void round_fp16_buffer(const float* src, float* dst, index_t n) {
  round_buffer<round_fp16_vec>(src, dst, n);
}

void round_tf32_buffer(const float* src, float* dst, index_t n) {
  round_buffer<round_tf32_vec>(src, dst, n);
}

void ec_split_fp16_buffer(const float* src, float* head, float* tail, index_t n,
                          float scale) {
  ec_split<round_fp16_vec>(src, head, tail, n, scale);
}

void ec_split_tf32_buffer(const float* src, float* head, float* tail, index_t n,
                          float scale) {
  ec_split<round_tf32_vec>(src, head, tail, n, scale);
}

namespace {

// Rotation waves: register-blocked passes of eight vectors of rows
// (rot_wave_vec.hpp), a whole 512-byte panel column per pass, then one pass
// over the row tail with its last vector masked.
template <typename Vec, int NV>
void rot_wave_tail(typename Vec::T* q, index_t ld, index_t rows, index_t n, index_t d,
                   index_t s0, index_t m, const typename Vec::T* cs) {
  using T = typename Vec::T;
  using V = typename Vec::V;
  using Mask = typename Vec::Mask;
  const Mask last = static_cast<Mask>(lane_mask(rows - (NV - 1) * Vec::kWidth));
  detail::rot_wave_pass<Vec, NV>(
      q, ld, n, d, s0, m, cs,
      [last](const T* p, int i) {
        return i == NV - 1 ? Vec::maskz_loadu(last, p) : Vec::loadu(p);
      },
      [last](T* p, int i, V v) {
        if (i == NV - 1) {
          Vec::mask_storeu(p, last, v);
        } else {
          Vec::storeu(p, v);
        }
      });
}

template <typename Vec>
void rot_wave(typename Vec::T* q, index_t ld, index_t h, index_t n, index_t d, index_t s0,
              index_t m, const typename Vec::T* cs) {
  using T = typename Vec::T;
  using V = typename Vec::V;
  constexpr index_t w = Vec::kWidth;
  constexpr int kBlock = 8;  // the tail switch below covers 1 .. kBlock vectors
  index_t r = 0;
  for (; r + kBlock * w <= h; r += kBlock * w) {
    detail::rot_wave_pass<Vec, kBlock>(
        q + r, ld, n, d, s0, m, cs, [](const T* p, int) { return Vec::loadu(p); },
        [](T* p, int, V v) { Vec::storeu(p, v); });
  }
  switch ((h - r + w - 1) / w) {
    case 1: rot_wave_tail<Vec, 1>(q + r, ld, h - r, n, d, s0, m, cs); break;
    case 2: rot_wave_tail<Vec, 2>(q + r, ld, h - r, n, d, s0, m, cs); break;
    case 3: rot_wave_tail<Vec, 3>(q + r, ld, h - r, n, d, s0, m, cs); break;
    case 4: rot_wave_tail<Vec, 4>(q + r, ld, h - r, n, d, s0, m, cs); break;
    case 5: rot_wave_tail<Vec, 5>(q + r, ld, h - r, n, d, s0, m, cs); break;
    case 6: rot_wave_tail<Vec, 6>(q + r, ld, h - r, n, d, s0, m, cs); break;
    case 7: rot_wave_tail<Vec, 7>(q + r, ld, h - r, n, d, s0, m, cs); break;
    case 8: rot_wave_tail<Vec, 8>(q + r, ld, h - r, n, d, s0, m, cs); break;
    default: break;
  }
}

}  // namespace

void rot_wave_f32(float* q, index_t ld, index_t h, index_t n, index_t d, index_t s0,
                  index_t m, const float* cs) {
  rot_wave<Vec16F32>(q, ld, h, n, d, s0, m, cs);
}

void rot_wave_f64(double* q, index_t ld, index_t h, index_t n, index_t d, index_t s0,
                  index_t m, const double* cs) {
  rot_wave<Vec8F64>(q, ld, h, n, d, s0, m, cs);
}

}  // namespace tcevd::blas::simd::avx512

#endif  // TCEVD_HAVE_AVX512
