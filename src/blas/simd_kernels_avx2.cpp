// AVX2 kernel family: vector twins of the scalar reference kernels.
//
// Bitwise identity with the scalar reference is the design constraint, not a
// best-effort goal. Three rules enforce it:
//
//   1. One lane per row. Two __m256 (or four __m256d) hold the MR=16 rows of
//      one C-tile column's accumulator. Lane ii then executes exactly the
//      scalar chain acc[jj][ii]: the same multiplies, the same adds, in the
//      same k order. Column chunking (every kernel chunks columns to fit the
//      16-register budget) re-reads the packed A panel but never touches a
//      given element's chain, so it is invisible bitwise.
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
// Remainders: mr < 16 spills the accumulator to an aligned temp and finishes
// with the scalar writeback; n % 8 convert tails and the row tails of the
// rotation waves run the scalar reference.
#include "src/blas/simd_kernels_avx2.hpp"

#ifdef TCEVD_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>

#include "src/blas/gemm_microkernel_scalar.hpp"
#include "src/blas/rot_wave_vec.hpp"
#include "src/common/half.hpp"

namespace tcevd::blas::simd::avx2 {

using packed::kMR;
using packed::kNR;

static_assert(kMR == 16 && kNR == 16, "AVX2 kernels assume the 16 x 16 register tile");

namespace {

struct Vec8F32 {
  using T = float;
  using V = __m256;
  static constexpr index_t kWidth = 8;
  static V zero() { return _mm256_setzero_ps(); }
  static V set1(T v) { return _mm256_set1_ps(v); }
  static V load(const T* p) { return _mm256_load_ps(p); }
  static V loadu(const T* p) { return _mm256_loadu_ps(p); }
  static void store(T* p, V v) { _mm256_store_ps(p, v); }
  static void storeu(T* p, V v) { _mm256_storeu_ps(p, v); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
};

struct Vec4F64 {
  using T = double;
  using V = __m256d;
  static constexpr index_t kWidth = 4;
  static V zero() { return _mm256_setzero_pd(); }
  static V set1(T v) { return _mm256_set1_pd(v); }
  static V load(const T* p) { return _mm256_load_pd(p); }
  static V loadu(const T* p) { return _mm256_loadu_pd(p); }
  static void store(T* p, V v) { _mm256_store_pd(p, v); }
  static void storeu(T* p, V v) { _mm256_storeu_pd(p, v); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
};

// C(:, col) += alpha * sum over the NP products' accumulators of one column:
// full panels write back vector-wise, mr < kMR spills to an aligned temp and
// finishes with the scalar reference's writeback.
template <class Vec, int R, int NP>
inline void write_column(typename Vec::T* cc, const typename Vec::V (&acc)[NP][R],
                         typename Vec::T alpha, index_t mr) {
  using V = typename Vec::V;
  constexpr index_t w = Vec::kWidth;
  V sum[R];
  for (int r = 0; r < R; ++r) {
    sum[r] = acc[0][r];
    if constexpr (NP == 2) sum[r] = Vec::add(acc[0][r], acc[1][r]);
  }
  if (mr == kMR) {
    const V valpha = Vec::set1(alpha);
    for (int r = 0; r < R; ++r)
      Vec::storeu(cc + r * w, Vec::add(Vec::loadu(cc + r * w), Vec::mul(valpha, sum[r])));
  } else {
    alignas(32) typename Vec::T tmp[kMR];
    for (int r = 0; r < R; ++r) Vec::store(tmp + r * w, sum[r]);
    for (index_t ii = 0; ii < mr; ++ii) cc[ii] += alpha * tmp[ii];
  }
}

// NP products (1: plain, 2: pair) over column chunks of CW: the chunk's
// CW x R accumulators per product stay in registers, and the packed A panel
// is re-read once per chunk (a re-read never touches any element's chain).
template <class Vec, int NP, int CW>
void gemm_chunked(index_t kc, const typename Vec::T* const (&ap)[NP],
                  const typename Vec::T* const (&bp)[NP], typename Vec::T alpha,
                  typename Vec::T* c0, index_t ldc, index_t mr, index_t nr) {
  using V = typename Vec::V;
  constexpr int R = static_cast<int>(kMR / Vec::kWidth);
  constexpr index_t w = Vec::kWidth;
  for (index_t j0 = 0; j0 < nr; j0 += CW) {
    V acc[CW][NP][R];
    for (int jj = 0; jj < CW; ++jj)
      for (int p = 0; p < NP; ++p)
        for (int r = 0; r < R; ++r) acc[jj][p][r] = Vec::zero();
    for (index_t k = 0; k < kc; ++k) {
      V av[NP][R];
      for (int p = 0; p < NP; ++p)
        for (int r = 0; r < R; ++r) av[p][r] = Vec::load(ap[p] + k * kMR + r * w);
      for (int jj = 0; jj < CW; ++jj) {
        for (int p = 0; p < NP; ++p) {
          const V bv = Vec::set1(bp[p][k * kNR + j0 + jj]);
          for (int r = 0; r < R; ++r)
            acc[jj][p][r] = Vec::add(acc[jj][p][r], Vec::mul(av[p][r], bv));
        }
      }
    }
    const index_t jend = std::min<index_t>(CW, nr - j0);
    for (index_t jj = 0; jj < jend; ++jj)
      write_column<Vec, R, NP>(c0 + (j0 + jj) * ldc, acc[jj], alpha, mr);
  }
}

}  // namespace

void micro_kernel_f32(index_t kc, const float* ap, const float* bp, float alpha, float* c0,
                      index_t ldc, index_t mr, index_t nr) {
  gemm_chunked<Vec8F32, 1, 4>(kc, {ap}, {bp}, alpha, c0, ldc, mr, nr);
}

void micro_kernel_pair_f32(index_t kc, const float* ap1, const float* bp1, const float* ap2,
                           const float* bp2, float alpha, float* c0, index_t ldc, index_t mr,
                           index_t nr) {
  gemm_chunked<Vec8F32, 2, 2>(kc, {ap1, ap2}, {bp1, bp2}, alpha, c0, ldc, mr, nr);
}

void micro_kernel_f64(index_t kc, const double* ap, const double* bp, double alpha,
                      double* c0, index_t ldc, index_t mr, index_t nr) {
  gemm_chunked<Vec4F64, 1, 2>(kc, {ap}, {bp}, alpha, c0, ldc, mr, nr);
}

void micro_kernel_pair_f64(index_t kc, const double* ap1, const double* bp1,
                           const double* ap2, const double* bp2, double alpha, double* c0,
                           index_t ldc, index_t mr, index_t nr) {
  gemm_chunked<Vec4F64, 2, 1>(kc, {ap1, ap2}, {bp1, bp2}, alpha, c0, ldc, mr, nr);
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
    const float v = src[i];
    const float h = round_to_half(v);
    head[i] = h;
    tail[i] = round_to_half(scale * (v - h));
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
    const float v = src[i];
    const float h = round_to_tf32(v);
    head[i] = h;
    tail[i] = round_to_tf32(scale * (v - h));
  }
}

namespace {

// Rotation waves: register-blocked passes of eight vectors of rows
// (rot_wave_vec.hpp), one pass over the remaining full vectors, and the
// scalar reference for the last rows.
template <typename Vec, int NV>
void rot_wave_pass(typename Vec::T* q, index_t ld, index_t n, index_t d, index_t s0,
                   index_t m, const typename Vec::T* cs) {
  using T = typename Vec::T;
  using V = typename Vec::V;
  detail::rot_wave_pass<Vec, NV>(
      q, ld, n, d, s0, m, cs, [](const T* p, int) { return Vec::loadu(p); },
      [](T* p, int, V v) { Vec::storeu(p, v); });
}

template <typename Vec>
void rot_wave(typename Vec::T* q, index_t ld, index_t h, index_t n, index_t d, index_t s0,
              index_t m, const typename Vec::T* cs) {
  constexpr index_t w = Vec::kWidth;
  constexpr int kBlock = 8;  // the switch below covers 1 .. kBlock - 1 vectors
  index_t r = 0;
  for (; r + kBlock * w <= h; r += kBlock * w) {
    rot_wave_pass<Vec, kBlock>(q + r, ld, n, d, s0, m, cs);
  }
  switch ((h - r) / w) {
    case 1: rot_wave_pass<Vec, 1>(q + r, ld, n, d, s0, m, cs); break;
    case 2: rot_wave_pass<Vec, 2>(q + r, ld, n, d, s0, m, cs); break;
    case 3: rot_wave_pass<Vec, 3>(q + r, ld, n, d, s0, m, cs); break;
    case 4: rot_wave_pass<Vec, 4>(q + r, ld, n, d, s0, m, cs); break;
    case 5: rot_wave_pass<Vec, 5>(q + r, ld, n, d, s0, m, cs); break;
    case 6: rot_wave_pass<Vec, 6>(q + r, ld, n, d, s0, m, cs); break;
    case 7: rot_wave_pass<Vec, 7>(q + r, ld, n, d, s0, m, cs); break;
    default: break;
  }
  r += (h - r) / w * w;
  if (r < h) rot_wave_scalar(q + r, ld, h - r, n, d, s0, m, cs);
}

}  // namespace

void rot_wave_f32(float* q, index_t ld, index_t h, index_t n, index_t d, index_t s0,
                  index_t m, const float* cs) {
  rot_wave<Vec8F32>(q, ld, h, n, d, s0, m, cs);
}

void rot_wave_f64(double* q, index_t ld, index_t h, index_t n, index_t d, index_t s0,
                  index_t m, const double* cs) {
  rot_wave<Vec4F64>(q, ld, h, n, d, s0, m, cs);
}

}  // namespace tcevd::blas::simd::avx2

#endif  // TCEVD_HAVE_AVX2
