// Tensor Core operand conversion: the ONE home for fp16/TF32 operand
// rounding and the EC head–tail split.
//
// Before this header existed, the scalar rounding logic was spelled three
// times — tc_gemm.cpp's RoundTransform + round_matrix, tc_syr2k.cpp's copy of
// RoundTransform, and mma_tile.cpp's fragment loop — with the EC split
// functors a fourth variant in ec_tcgemm.cpp. They all collapse onto
// round_operand / round_buffer / ec_split_buffer here, which also gives every
// call site the runtime-dispatched SIMD convert kernels for free: the batch
// forms route through simd::active_kernels() (bitwise-pinned to the scalar
// reference in src/common/half.cpp, see simd_dispatch.hpp) and fall back to
// the scalar loop when no vector kernel is installed.
//
// The PackTransform functors expose both the per-element operator() the
// packed-GEMM pack loops require and the batch apply() fast path they prefer
// (gemm_packed.hpp's HasBatchApply/HasBatchSplit detection), plus
// fp16_values(): true for the fp16 precision, whose every output is an fp16
// value — the condition for the exact-FMA micro-kernel entry.
#pragma once

#include "src/blas/simd_dispatch.hpp"
#include "src/common/aligned.hpp"
#include "src/common/half.hpp"
#include "src/common/matrix.hpp"

namespace tcevd::tc {

/// Input precision the emulated Tensor Core ingests.
enum class TcPrecision {
  Fp16,  ///< binary16 operands (machine eps ~ 9.8e-4)
  Tf32,  ///< TF32 operands (same 10-bit mantissa, fp32 exponent range)
};

/// Round an fp32 value to the given Tensor Core input precision.
inline float round_operand(float v, TcPrecision prec) noexcept {
  return prec == TcPrecision::Fp16 ? round_to_half(v) : round_to_tf32(v);
}

/// dst[i] = round_operand(src[i], prec) for a contiguous run; src == dst
/// (in-place) is allowed.
inline void round_buffer(const float* src, float* dst, index_t n, TcPrecision prec) {
  const blas::simd::KernelTable& kt = blas::simd::active_kernels();
  const blas::simd::RoundBufferFn fn =
      prec == TcPrecision::Fp16 ? kt.round_fp16 : kt.round_tf32;
  if (fn != nullptr) {
    fn(src, dst, n);
    return;
  }
  for (index_t i = 0; i < n; ++i) dst[i] = round_operand(src[i], prec);
}

/// head[i] = round(src[i]); tail[i] = round(scale * (src[i] - head[i])) — the
/// EC decomposition — for a contiguous run; head == src is allowed.
inline void ec_split_buffer(const float* src, float* head, float* tail, index_t n,
                            float scale, TcPrecision prec) {
  const blas::simd::KernelTable& kt = blas::simd::active_kernels();
  const blas::simd::EcSplitBufferFn fn =
      prec == TcPrecision::Fp16 ? kt.ec_split_fp16 : kt.ec_split_tf32;
  if (fn != nullptr) {
    fn(src, head, tail, n, scale);
    return;
  }
  for (index_t i = 0; i < n; ++i) {
    const float v = src[i];
    const float h = round_operand(v, prec);
    head[i] = h;
    tail[i] = round_operand(scale * (v - h), prec);
  }
}

/// PackTransform rounding each operand element to the TC input precision as
/// it is packed (fragment-load rounding): the tc_gemm / tc_syr2k / EC-head
/// operand transform.
struct RoundTransform {
  TcPrecision prec;
  float operator()(float v) const { return round_operand(v, prec); }
  bool fp16_values() const { return prec == TcPrecision::Fp16; }
  void apply(const float* src, float* dst, index_t n) const {
    round_buffer(src, dst, n, prec);
  }
};

/// PackTransform producing only the scaled residual round(s * (v - head)).
/// The batch form stages the (discarded) heads in a small stack buffer so the
/// split kernel still does the work in one vector pass.
struct EcTailTransform {
  TcPrecision prec;
  float scale;
  float operator()(float v) const {
    const float h = round_operand(v, prec);
    return round_operand(scale * (v - h), prec);
  }
  bool fp16_values() const { return prec == TcPrecision::Fp16; }
  void apply(const float* src, float* dst, index_t n) const {
    constexpr index_t kChunk = 256;
    alignas(kKernelAlignment) float head[kChunk];
    for (index_t i = 0; i < n; i += kChunk) {
      const index_t c = n - i < kChunk ? n - i : kChunk;
      ec_split_buffer(src + i, head, dst + i, c, scale, prec);
    }
  }
};

/// Dual PackTransform for the split B pack: head and tail from one read of v.
struct EcHeadTailSplit {
  TcPrecision prec;
  float scale;
  void operator()(float v, float& h, float& t) const {
    h = round_operand(v, prec);
    t = round_operand(scale * (v - h), prec);
  }
  bool fp16_values() const { return prec == TcPrecision::Fp16; }
  void apply(const float* src, float* head, float* tail, index_t n) const {
    ec_split_buffer(src, head, tail, n, scale, prec);
  }
};

}  // namespace tcevd::tc
