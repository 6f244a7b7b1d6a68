// Runtime SIMD dispatch for the packed GEMM micro-kernels, the Tensor Core
// operand-convert loops and the bulge chase's rotation-wave kernel — pinned
// bitwise to the scalar reference.
//
// Resolution happens once, at first use, in three steps:
//
//   1. env override: TCEVD_SIMD=off|scalar forces the scalar reference;
//      TCEVD_SIMD=avx2 requests the AVX2 family (also on an AVX-512 host);
//      unset/auto picks the widest family that is compiled in, supported
//      and self-checked.
//   2. cpuid probe: the AVX2 family needs AVX2 + F16C (fp16 converts); the
//      AVX-512 family needs AVX-512F + FMA on top.
//   3. bitwise self-check: before a vector kernel table is installed it is
//      run against the scalar reference (gemm_microkernel_scalar.hpp,
//      rot_kernel_scalar.hpp, src/common/half.cpp) on probe problems covering
//      remainder tiles and row tails, skipped rotations, signed zeros, fp16
//      subnormal/overflow boundaries and FMA-sensitive random data; ANY
//      bit of disagreement falls the process back to scalar. This is what
//      "pinned bitwise" means operationally: a compiler that contracted the
//      vector mul/add into an FMA, or hardware whose conversions deviate
//      from the software reference, is detected and benched, never trusted.
//
// The result is cached in a process-wide table; `active_kernels()` layers a
// ScalarKernelScope force on top (bench baselines, SIMD-vs-scalar tests).
// Null function pointers in the table mean "run the scalar reference" — the
// scalar path never routes through a pointer, so it stays inlinable.
//
// Telemetry: every packed-GEMM entry call records which kernel family served
// it (dispatch_count), the analogue of gemm_pool_dispatches() for the
// threading layer.
#pragma once

#include <cstdint>

#include "src/common/matrix.hpp"

namespace tcevd {
namespace blas {
namespace simd {

enum class Level : int { Scalar = 0, Avx2 = 1, Avx512 = 2 };
inline constexpr int kLevels = 3;

using MicroKernelF32 = void (*)(index_t kc, const float* ap, const float* bp, float alpha,
                                float* c0, index_t ldc, index_t mr, index_t nr);
using MicroKernelPairF32 = void (*)(index_t kc, const float* ap1, const float* bp1,
                                    const float* ap2, const float* bp2, float alpha,
                                    float* c0, index_t ldc, index_t mr, index_t nr);
using MicroKernelF64 = void (*)(index_t kc, const double* ap, const double* bp, double alpha,
                                double* c0, index_t ldc, index_t mr, index_t nr);
using MicroKernelPairF64 = void (*)(index_t kc, const double* ap1, const double* bp1,
                                    const double* ap2, const double* bp2, double alpha,
                                    double* c0, index_t ldc, index_t mr, index_t nr);
using RoundBufferFn = void (*)(const float* src, float* dst, index_t n);
using EcSplitBufferFn = void (*)(const float* src, float* head, float* tail, index_t n,
                                 float scale);
/// Signature of blas::rot_wave_scalar (rot_kernel_scalar.hpp).
template <typename T>
using RotWaveFn = void (*)(T* q, index_t ld, index_t h, index_t n, index_t d, index_t s0,
                           index_t m, const T* cs);

/// Resolved kernel family. A null entry means "no vector kernel — run the
/// scalar reference inline".
struct KernelTable {
  MicroKernelF32 gemm_f32 = nullptr;
  MicroKernelPairF32 gemm_pair_f32 = nullptr;
  /// f32 entries for calls whose packed operands are both fp16 values (the
  /// tc-fp16 path, the EC fp16 head and tail): the product of two fp16
  /// values is exact in fp32, so a fused multiply-add equals the reference's
  /// mul-then-add bit for bit. The AVX-512 family installs FMA kernels here;
  /// other families install their plain f32 kernels.
  MicroKernelF32 gemm_f32_fp16 = nullptr;
  MicroKernelPairF32 gemm_pair_f32_fp16 = nullptr;
  MicroKernelF64 gemm_f64 = nullptr;
  MicroKernelPairF64 gemm_pair_f64 = nullptr;
  RoundBufferFn round_fp16 = nullptr;
  RoundBufferFn round_tf32 = nullptr;
  EcSplitBufferFn ec_split_fp16 = nullptr;
  EcSplitBufferFn ec_split_tf32 = nullptr;
  RotWaveFn<float> rot_wave_f32 = nullptr;
  RotWaveFn<double> rot_wave_f64 = nullptr;
  Level level = Level::Scalar;
  const char* name = "scalar";
};

/// The process-wide table, resolved and cached at first use.
const KernelTable& kernels() noexcept;

/// Table in effect for the calling context right now: the all-scalar table
/// while any ScalarKernelScope is alive, kernels() otherwise.
const KernelTable& active_kernels() noexcept;

Level active_level() noexcept;
const char* active_level_name() noexcept;
/// Human-readable reason for the resolved level ("auto-detected",
/// "TCEVD_SIMD=off", "bitwise self-check failed", ...).
const char* active_level_reason() noexcept;

/// True when the running CPU reports AVX2 + F16C.
bool cpu_supports_avx2() noexcept;
/// True when this binary contains the AVX2 kernel family at all.
bool compiled_with_avx2() noexcept;
/// True when the running CPU reports AVX-512F + FMA + AVX2 + F16C.
bool cpu_supports_avx512() noexcept;
/// True when this binary contains the AVX-512 kernel family at all.
bool compiled_with_avx512() noexcept;

/// Process-wide count of packed-GEMM dispatches served by `level` since
/// start. One dispatch == one gemm_packed / gemm_packed_split_b /
/// gemm_packed_nt_pair entry call (not one micro-tile).
std::uint64_t dispatch_count(Level level) noexcept;

/// RAII guard forcing the scalar reference kernels process-wide while alive
/// (the packed pipeline's workers must see the same kernels as the caller,
/// so the force cannot be thread-local). Nestable; used by the bench
/// baseline rows and the SIMD-vs-scalar bitwise tests.
class ScalarKernelScope {
 public:
  ScalarKernelScope() noexcept;
  ~ScalarKernelScope();
  ScalarKernelScope(const ScalarKernelScope&) = delete;
  ScalarKernelScope& operator=(const ScalarKernelScope&) = delete;
};

/// True while any ScalarKernelScope is alive.
bool scalar_kernels_forced() noexcept;

namespace detail {

/// What the resolution policy knows about one vector family: compiled into
/// this binary, supported by the CPU, and passing the bitwise self-check.
struct FamilySupport {
  bool compiled = false;
  bool cpu = false;
  bool selfcheck_ok = false;
  bool usable() const noexcept { return compiled && cpu && selfcheck_ok; }
};

/// Pure resolution policy, unit-testable without process state: decide the
/// level from the TCEVD_SIMD value (nullptr == unset) and what is known
/// about each family. `reason` receives a static string.
Level resolve_level(const char* env_value, const FamilySupport& avx2,
                    const FamilySupport& avx512, const char** reason) noexcept;

/// Bump the per-level dispatch counter (one per packed-GEMM entry call).
void record_dispatch(Level level) noexcept;

/// Re-run resolution (re-reads TCEVD_SIMD, re-probes, re-self-checks).
/// Test-only: callers must guarantee no GEMM is concurrently in flight.
void refresh_for_testing();

}  // namespace detail
}  // namespace simd
}  // namespace blas
}  // namespace tcevd
