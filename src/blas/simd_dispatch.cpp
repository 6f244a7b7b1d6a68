#include "src/blas/simd_dispatch.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#include "src/blas/gemm_microkernel_scalar.hpp"
#include "src/blas/rot_kernel_scalar.hpp"
#include "src/blas/simd_kernels_avx2.hpp"
#include "src/blas/simd_kernels_avx512.hpp"
#include "src/common/half.hpp"

namespace tcevd {
namespace blas {
namespace simd {

namespace {

struct Resolution {
  KernelTable table;
  const char* reason = "not yet resolved";
};

std::mutex g_resolve_mutex;
Resolution g_resolution;
std::atomic<bool> g_resolved{false};
std::atomic<std::uint64_t> g_dispatch_counts[kLevels] = {{0}, {0}, {0}};
std::atomic<int> g_scalar_force{0};

// The all-null table active_kernels() returns while a ScalarKernelScope is
// alive: null entries mean "run the inline scalar reference".
const KernelTable g_scalar_table{};

#ifdef TCEVD_HAVE_AVX2

// Deterministic value streams for the self-check probes. Plain LCG; the
// mantissas are effectively random, which is exactly what makes the probes
// FMA-sensitive: fl(fl(a*b)+c) != fl(a*b+c) for roughly half of random
// inputs, so a contracted (vfmadd) kernel cannot survive the comparison.
std::uint32_t lcg_next(std::uint32_t& s) noexcept {
  s = s * 1664525u + 1013904223u;
  return s;
}

float lcg_f32(std::uint32_t& s) noexcept {
  return static_cast<float>((lcg_next(s) >> 8) & 0xffffu) / 16384.0f - 2.0f;
}

double lcg_f64(std::uint32_t& s) noexcept {
  return static_cast<double>((lcg_next(s) >> 8) & 0xffffu) / 16384.0 - 2.0;
}

// fp16 values across the whole binary16 range — subnormals from 2^-24 up to
// normals near 2^15 — so products span [2^-48, 2^30] and exercise the
// exact-product argument behind the fp16-operand (FMA) entries.
float lcg_f16(std::uint32_t& s) noexcept {
  const std::uint32_t r = lcg_next(s);
  const int e = static_cast<int>((r >> 8) % 40u) - 24;
  const float mant = 1.0f + static_cast<float>((r >> 16) & 0x3ffu) / 1024.0f;
  const float v = std::ldexp(mant, e);
  return round_to_half((r & 1u) != 0 ? -v : v);
}

constexpr index_t kProbeMaxKc = 64;
constexpr index_t kProbeKcs[] = {1, 7, 64};
constexpr index_t kProbeMrs[] = {1, 9, 16};
constexpr index_t kProbeNrs[] = {1, 7, 9, 16};

template <typename T>
bool check_micro_kernels(void (*vec_plain)(index_t, const T*, const T*, T, T*, index_t,
                                           index_t, index_t),
                         void (*vec_pair)(index_t, const T*, const T*, const T*, const T*, T,
                                          T*, index_t, index_t, index_t),
                         T (*draw)(std::uint32_t&)) {
  using packed::kMR;
  using packed::kNR;
  alignas(64) T ap1[kProbeMaxKc * kMR];
  alignas(64) T bp1[kProbeMaxKc * kNR];
  alignas(64) T ap2[kProbeMaxKc * kMR];
  alignas(64) T bp2[kProbeMaxKc * kNR];
  std::uint32_t seed = 0xc0ffee11u;
  for (auto& v : ap1) v = draw(seed);
  for (auto& v : bp1) v = draw(seed);
  for (auto& v : ap2) v = draw(seed);
  for (auto& v : bp2) v = draw(seed);
  const T alphas[] = {T{1}, T{-0.75}};
  T cbase[kMR * kNR];
  T cref[kMR * kNR];
  T cvec[kMR * kNR];
  for (auto& v : cbase) v = draw(seed);
  for (const index_t kc : kProbeKcs) {
    for (const index_t mr : kProbeMrs) {
      for (const index_t nr : kProbeNrs) {
        for (const T alpha : alphas) {
          // Comparing the full kMR x kNR footprint (ldc == kMR) also proves
          // the vector kernel leaves rows/columns past mr/nr untouched.
          std::memcpy(cref, cbase, sizeof cbase);
          std::memcpy(cvec, cbase, sizeof cbase);
          packed::micro_kernel_scalar(kc, ap1, bp1, alpha, cref, kMR, mr, nr);
          vec_plain(kc, ap1, bp1, alpha, cvec, kMR, mr, nr);
          if (std::memcmp(cref, cvec, sizeof cref) != 0) return false;

          std::memcpy(cref, cbase, sizeof cbase);
          std::memcpy(cvec, cbase, sizeof cbase);
          packed::micro_kernel_pair_scalar(kc, ap1, bp1, ap2, bp2, alpha, cref, kMR, mr, nr);
          vec_pair(kc, ap1, bp1, ap2, bp2, alpha, cvec, kMR, mr, nr);
          if (std::memcmp(cref, cvec, sizeof cref) != 0) return false;
        }
      }
    }
  }
  return true;
}

bool check_convert_kernels(const KernelTable& t) {
  // Specials first (fp16 boundaries, subnormal thresholds, inf, default
  // qNaN), then LCG patterns whose exponents sweep 2^-31 .. 2^16 so the
  // fp16 subnormal and overflow regions both get dense random coverage.
  constexpr index_t kN = 1024 + 13;  // odd tail exercises the remainder path
  float src[kN];
  index_t i = 0;
  const float inf = __builtin_inff();
  for (const float v :
       {0.0f, -0.0f, 1.0f, -1.0f, 1.5f, 65504.0f, -65504.0f, 65519.5f, 65520.0f, -65520.0f,
        65536.0f, 1e30f, 6.103515625e-05f /* 2^-14 */, 3.0517578125e-05f /* 2^-15 */,
        5.960464477539063e-08f /* 2^-24 */, 2.9802322387695312e-08f /* 2^-25 */, 4.5e-08f,
        2.8e-08f, 1e-38f, inf, -inf, __builtin_nanf("")}) {
    src[i++] = v;
  }
  std::uint32_t seed = 0xdecade01u;
  for (; i < kN; ++i) {
    const std::uint32_t sign = (lcg_next(seed) & 1u) << 31;
    const std::uint32_t exp = 96u + (lcg_next(seed) % 48u);
    const std::uint32_t mant = lcg_next(seed) & 0x007fffffu;
    std::uint32_t bits = sign | (exp << 23) | mant;
    std::memcpy(&src[i], &bits, sizeof bits);
  }

  float ref[kN];
  float vec[kN];
  float ref_tail[kN];
  float vec_tail[kN];
  const float scale = 2048.0f;
  float (*const rounds[2])(float) = {&round_to_half, &round_to_tf32};
  const RoundBufferFn round_fns[2] = {t.round_fp16, t.round_tf32};
  const EcSplitBufferFn split_fns[2] = {t.ec_split_fp16, t.ec_split_tf32};

  for (int f = 0; f < 2; ++f) {
    for (index_t j = 0; j < kN; ++j) ref[j] = rounds[f](src[j]);
    round_fns[f](src, vec, kN);
    if (std::memcmp(ref, vec, sizeof ref) != 0) return false;
    std::memcpy(vec, src, sizeof vec);  // in-place form
    round_fns[f](vec, vec, kN);
    if (std::memcmp(ref, vec, sizeof ref) != 0) return false;

    for (index_t j = 0; j < kN; ++j) {
      const float h = rounds[f](src[j]);
      ref[j] = h;
      ref_tail[j] = rounds[f](scale * (src[j] - h));
    }
    split_fns[f](src, vec, vec_tail, kN, scale);
    if (std::memcmp(ref, vec, sizeof ref) != 0) return false;
    if (std::memcmp(ref_tail, vec_tail, sizeof ref_tail) != 0) return false;
    std::memcpy(vec, src, sizeof vec);  // head aliasing src, as packing uses it
    split_fns[f](vec, vec, vec_tail, kN, scale);
    if (std::memcmp(ref, vec, sizeof ref) != 0) return false;
    if (std::memcmp(ref_tail, vec_tail, sizeof ref_tail) != 0) return false;
  }
  return true;
}

// Rotation waves against the serial sweep-by-sweep replay, so the probe
// pins the wave order as well as the arithmetic: row counts around the
// vector widths exercise every tail path, diagonal distances 2, 3 and 5 give
// every lag pattern, a skip marker and signed zeros in the data catch a
// kernel that applies a skipped rotation as the identity, and the full-block
// memcmp proves columns outside the rotated planes stay untouched.
template <typename T>
bool check_rot_wave(RotWaveFn<T> vec, T (*draw)(std::uint32_t&)) {
  constexpr index_t kCols = 13;
  constexpr index_t kMaxRows = 131;
  constexpr index_t kS0 = 1;
  constexpr index_t kSweeps = 7;
  std::vector<T> base(kMaxRows * kCols);
  std::vector<T> ref(base.size());
  std::vector<T> got(base.size());
  T cs[2 * kSweeps * kCols];
  std::uint32_t seed = 0x5eed0b1eu;
  for (index_t i = 0; i < kMaxRows * kCols; ++i)
    base[i] = (i % 5 == 0) ? ((i % 2 == 0) ? T{0} : -T{0}) : draw(seed);
  for (index_t j = 0; j < kSweeps * kCols; ++j) {
    cs[2 * j] = draw(seed) / T{2};
    cs[2 * j + 1] = draw(seed) / T{2};
  }
  cs[2 * 3] = kRotSkip<T>;
  // Every count of tail vectors at every width, in blocks of 8 vectors:
  // 8 floats and 4 doubles (AVX2), 16 floats and 8 doubles (AVX-512).
  for (const index_t h : {index_t{1}, index_t{3}, index_t{7}, index_t{8}, index_t{9},
                          index_t{13}, index_t{16}, index_t{17}, index_t{21}, index_t{25},
                          index_t{30}, index_t{33}, index_t{41}, index_t{49}, index_t{57},
                          index_t{60}, index_t{64}, index_t{65}, index_t{81}, index_t{97},
                          index_t{113}, index_t{120}, index_t{128}, kMaxRows}) {
    for (const index_t d : {index_t{2}, index_t{3}, index_t{5}}) {
      for (const index_t m : {index_t{1}, index_t{3}, kSweeps}) {
        ref = base;
        got = base;
        const T* log = cs;
        for (index_t s = kS0; s < kS0 + m; ++s) {
          const index_t len = (kCols - 1 - s) / d;
          rot_sweep_scalar<T>(ref.data(), h, h, s + d - 1, d, len, log);
          log += 2 * len;
        }
        vec(got.data(), h, h, kCols, d, kS0, m, cs);
        if (std::memcmp(ref.data(), got.data(), sizeof(T) * ref.size()) != 0) return false;
      }
    }
  }
  return true;
}

/// The bitwise self-check of one candidate table: every installed kernel
/// against its scalar reference, the fp16-operand entries on fp16 data.
bool selfcheck(const KernelTable& t) {
  return check_micro_kernels<float>(t.gemm_f32, t.gemm_pair_f32, &lcg_f32) &&
         check_micro_kernels<float>(t.gemm_f32_fp16, t.gemm_pair_f32_fp16, &lcg_f16) &&
         check_micro_kernels<double>(t.gemm_f64, t.gemm_pair_f64, &lcg_f64) &&
         check_convert_kernels(t) && check_rot_wave<float>(t.rot_wave_f32, &lcg_f32) &&
         check_rot_wave<double>(t.rot_wave_f64, &lcg_f64);
}

KernelTable avx2_table() {
  KernelTable t;
  t.gemm_f32 = &avx2::micro_kernel_f32;
  t.gemm_pair_f32 = &avx2::micro_kernel_pair_f32;
  t.gemm_f32_fp16 = &avx2::micro_kernel_f32;
  t.gemm_pair_f32_fp16 = &avx2::micro_kernel_pair_f32;
  t.gemm_f64 = &avx2::micro_kernel_f64;
  t.gemm_pair_f64 = &avx2::micro_kernel_pair_f64;
  t.round_fp16 = &avx2::round_fp16_buffer;
  t.round_tf32 = &avx2::round_tf32_buffer;
  t.ec_split_fp16 = &avx2::ec_split_fp16_buffer;
  t.ec_split_tf32 = &avx2::ec_split_tf32_buffer;
  t.rot_wave_f32 = &avx2::rot_wave_f32;
  t.rot_wave_f64 = &avx2::rot_wave_f64;
  t.level = Level::Avx2;
  t.name = "avx2";
  return t;
}

#ifdef TCEVD_HAVE_AVX512
// The AVX-512 family widens the GEMM, convert and rotation-wave kernels.
KernelTable avx512_table() {
  KernelTable t = avx2_table();
  t.gemm_f32 = &avx512::micro_kernel_f32;
  t.gemm_pair_f32 = &avx512::micro_kernel_pair_f32;
  t.gemm_f32_fp16 = &avx512::micro_kernel_f32_fp16;
  t.gemm_pair_f32_fp16 = &avx512::micro_kernel_pair_f32_fp16;
  t.gemm_f64 = &avx512::micro_kernel_f64;
  t.gemm_pair_f64 = &avx512::micro_kernel_pair_f64;
  t.round_fp16 = &avx512::round_fp16_buffer;
  t.round_tf32 = &avx512::round_tf32_buffer;
  t.ec_split_fp16 = &avx512::ec_split_fp16_buffer;
  t.ec_split_tf32 = &avx512::ec_split_tf32_buffer;
  t.rot_wave_f32 = &avx512::rot_wave_f32;
  t.rot_wave_f64 = &avx512::rot_wave_f64;
  t.level = Level::Avx512;
  t.name = "avx512";
  return t;
}
#endif  // TCEVD_HAVE_AVX512

#endif  // TCEVD_HAVE_AVX2

bool env_is(const char* env, const char* value) {
  return env != nullptr && std::strcmp(env, value) == 0;
}

Resolution resolve_now() {
  const char* env = std::getenv("TCEVD_SIMD");
  detail::FamilySupport avx2{compiled_with_avx2(), cpu_supports_avx2(), false};
  detail::FamilySupport avx512{compiled_with_avx512(), cpu_supports_avx512(), false};
  const bool off = env_is(env, "off") || env_is(env, "scalar");
  // Self-check only the families the policy may pick: the widest first, the
  // AVX2 family when it is requested or the wider one is out.
#ifdef TCEVD_HAVE_AVX512
  if (!off && !env_is(env, "avx2") && avx512.compiled && avx512.cpu)
    avx512.selfcheck_ok = selfcheck(avx512_table());
#endif
#ifdef TCEVD_HAVE_AVX2
  if (!off && avx2.compiled && avx2.cpu && (env_is(env, "avx2") || !avx512.usable()))
    avx2.selfcheck_ok = selfcheck(avx2_table());
#endif
  Resolution r;
  const Level level = detail::resolve_level(env, avx2, avx512, &r.reason);
#ifdef TCEVD_HAVE_AVX2
  if (level == Level::Avx2) r.table = avx2_table();
#endif
#ifdef TCEVD_HAVE_AVX512
  if (level == Level::Avx512) r.table = avx512_table();
#endif
  return r;
}

}  // namespace

const KernelTable& kernels() noexcept {
  if (!g_resolved.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(g_resolve_mutex);
    if (!g_resolved.load(std::memory_order_relaxed)) {
      g_resolution = resolve_now();
      g_resolved.store(true, std::memory_order_release);
    }
  }
  return g_resolution.table;
}

const KernelTable& active_kernels() noexcept {
  if (g_scalar_force.load(std::memory_order_relaxed) > 0) return g_scalar_table;
  return kernels();
}

Level active_level() noexcept { return active_kernels().level; }

const char* active_level_name() noexcept { return active_kernels().name; }

const char* active_level_reason() noexcept {
  if (g_scalar_force.load(std::memory_order_relaxed) > 0) return "ScalarKernelScope active";
  kernels();  // force resolution so the reason is meaningful
  return g_resolution.reason;
}

bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

bool compiled_with_avx2() noexcept {
#ifdef TCEVD_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

bool cpu_supports_avx512() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return cpu_supports_avx2() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool compiled_with_avx512() noexcept {
#ifdef TCEVD_HAVE_AVX512
  return true;
#else
  return false;
#endif
}

std::uint64_t dispatch_count(Level level) noexcept {
  return g_dispatch_counts[static_cast<int>(level)].load(std::memory_order_relaxed);
}

ScalarKernelScope::ScalarKernelScope() noexcept {
  g_scalar_force.fetch_add(1, std::memory_order_relaxed);
}

ScalarKernelScope::~ScalarKernelScope() {
  g_scalar_force.fetch_sub(1, std::memory_order_relaxed);
}

bool scalar_kernels_forced() noexcept {
  return g_scalar_force.load(std::memory_order_relaxed) > 0;
}

namespace detail {

Level resolve_level(const char* env_value, const FamilySupport& avx2,
                    const FamilySupport& avx512, const char** reason) noexcept {
  if (env_value != nullptr && *env_value != '\0') {
    if (std::strcmp(env_value, "off") == 0 || std::strcmp(env_value, "scalar") == 0) {
      *reason = "TCEVD_SIMD=off";
      return Level::Scalar;
    }
    // An explicit AVX2 request (the one way to run that family on an AVX-512
    // host) is honoured only when compiled in, supported and self-checked;
    // otherwise the process runs the scalar reference and says why.
    if (std::strcmp(env_value, "avx2") == 0) {
      if (!avx2.compiled) {
        *reason = "TCEVD_SIMD=avx2 but binary built without the AVX2 family";
        return Level::Scalar;
      }
      if (!avx2.cpu) {
        *reason = "TCEVD_SIMD=avx2 but CPU lacks AVX2+F16C";
        return Level::Scalar;
      }
      if (!avx2.selfcheck_ok) {
        *reason = "TCEVD_SIMD=avx2 but the bitwise self-check failed";
        return Level::Scalar;
      }
      *reason = "TCEVD_SIMD=avx2";
      return Level::Avx2;
    }
    if (std::strcmp(env_value, "auto") != 0) {
      // Unrecognized value: fall through to auto-detection rather than
      // silently changing numerics-relevant behaviour on a typo.
      *reason = "unrecognized TCEVD_SIMD value; auto-detected";
      if (avx512.usable()) return Level::Avx512;
      if (avx2.usable()) return Level::Avx2;
      return Level::Scalar;
    }
  }
  if (avx512.usable()) {
    *reason = "auto-detected AVX-512 (bitwise self-check passed)";
    return Level::Avx512;
  }
  if (avx2.usable()) {
    *reason = "auto-detected AVX2 (bitwise self-check passed)";
    return Level::Avx2;
  }
  if (!avx2.compiled) {
    *reason = "binary built without the AVX2 family";
  } else if (!avx2.cpu) {
    *reason = "CPU lacks AVX2+F16C";
  } else {
    *reason = "bitwise self-check failed; pinned to scalar reference";
  }
  return Level::Scalar;
}

void record_dispatch(Level level) noexcept {
  g_dispatch_counts[static_cast<int>(level)].fetch_add(1, std::memory_order_relaxed);
}

void refresh_for_testing() {
  std::lock_guard<std::mutex> lock(g_resolve_mutex);
  g_resolution = resolve_now();
  g_resolved.store(true, std::memory_order_release);
}

}  // namespace detail
}  // namespace simd
}  // namespace blas
}  // namespace tcevd
