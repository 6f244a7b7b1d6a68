// Transpose-aware packed GEMM pipeline with fused per-element transforms.
//
// One BLIS-style blocked kernel serves every op(A)/op(B) combination: the
// packing routines read straight through the transpose, so C = op(A)·op(B)
// never materializes an intermediate matrix. Packing also applies a
// per-element PackTransform functor, which is how the tensor-core emulation
// fuses operand rounding (fp16 / tf32 / EC head–tail splitting) into the one
// pass it already makes over the operands — see src/tensorcore/tc_gemm.cpp
// and ec_tcgemm.cpp.
//
// Threading (BLIS scheme; Smith et al., IPDPS 2014): one fan-out per (j0, k0)
// block on gemm_pool() via ThreadPool::try_broadcast (allocation-free),
// subject to the policy in gemm_threading.hpp. Inside a block every lane
//   1. packs a share of the block's op(B) panels into the caller's shared B
//      buffer (chunks claimed off an atomic counter),
//   2. waits until every B chunk is packed (the barrier: a claimed chunk is
//      always being packed by a running lane, so the wait cannot deadlock
//      whatever number of lanes actually showed up),
//   3. claims (ic slice, jr range) units off a second counter and, one
//      kMR-row op(A) micro-panel of the slice at a time, packs the panel
//      into its own slot of the caller's scratch and runs it against the
//      unit's B panels.
// Units are disjoint C blocks and each C element keeps its kc-blocked
// accumulation chain, so pooled results are bitwise-identical to serial ones
// (the serial path is the same code with one lane).
//
// Allocation discipline: all scratch lives in the calling thread's
// thread_local CallerBuffers — the shared B block and one A micro-panel
// slot per lane, picked by the lane's broadcast index — grown on demand, so
// pool workers allocate nothing and a steady-state call performs zero heap
// allocations whether it runs serial or pooled. The arenas are 64-byte
// aligned (AlignedVector) so the SIMD micro-kernels can use aligned vector
// loads on the packed panels.
//
// SIMD: the micro-kernels route through simd::active_kernels() — a runtime
// dispatch table resolved once from TCEVD_SIMD / cpuid / a bitwise
// self-check (src/blas/simd_dispatch.hpp). The scalar reference lives in
// gemm_microkernel_scalar.hpp; any vector kernel the table installs is
// bitwise-identical to it, so nothing downstream can observe which family
// ran except the dispatch_count telemetry. Calls whose transforms both
// produce fp16 values select the table's fp16-operand entry (exact FMA).
//
// ABFT (see src/blas/abft.hpp): when an AbftScope is active, every C
// micro-tile is verified against a column-checksum invariant computed from
// the packed A panel and recomputed in place on mismatch — detect, locate,
// recompute — before it is applied to C. The ABFT tile path accumulates into
// a private buffer holding exactly the value the direct path would have
// added, so clean results are bitwise-identical with ABFT on or off.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "src/blas/abft.hpp"
#include "src/blas/blas.hpp"
#include "src/blas/gemm_microkernel_scalar.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/blas/simd_dispatch.hpp"
#include "src/common/aligned.hpp"
#include "src/common/fault.hpp"
#include "src/common/thread_pool.hpp"

namespace tcevd {
namespace blas {

/// Default PackTransform: elements pass through untouched.
///
/// PackTransform contract: operator()(v) maps one element and must send +0
/// to +0 (packing zero-pads panels and may transform the padded run in
/// place). Optional members: a batch form `apply(src, dst, n)` (src == dst
/// allowed), and `bool fp16_values() const` — true when every value the
/// transform produces is an fp16 value, which lets the micro-kernel use the
/// exact-FMA entry when both operands' transforms say so.
struct IdentityTransform {
  template <typename T>
  T operator()(T v) const {
    return v;
  }
};

namespace packed {

// Blocking parameters (BLIS-style). The register-tile shape kMR x kNR lives
// in gemm_microkernel_scalar.hpp next to the kernels it defines. A packs into
// MR-row panels, B into NR-column panels, k-major within each panel, so the
// micro-kernel streams contiguous memory with an MR x NR accumulator in
// registers; KC/NC keep the shared B block L2-resident, and MC caps the rows
// of one lane work unit (an ic slice).
inline constexpr index_t kMC = 128;
inline constexpr index_t kKC = 256;
inline constexpr index_t kNC = 1024;
static_assert(kMC % kMR == 0 && kNC % kNR == 0, "blocks must hold whole panels");

inline constexpr std::size_t kApanelElems = static_cast<std::size_t>(kMR) * kKC;

// The arenas are 64-byte aligned (AlignedVector) and the SIMD kernels
// aligned-load the packed A panels: a panel row (kMR elements) must span
// whole alignment quanta so every k-row of a panel stays aligned.
static_assert((static_cast<std::size_t>(kMR) * sizeof(float)) % kKernelAlignment == 0,
              "packed A panel rows must preserve vector alignment");

// --- ABFT column checksums -------------------------------------------------

/// Rows per checksum group: each kMR-row panel carries one checksum per
/// 8-row half, so the tolerance's row term stays at 8 whatever kMR is.
inline constexpr index_t kAbftRows = 8;
static_assert(kMR % kAbftRows == 0, "panels split into whole checksum groups");
inline constexpr index_t kAbftGroups = kMR / kAbftRows;

/// Per-panel checksum vector length: kAbftGroups row groups, kc <= kKC
/// k-steps each. Checksums carry a plain and an absolute-value sum (the
/// latter scales the floating-point comparison tolerance).
inline constexpr std::size_t kAcsumElems = static_cast<std::size_t>(kAbftGroups) * kKC;

/// The calling thread's GEMM scratch; pool lanes work in the caller's.
///   b, b2: the shared op(B) block (b2: the EC tail panels or the pair
///     kernel's second product; only the flavors that use it allocate it).
///     Each reserves the largest block (kKC x kNC) on first use and is
///     resized, never reallocated, up to the largest block this thread has
///     packed: a thread issuing only small GEMMs never touches a megabyte of
///     arena, and growth leaves no freed blocks behind in the heap (growing
///     by reallocation raised eig-vectors peak RSS by about 4 MiB).
///   a: one slot of two kMR x kKC micro-panels (the second for the pair
///     kernel) per lane, indexed by the lane's broadcast index.
///   sums: ABFT only, one slot of four checksum vectors per lane.
/// Pool workers therefore allocate nothing, and same-shape steady-state
/// calls allocate nothing on the caller either.
template <typename T>
struct CallerBuffers {
  AlignedVector<T> b, b2, a;
  std::vector<double> sums;
};

template <typename T>
CallerBuffers<T>& caller_buffers() {
  thread_local CallerBuffers<T> bufs;
  return bufs;
}

/// Row-sum checksum vectors of one packed A micro-panel: sa[g*kc + k] sums
/// lanes [8g, 8g+8) at k-step k (zero-padded lanes contribute zero), sa_abs
/// the absolute values. Reads the freshly packed, cache-resident panel, so
/// the sweep rides the pack's memory traffic the way the fused rounding
/// transform rides the operand read.
template <typename T>
void compute_a_checksums(const T* panel, index_t kc, double* sa, double* sa_abs) {
  for (index_t g = 0; g < kAbftGroups; ++g) {
    double* s = sa + g * kc;
    double* sabs = sa_abs + g * kc;
    for (index_t k = 0; k < kc; ++k) {
      const T* col = panel + k * kMR + g * kAbftRows;
      double sum = 0.0;
      double asum = 0.0;
      for (index_t r = 0; r < kAbftRows; ++r) {
        const double v = static_cast<double>(col[r]);
        sum += v;
        asum += std::abs(v);
      }
      s[k] = sum;
      sabs[k] = asum;
    }
  }
}

/// The injected "corrupted tile" bit damage (fault site gemm.tile_corrupt):
/// flip the sign bit and walk the exponent field up by 10 (down when that
/// would overflow past the finite range), with a magnitude floor of 2^10.
/// Deterministic and always a large *finite* change — at least ~2^10 in
/// absolute terms and at least ~2^10 relative to the original value — so the
/// corruption reliably breaches the end-to-end residual gate without
/// poisoning the pipeline with Inf/NaN (a raw high-exponent bit flip can
/// produce either a negligible perturbation or an infinity, both of which
/// make fault-injection tests flaky).
template <typename T>
inline void corrupt_value(T& v) noexcept {
  if constexpr (sizeof(T) == 4) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    const std::uint32_t exp = (bits >> 23) & 0xFFu;
    if (exp == 0)
      bits = 0x44800000u;  // zero/denormal -> 1024.0f
    else if (exp <= 244)
      bits = (bits ^ 0x80000000u) + (std::uint32_t{10} << 23);
    else
      bits = (bits ^ 0x80000000u) - (std::uint32_t{10} << 23);
    std::memcpy(&v, &bits, sizeof(bits));
    if (v > -1024.0f && v < 1024.0f) v = v < 0.0f ? -1024.0f : 1024.0f;
  } else {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    const std::uint64_t exp = (bits >> 52) & 0x7FFull;
    if (exp == 0)
      bits = 0x4090000000000000ull;  // zero/denormal -> 1024.0
    else if (exp <= 2036)
      bits = (bits ^ 0x8000000000000000ull) + (std::uint64_t{10} << 52);
    else
      bits = (bits ^ 0x8000000000000000ull) - (std::uint64_t{10} << 52);
    std::memcpy(&v, &bits, sizeof(bits));
    if (v > -1024.0 && v < 1024.0) v = v < 0.0 ? -1024.0 : 1024.0;
  }
}

/// Safety factor on the analytic fp accumulation bound. False positives only
/// cost a redundant (bitwise-identical) tile recompute, never correctness.
inline constexpr double kAbftSafety = 8.0;

/// Tolerance for one checksum comparison: the micro-kernel accumulates kc
/// products in T precision and a checksum group sums <= kAbftRows of them,
/// so the drift between the double-precision expected sum and the actual
/// group sum is bounded by ~(kc + kAbftRows) * eps_T * (sum of |terms|).
template <typename T>
inline double abft_tolerance(index_t kc, double abs_scale) noexcept {
  return kAbftSafety * static_cast<double>(std::numeric_limits<T>::epsilon()) *
             (static_cast<double>(kc) + static_cast<double>(kAbftRows)) * abs_scale +
         1e-300;
}

/// Column-checksum verification of one accumulated tile (kMR-ld buffer
/// holding fl(alpha * (acc1 + acc2))): for every column j and row group g,
///   sum_{i in g} tile(i, j)  ?=  alpha * sum_s sum_k sa_s(g, k) * bp_s(k, j)
/// over the nprod (1 or 2) products. The pair kernel carries two
/// accumulators per k-step, so its bound is the single-product one doubled.
template <typename T>
bool tile_checksum_ok(const T* tile, index_t mr, index_t nr, index_t kc, int nprod,
                      const T* const* bp, T alpha, const double* const* sa,
                      const double* const* sa_abs) {
  const double al = static_cast<double>(alpha);
  const double al_abs = std::abs(al);
  for (index_t g = 0; g * kAbftRows < mr; ++g) {
    const index_t r0 = g * kAbftRows;
    const index_t r1 = std::min(mr, r0 + kAbftRows);
    for (index_t jj = 0; jj < nr; ++jj) {
      double expect = 0.0;
      double scale = 0.0;
      for (int s = 0; s < nprod; ++s) {
        const double* sg = sa[s] + g * kc;
        const double* sgabs = sa_abs[s] + g * kc;
        for (index_t k = 0; k < kc; ++k) {
          const double bv = static_cast<double>(bp[s][k * kNR + jj]);
          expect += sg[k] * bv;
          scale += sgabs[k] * std::abs(bv);
        }
      }
      expect *= al;
      scale *= al_abs;
      double actual = 0.0;
      const T* tcol = tile + jj * kMR;
      for (index_t ii = r0; ii < r1; ++ii) actual += static_cast<double>(tcol[ii]);
      if (std::abs(actual - expect) > nprod * abft_tolerance<T>(kc, scale)) return false;
    }
  }
  return true;
}

// --- Pack transforms: batch detection --------------------------------------
//
// A PackTransform may expose, next to its per-element operator(), a batch
// form `f.apply(src, dst, n)` (or `split.apply(src, head, tail, n)`) that
// maps a contiguous run in one call — the Tensor Core rounding transforms
// vectorize theirs (src/tensorcore/tc_convert.hpp). Packing gathers each
// panel raw and then runs the batch form once, in place, over the whole
// panel: one call per kMR*kc (or kNR*kc) elements instead of one per row.

template <typename F, typename T, typename = void>
struct HasBatchApply : std::false_type {};
template <typename F, typename T>
struct HasBatchApply<F, T,
                     std::void_t<decltype(std::declval<const F&>().apply(
                         std::declval<const T*>(), std::declval<T*>(), index_t{}))>>
    : std::true_type {};

template <typename F, typename T, typename = void>
struct HasBatchSplit : std::false_type {};
template <typename F, typename T>
struct HasBatchSplit<F, T,
                     std::void_t<decltype(std::declval<const F&>().apply(
                         std::declval<const T*>(), std::declval<T*>(), std::declval<T*>(),
                         index_t{}))>> : std::true_type {};

template <typename F, typename = void>
struct HasFp16Values : std::false_type {};
template <typename F>
struct HasFp16Values<F, std::void_t<decltype(std::declval<const F&>().fp16_values())>>
    : std::true_type {};

/// True when every value `f` produces is an fp16 value (see the
/// PackTransform contract on IdentityTransform).
template <typename F>
bool yields_fp16(const F& f) {
  if constexpr (HasFp16Values<F>::value)
    return f.fp16_values();
  else
    return false;
}

/// The per-element map applied while gathering: the identity when the
/// transform's batch form runs over the gathered panel afterwards.
template <typename F, typename T>
inline T gather_map(const F& f, T v) {
  if constexpr (HasBatchApply<F, T>::value)
    return v;
  else
    return f(v);
}

template <typename F, typename T>
inline void finish_panel(const F& f, T* panel, index_t n) {
  if constexpr (HasBatchApply<F, T>::value) f.apply(panel, panel, n);
}

/// op(A)(i0:i0+mc, k0:k0+kc) -> MR-row panels, k-major, f applied per
/// element; panel p lands at buf + p * kMR * kc. TA=false reads columns of A
/// contiguously; TA=true walks columns of A as rows of op(A) (lane-outer,
/// k-inner) so the source reads stay contiguous.
template <bool TA, typename T, typename F>
void pack_a_block(ConstMatrixView<T> a, index_t i0, index_t k0, index_t mc, index_t kc,
                  T* buf, const F& f) {
  for (index_t p = 0; p < mc; p += kMR) {
    const index_t mr = std::min(kMR, mc - p);
    T* panel = buf + p * kc;
    if constexpr (!TA) {
      for (index_t k = 0; k < kc; ++k) {
        const T* col = &a(i0 + p, k0 + k);
        T* dst = panel + k * kMR;
        for (index_t r = 0; r < mr; ++r) dst[r] = gather_map(f, col[r]);
        for (index_t r = mr; r < kMR; ++r) dst[r] = T{};
      }
    } else {
      for (index_t r = 0; r < mr; ++r) {
        const T* col = &a(k0, i0 + p + r);  // column of A == row of op(A)
        for (index_t k = 0; k < kc; ++k) panel[k * kMR + r] = gather_map(f, col[k]);
      }
      for (index_t r = mr; r < kMR; ++r)
        for (index_t k = 0; k < kc; ++k) panel[k * kMR + r] = T{};
    }
    finish_panel(f, panel, kMR * kc);
  }
}

/// Gather op(B)(k0:k0+kc, j0:j0+nc) raw into NR-column panels, k-major,
/// mapping each element through map(v); panel q lands at buf + q * kNR * kc.
/// TB=true reads rows of op(B) as columns of B contiguously.
template <bool TB, typename T, typename Map>
void gather_b_block(ConstMatrixView<T> b, index_t k0, index_t j0, index_t kc, index_t nc,
                    T* buf, const Map& map) {
  for (index_t q = 0; q < nc; q += kNR) {
    const index_t nr = std::min(kNR, nc - q);
    T* panel = buf + q * kc;
    if constexpr (!TB) {
      for (index_t cidx = 0; cidx < nr; ++cidx) {
        const T* col = &b(k0, j0 + q + cidx);
        for (index_t k = 0; k < kc; ++k) panel[k * kNR + cidx] = map(col[k]);
      }
      for (index_t cidx = nr; cidx < kNR; ++cidx)
        for (index_t k = 0; k < kc; ++k) panel[k * kNR + cidx] = T{};
    } else {
      for (index_t k = 0; k < kc; ++k) {
        const T* col = &b(j0 + q, k0 + k);  // column of B == row of op(B)
        T* dst = panel + k * kNR;
        for (index_t cidx = 0; cidx < nr; ++cidx) dst[cidx] = map(col[cidx]);
        for (index_t cidx = nr; cidx < kNR; ++cidx) dst[cidx] = T{};
      }
    }
  }
}

/// op(B)(k0:k0+kc, j0:j0+nc) -> NR-column panels with f applied per element.
template <bool TB, typename T, typename F>
void pack_b_block(ConstMatrixView<T> b, index_t k0, index_t j0, index_t kc, index_t nc,
                  T* buf, const F& f) {
  gather_b_block<TB>(b, k0, j0, kc, nc, buf, [&f](T v) { return gather_map(f, v); });
  const index_t npanels = (nc + kNR - 1) / kNR;
  finish_panel(f, buf, npanels * kNR * kc);
}

/// Dual-output B pack: one pass over op(B) fills a head panel and a tail
/// panel via split(v, head, tail). This is the EC-TC fusion — the head/tail
/// decomposition is computed once per source element instead of once per
/// materialized copy. The batch form splits the gathered head panels in
/// place (split.apply tolerates src == head).
template <bool TB, typename T, typename F>
void pack_b_block_split(ConstMatrixView<T> b, index_t k0, index_t j0, index_t kc,
                        index_t nc, T* bufh, T* buft, const F& split) {
  const index_t nelem = (nc + kNR - 1) / kNR * kNR * kc;
  if constexpr (HasBatchSplit<F, T>::value) {
    gather_b_block<TB>(b, k0, j0, kc, nc, bufh, [](T v) { return v; });
    split.apply(bufh, bufh, buft, nelem);
  } else {
    gather_b_block<TB>(b, k0, j0, kc, nc, bufh, [](T v) { return v; });
    for (index_t i = 0; i < nelem; ++i) {
      const T v = bufh[i];
      split(v, bufh[i], buft[i]);
    }
  }
}

// --- Micro-kernel selection ------------------------------------------------

template <typename T>
using KernelFn = void (*)(index_t, const T*, const T*, T, T*, index_t, index_t, index_t);
template <typename T>
using PairKernelFn = void (*)(index_t, const T*, const T*, const T*, const T*, T, T*,
                              index_t, index_t, index_t);

/// The micro-kernels one GEMM call runs, resolved once on the calling thread
/// so every lane uses the same family. float/double route through the
/// runtime-dispatched table (bitwise twins of the scalar reference; the
/// fp16-operand entries when both operands are fp16 values); null table
/// entries and other types run the scalar reference.
template <typename T>
struct Kernels {
  KernelFn<T> plain = &micro_kernel_scalar<T>;
  PairKernelFn<T> pair = &micro_kernel_pair_scalar<T>;
};

template <typename T>
Kernels<T> select_kernels(bool fp16_operands) {
  Kernels<T> out;
  const simd::KernelTable& kt = simd::active_kernels();
  if constexpr (std::is_same_v<T, float>) {
    if (const auto fn = fp16_operands ? kt.gemm_f32_fp16 : kt.gemm_f32) out.plain = fn;
    if (const auto fn = fp16_operands ? kt.gemm_pair_f32_fp16 : kt.gemm_pair_f32)
      out.pair = fn;
  } else if constexpr (std::is_same_v<T, double>) {
    if (kt.gemm_f64 != nullptr) out.plain = kt.gemm_f64;
    if (kt.gemm_pair_f64 != nullptr) out.pair = kt.gemm_pair_f64;
  }
  return out;
}

// --- The blocked driver ----------------------------------------------------

/// What one GEMM call computes per micro-tile:
///   Plain:  C0 += alpha * A·B
///   SplitB: C0 += A·Bhead and C1 += A·Btail (EC-TC first sweep, one A pack)
///   Pair:   C0 += alpha * (A1·B1 + A2·B2) (paired kernel, tc_syr2k)
enum class Flavor { Plain, SplitB, Pair };

/// One GEMM call's operands plus the per-(j0, k0) block state the lanes
/// share. Lives on the caller's stack; try_broadcast blocks until every lane
/// returns, and its handshake orders the caller's writes before the lanes'
/// reads.
template <Flavor FL, bool TA, bool TB, typename T, typename FA, typename FB>
struct GemmJob {
  using value_type = T;
  static constexpr int kProducts = FL == Flavor::Pair ? 2 : 1;
  static constexpr int kBOperands = FL == Flavor::Plain ? 1 : 2;

  // Operands (a2/b2: the Pair flavor's second product; fb is the split
  // transform for SplitB).
  ConstMatrixView<T> a1, a2, b1, b2;
  const FA* fa = nullptr;
  const FB* fb = nullptr;
  T alpha{1};
  MatrixView<T> c0, c1;
  index_t m = 0;
  Kernels<T> kern;
  abft::CallStats* stats = nullptr;
  T* bshared[2] = {nullptr, nullptr};
  T* aslots = nullptr;           // 2 * kApanelElems per lane
  double* sum_slots = nullptr;   // 4 * kAcsumElems per lane (ABFT only)

  // Current block and its work decomposition.
  index_t j0 = 0, nc = 0, k0 = 0, kc = 0;
  index_t nbpanels = 0, bchunk = 1, nbchunks = 0;
  index_t mslice = kMC, munits = 0, npu = 0, nunits = 0;
  std::atomic<index_t> b_next{0}, b_done{0};
  std::atomic<long> u_next{0};

  /// Set up block (j0, k0) for `lanes` participants. B is packed in about
  /// two chunks per lane; A is cut into ic slices of at most kMC rows, about
  /// one per lane when m is small, and when there are still fewer slices
  /// than lanes the block's B panels are split across units as well.
  void begin_block(index_t bj0, index_t bnc, index_t bk0, index_t bkc, long lanes) {
    j0 = bj0;
    nc = bnc;
    k0 = bk0;
    kc = bkc;
    nbpanels = (nc + kNR - 1) / kNR;
    const index_t want_chunks = lanes > 1 ? std::min<index_t>(nbpanels, 2 * lanes) : 1;
    bchunk = (nbpanels + want_chunks - 1) / want_chunks;
    nbchunks = (nbpanels + bchunk - 1) / bchunk;
    const index_t mpanels = (m + kMR - 1) / kMR;
    const index_t per_lane = (mpanels + lanes - 1) / lanes;
    const index_t slice_panels = std::min<index_t>(kMC / kMR, std::max<index_t>(per_lane, 1));
    mslice = slice_panels * kMR;
    munits = (mpanels + slice_panels - 1) / slice_panels;
    nunits = 1;
    if (munits < lanes) nunits = std::min<index_t>(nbpanels, (lanes + munits - 1) / munits);
    npu = (nbpanels + nunits - 1) / nunits;
    nunits = (nbpanels + npu - 1) / npu;
    b_next.store(0, std::memory_order_relaxed);
    b_done.store(0, std::memory_order_relaxed);
    u_next.store(0, std::memory_order_relaxed);
  }

  /// Micro-tiles of the current block (the ABFT `checked` accounting unit).
  long block_tiles() const noexcept {
    return static_cast<long>((m + kMR - 1) / kMR) * nbpanels *
           (FL == Flavor::SplitB ? 2 : 1);
  }

  void pack_b_chunk(index_t col0, index_t ncols) {
    T* d0 = bshared[0] + col0 * kc;
    if constexpr (FL == Flavor::SplitB) {
      pack_b_block_split<TB>(b1, k0, j0 + col0, kc, ncols, d0, bshared[1] + col0 * kc, *fb);
    } else {
      pack_b_block<TB>(b1, k0, j0 + col0, kc, ncols, d0, *fb);
      if constexpr (FL == Flavor::Pair)
        pack_b_block<TB>(b2, k0, j0 + col0, kc, ncols, bshared[1] + col0 * kc, *fb);
    }
  }

  /// Pack the kMR-row panel of op(A) starting at row i0 (mr live rows)
  /// into the lane's slot.
  void pack_a_panel(index_t i0, index_t mr, T* slot, const T** ap) {
    pack_a_block<TA>(a1, i0, k0, mr, kc, slot, *fa);
    ap[0] = slot;
    if constexpr (FL == Flavor::Pair) {
      pack_a_block<TA>(a2, i0, k0, mr, kc, slot + kApanelElems, *fa);
      ap[1] = slot + kApanelElems;
    }
  }

  /// Direct tile: the micro-kernel adds into C. The injected corruption
  /// lands after it: with ABFT off nothing checks the tile, and the bad
  /// value flows into the result (exactly the silent fault the end-to-end
  /// verification tier exists to catch).
  void tile(const T* const* ap, const T* const* bp, index_t gi, index_t gj, index_t mr,
            index_t nr) {
    T* cc0 = &c0(gi, gj);
    if constexpr (FL == Flavor::Plain) {
      kern.plain(kc, ap[0], bp[0], alpha, cc0, c0.ld(), mr, nr);
    } else if constexpr (FL == Flavor::SplitB) {
      kern.plain(kc, ap[0], bp[0], T{1}, cc0, c0.ld(), mr, nr);
      kern.plain(kc, ap[0], bp[1], T{1}, &c1(gi, gj), c1.ld(), mr, nr);
    } else {
      kern.pair(kc, ap[0], bp[0], ap[1], bp[1], alpha, cc0, c0.ld(), mr, nr);
    }
    if (fault::should_fire(fault::Site::GemmTileCorrupt)) corrupt_value(*cc0);
  }

  /// ABFT tile: each product is accumulated into a private kMR x kNR buffer
  /// holding exactly fl(alpha*acc) — the value the direct tile would have
  /// added to C — verified against the packed-A checksums, recomputed in
  /// place on a mismatch (same packed panels, same accumulation order: the
  /// recompute is bitwise the uncorrupted tile), and only then applied to C.
  /// The injected gemm.tile_corrupt flip lands on the private tile after the
  /// micro-kernel, modeling a corrupted C tile before anything downstream
  /// consumed it.
  void tile_abft(const T* const* ap, const T* const* bp, const double* const* sa,
                 const double* const* sa_abs, index_t gi, index_t gj, index_t mr,
                 index_t nr) {
    constexpr int kOutputs = FL == Flavor::SplitB ? 2 : 1;
    for (int s = 0; s < kOutputs; ++s) {
      T buf[kNR * kMR] = {};
      const auto run = [&] {
        if constexpr (FL == Flavor::Pair)
          kern.pair(kc, ap[0], bp[0], ap[1], bp[1], alpha, buf, kMR, mr, nr);
        else
          kern.plain(kc, ap[0], bp[s], FL == Flavor::Plain ? alpha : T{1}, buf, kMR, mr, nr);
      };
      run();
      if (s == 0 && fault::should_fire(fault::Site::GemmTileCorrupt)) corrupt_value(buf[0]);
      const T* const* bps = FL == Flavor::Pair ? bp : bp + s;
      if (!tile_checksum_ok(buf, mr, nr, kc, kProducts, bps,
                            FL == Flavor::Plain || FL == Flavor::Pair ? alpha : T{1}, sa,
                            sa_abs)) {
        std::fill(buf, buf + kNR * kMR, T{});
        run();
        stats->record_detection(gi, gj);
      }
      MatrixView<T>& cv = s == 0 ? c0 : c1;
      for (index_t jj = 0; jj < nr; ++jj) {
        T* cc = &cv(gi, gj + jj);
        const T* tcol = buf + jj * kMR;
        for (index_t ii = 0; ii < mr; ++ii) cc[ii] += tcol[ii];
      }
    }
  }

  /// One participant's share of the current block (see the file comment);
  /// `slot` (the broadcast index) picks the lane's scratch.
  void lane(long slot) {
    for (index_t c = b_next.fetch_add(1, std::memory_order_relaxed); c < nbchunks;
         c = b_next.fetch_add(1, std::memory_order_relaxed)) {
      const index_t col0 = c * bchunk * kNR;
      pack_b_chunk(col0, std::min(nc, col0 + bchunk * kNR) - col0);
      b_done.fetch_add(1, std::memory_order_release);
    }
    int backoff = 0;
    while (b_done.load(std::memory_order_acquire) < nbchunks) spin_wait_hint(backoff);

    T* aslot = aslots + slot * 2 * static_cast<long>(kApanelElems);
    double* sums = sum_slots != nullptr ? sum_slots + slot * 4 * static_cast<long>(kAcsumElems)
                                        : nullptr;
    const long nwork = static_cast<long>(munits) * nunits;
    for (long u = u_next.fetch_add(1, std::memory_order_relaxed); u < nwork;
         u = u_next.fetch_add(1, std::memory_order_relaxed)) {
      const index_t i0 = static_cast<index_t>(u / nunits) * mslice;
      const index_t q0 = static_cast<index_t>(u % nunits) * npu;
      const index_t q1 = std::min(nbpanels, q0 + npu);
      const index_t i1 = std::min(m, i0 + mslice);
      // One A micro-panel at a time (L1-resident) against the unit's B
      // panels (L2-resident, shared).
      for (index_t ir = i0; ir < i1; ir += kMR) {
        const index_t mr = std::min(kMR, i1 - ir);
        const T* ap[2] = {nullptr, nullptr};
        pack_a_panel(ir, mr, aslot, ap);
        const double* sa[2] = {nullptr, nullptr};
        const double* sa_abs[2] = {nullptr, nullptr};
        if (sums != nullptr) {
          for (int p = 0; p < kProducts; ++p) {
            double* s0 = sums + 2 * p * kAcsumElems;
            compute_a_checksums(ap[p], kc, s0, s0 + kAcsumElems);
            sa[p] = s0;
            sa_abs[p] = s0 + kAcsumElems;
          }
        }
        for (index_t q = q0; q < q1; ++q) {
          const index_t jr = q * kNR;
          const index_t nr = std::min(kNR, nc - jr);
          const T* bp[2] = {bshared[0] + jr * kc,
                            kBOperands == 2 ? bshared[1] + jr * kc : nullptr};
          if (sums == nullptr)
            tile(ap, bp, ir, j0 + jr, mr, nr);
          else
            tile_abft(ap, bp, sa, sa_abs, ir, j0 + jr, mr, nr);
        }
      }
    }
  }
};

template <class Job>
void run_lane(void* job, long slot) {
  static_cast<Job*>(job)->lane(slot);
}

/// Drive `job` over C (m x n) with inner dimension k: one broadcast per
/// (j0, k0) block when the pool policy allows, the same lane body on the
/// calling thread otherwise (or when the pool declines).
template <class Job>
void run_blocks(Job& job, index_t n, index_t k) {
  CallerBuffers<typename Job::value_type>& bufs = caller_buffers<typename Job::value_type>();
  const bool pooled = detail::use_gemm_pool(job.m, n, k);
  const long lanes = pooled ? static_cast<long>(gemm_pool().size()) + 1 : 1;
  const auto grow = [](auto& v, std::size_t need) {
    if (v.size() < need) v.resize(need);
  };
  const std::size_t need_b = static_cast<std::size_t>(std::min(k, kKC)) *
                             static_cast<std::size_t>((std::min(n, kNC) + kNR - 1) / kNR * kNR);
  const auto grow_b = [&](AlignedVector<typename Job::value_type>& v) {
    v.reserve(static_cast<std::size_t>(kKC) * kNC);  // no-op after the first call
    grow(v, need_b);
  };
  grow_b(bufs.b);
  if (Job::kBOperands == 2) grow_b(bufs.b2);
  grow(bufs.a, static_cast<std::size_t>(lanes) * 2 * kApanelElems);
  if (job.stats != nullptr) grow(bufs.sums, static_cast<std::size_t>(lanes) * 4 * kAcsumElems);
  job.bshared[0] = bufs.b.data();
  job.bshared[1] = bufs.b2.data();
  job.aslots = bufs.a.data();
  job.sum_slots = job.stats != nullptr ? bufs.sums.data() : nullptr;
  for (index_t j0 = 0; j0 < n; j0 += kNC) {
    const index_t nc = std::min(kNC, n - j0);
    for (index_t k0 = 0; k0 < k; k0 += kKC) {
      job.begin_block(j0, nc, k0, std::min(kKC, k - k0), lanes);
      if (lanes > 1 && gemm_pool().try_broadcast(lanes, &run_lane<Job>, &job))
        detail::count_gemm_pool_dispatch();
      else
        job.lane(0);
      if (job.stats != nullptr) job.stats->checked += job.block_tiles();
    }
  }
}

/// Scale C by beta in place (beta == 0 overwrites, never reads).
template <typename T>
void prescale(T beta, MatrixView<T> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  for (index_t j = 0; j < n; ++j) {
    T* cj = m > 0 ? &c(0, j) : nullptr;
    if (beta == T{}) {
      for (index_t i = 0; i < m; ++i) cj[i] = T{};
    } else if (beta != T{1}) {
      for (index_t i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
}

/// Call fn(bool_constant<TA>, bool_constant<TB>) for the runtime trans pair.
template <typename Fn>
void with_trans(Trans transa, Trans transb, Fn&& fn) {
  using F = std::false_type;
  using Y = std::true_type;
  if (transa == Trans::No && transb == Trans::No)
    fn(F{}, F{});
  else if (transa == Trans::Yes && transb == Trans::No)
    fn(Y{}, F{});
  else if (transa == Trans::No && transb == Trans::Yes)
    fn(F{}, Y{});
  else
    fn(Y{}, Y{});
}

/// Shape check shared by the entry points; returns the inner dimension k.
template <typename T>
index_t checked_inner_dim(Trans transa, Trans transb, ConstMatrixView<T> a,
                          ConstMatrixView<T> b, index_t m, index_t n) {
  const index_t ma = (transa == Trans::No) ? a.rows() : a.cols();
  const index_t ka = (transa == Trans::No) ? a.cols() : a.rows();
  const index_t kb = (transb == Trans::No) ? b.rows() : b.cols();
  const index_t nb = (transb == Trans::No) ? b.cols() : b.rows();
  TCEVD_CHECK(ma == m && nb == n && ka == kb, "gemm shape mismatch");
  return ka;
}

template <typename T, typename FA, typename FB>
void gemm_packed_entry(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
                       ConstMatrixView<T> b, T beta, MatrixView<T> c, const FA& fa,
                       const FB& fb) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = checked_inner_dim(transa, transb, a, b, m, n);
  if (m == 0 || n == 0) return;
  prescale(beta, c);
  if (k == 0 || alpha == T{}) return;
  simd::detail::record_dispatch(simd::active_level());

  abft::CallStats stats;
  abft::CallStats* sp = abft::enabled() ? &stats : nullptr;
  const Kernels<T> kern = select_kernels<T>(yields_fp16(fa) && yields_fp16(fb));
  with_trans(transa, transb, [&](auto ta, auto tb) {
    GemmJob<Flavor::Plain, decltype(ta)::value, decltype(tb)::value, T, FA, FB> job;
    job.a1 = a;
    job.b1 = b;
    job.fa = &fa;
    job.fb = &fb;
    job.alpha = alpha;
    job.c0 = c;
    job.m = m;
    job.kern = kern;
    job.stats = sp;
    run_blocks(job, n, k);
  });
  if (sp != nullptr) abft::finish_call(stats, "gemm");
}

template <typename T, typename FA, typename FSplit>
void gemm_packed_split_b_entry(Trans transa, Trans transb, ConstMatrixView<T> a,
                               ConstMatrixView<T> b, MatrixView<T> c0, MatrixView<T> c1,
                               const FA& fa, const FSplit& split) {
  const index_t m = c0.rows();
  const index_t n = c0.cols();
  const index_t k = checked_inner_dim(transa, transb, a, b, m, n);
  TCEVD_CHECK(c1.rows() == m && c1.cols() == n, "split gemm accumulator shape mismatch");
  if (m == 0 || n == 0) return;
  prescale(T{}, c0);
  prescale(T{}, c1);
  if (k == 0) return;
  simd::detail::record_dispatch(simd::active_level());

  abft::CallStats stats;
  abft::CallStats* sp = abft::enabled() ? &stats : nullptr;
  const Kernels<T> kern = select_kernels<T>(yields_fp16(fa) && yields_fp16(split));
  with_trans(transa, transb, [&](auto ta, auto tb) {
    GemmJob<Flavor::SplitB, decltype(ta)::value, decltype(tb)::value, T, FA, FSplit> job;
    job.a1 = a;
    job.b1 = b;
    job.fa = &fa;
    job.fb = &split;
    job.c0 = c0;
    job.c1 = c1;
    job.m = m;
    job.kern = kern;
    job.stats = sp;
    run_blocks(job, n, k);
  });
  if (sp != nullptr) abft::finish_call(stats, "gemm.split_b");
}

}  // namespace packed

/// C = alpha * op(A) * op(B) + beta * C through the packed pipeline, with
/// fa/fb applied per element of A/B during packing. All four trans
/// combinations run the same micro-kernel with zero intermediate matrices.
template <typename T, typename FA = IdentityTransform, typename FB = IdentityTransform>
void gemm_packed(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
                 ConstMatrixView<T> b, T beta, MatrixView<T> c, const FA& fa = FA{},
                 const FB& fb = FB{}) {
  packed::gemm_packed_entry(transa, transb, alpha, a, b, beta, c, fa, fb);
}

/// EC-TC first sweep: C0 = op(A)·head(op(B)) and C1 = op(A)·tail(op(B)) in
/// ONE pass over B — split(v, head, tail) runs once per B element while
/// packing. Both products accumulate exactly as their standalone gemms would,
/// so results are bitwise-identical to materializing head/tail copies first.
/// Overwrites C0 and C1. Does not count flops.
template <typename T, typename FA, typename FSplit>
void gemm_packed_split_b(Trans transa, Trans transb, ConstMatrixView<T> a,
                         ConstMatrixView<T> b, MatrixView<T> c0, MatrixView<T> c1,
                         const FA& fa, const FSplit& split) {
  packed::gemm_packed_split_b_entry(transa, transb, a, b, c0, c1, fa, split);
}

/// C += alpha * (A1·B1ᵀ + A2·B2ᵀ) with the paired micro-kernel (both
/// accumulators carried per k-step, summed on the final add). tc_syr2k's
/// packed path: A1/A2 and B1/B2 get fa/fb applied during packing. The caller
/// prescales C. Does not count flops.
template <typename T, typename FA, typename FB>
void gemm_packed_nt_pair(T alpha, ConstMatrixView<T> a1, ConstMatrixView<T> b1,
                         ConstMatrixView<T> a2, ConstMatrixView<T> b2, MatrixView<T> c,
                         const FA& fa, const FB& fb) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = a1.cols();
  TCEVD_CHECK(a1.rows() == m && a2.rows() == m && a2.cols() == k,
              "pair gemm A shape mismatch");
  TCEVD_CHECK(b1.rows() == n && b1.cols() == k && b2.rows() == n && b2.cols() == k,
              "pair gemm B shape mismatch");
  if (m == 0 || n == 0 || k == 0 || alpha == T{}) return;
  simd::detail::record_dispatch(simd::active_level());

  abft::CallStats stats;
  abft::CallStats* sp = abft::enabled() ? &stats : nullptr;
  packed::GemmJob<packed::Flavor::Pair, false, true, T, FA, FB> job;
  job.a1 = a1;
  job.a2 = a2;
  job.b1 = b1;
  job.b2 = b2;
  job.fa = &fa;
  job.fb = &fb;
  job.alpha = alpha;
  job.c0 = c;
  job.m = m;
  job.kern = packed::select_kernels<T>(packed::yields_fp16(fa) && packed::yields_fp16(fb));
  job.stats = sp;
  packed::run_blocks(job, n, k);
  if (sp != nullptr) abft::finish_call(stats, "syr2k");
}

}  // namespace blas
}  // namespace tcevd
