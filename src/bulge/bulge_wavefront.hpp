// Wavefront-parallel, cache-blocked bulge chasing (eigenvalues only).
//
// The serial chase (bulge_chasing.hpp) runs the sweeps of each diagonal one
// after another; this driver pipelines them. Consecutive sweeps are grouped
// into blocked sweep-sets (cache blocking: one lane advances a whole set
// through a band tile before the tile leaves cache), the band is cut into
// row tiles, and sweep s+1 enters a tile region as soon as sweep s has
// cleared it — the classic anti-diagonal wavefront of Rodríguez-Sánchez et
// al. (arXiv 1709.00302) and Ringoot et al. (arXiv 2510.12705), mapped onto
// the shared ThreadPool via the allocation-free try_broadcast fan-out.
//
// Dependency tracking is a per-sweep progress vector: progress[s] counts the
// chase eliminations of sweep s already applied at the current diagonal.
// Elimination k of sweep s may run once progress[s-1] >= min(len(s-1), k+3)
// — the gap-2 rule. DESIGN.md §14 proves that every pair of rotation
// applications this rule leaves unordered touches disjoint matrix entries,
// so ANY schedule respecting it — any lane count, block size, or tile height
// — applies the exact serial rotation sequence to every band entry, and the
// tridiagonal d/e is bitwise-equal to bulge_chase for every thread count.
// The test suite pins it.
//
// With Q the second stage takes the serial chase instead, overlapped with a
// parallel Q update (bulge_chasing.hpp): the Q update is the larger share of
// the work, and the serial chase of one diagonal is faster than the
// wavefront's handshakes. bulge_chase_auto below picks the route.
#pragma once

#include <cstddef>

#include "src/bulge/bulge_chasing.hpp"
#include "src/common/matrix.hpp"

namespace tcevd {
class Context;
class ThreadPool;
}  // namespace tcevd

namespace tcevd::bulge {

struct WavefrontOptions {
  /// Pool to fan lanes out on (e.g. &gemm_pool()). nullptr, a busy pool
  /// (try_broadcast declined), or a caller that is itself a pool worker all
  /// fall back to the caller draining every sweep-block inline — same
  /// rotations, same output, no deadlock.
  ThreadPool* pool = nullptr;
  /// Consecutive sweeps advanced together by one lane (cache blocking).
  /// Clamped to [1, kMaxSweepBlock]. Output does not depend on it.
  index_t sweep_block = 4;
  /// Band rows a sweep advances per wavestep (the tile height); the chunk of
  /// eliminations published at once is max(1, tile_rows / d). Output does
  /// not depend on it. The defaults (4, 32) chased an n = 1024, b = 32 fp32
  /// band without Q in 63-76 ms on four lanes, against 77-87 ms for (8, 192).
  index_t tile_rows = 32;
  /// Cap on broadcast lanes; 0 means pool size + 1 (the caller participates).
  int max_lanes = 0;
};

/// Upper bound on the context-workspace bytes any second-stage route
/// (bulge_chase_auto) checks out for an n x n problem of bandwidth bw: the
/// compact band plus, without Q, the wavefront's progress vector or, with Q,
/// the rotation logs and the packed Q panels (QUpdate::workspace_bytes).
/// Add it to lwork-style reservations alongside evd/sbr workspace_query.
template <typename T>
std::size_t chase_workspace_bytes(index_t n, index_t bw, bool with_q);

extern template std::size_t chase_workspace_bytes<float>(index_t, index_t, bool);
extern template std::size_t chase_workspace_bytes<double>(index_t, index_t, bool);

/// Hard cap on WavefrontOptions::sweep_block (per-lane stack state is sized
/// by it).
inline constexpr index_t kMaxSweepBlock = 32;

/// Reduce symmetric band `a` (full storage, bandwidth `bw`; read, not
/// written) to tridiagonal, bitwise-equal to bulge_chase(a, bw) for every
/// pool / lane count / blocking choice. Elapsed time lands on the context
/// telemetry under "bulge.chase.wavefront" (total) and "bulge.chase.sweep"
/// (summed per-diagonal fan-out windows). Compact band and progress state
/// live in the context workspace arena — steady-state calls allocate
/// nothing.
template <typename T>
BulgeResult<T> bulge_chase_wavefront(Context& ctx, ConstMatrixView<T> a, index_t bw,
                                     const WavefrontOptions& opt = {});

extern template BulgeResult<float> bulge_chase_wavefront<float>(Context&,
                                                                ConstMatrixView<float>,
                                                                index_t,
                                                                const WavefrontOptions&);
extern template BulgeResult<double> bulge_chase_wavefront<double>(Context&,
                                                                  ConstMatrixView<double>,
                                                                  index_t,
                                                                  const WavefrontOptions&);

/// Smallest n the auto route (bulge_threads == 0) fans the values-only
/// chase out at. On compact storage one elimination is a few hundred flops,
/// so the lanes' progress handshakes cost as much as the work: at bw = 32 on
/// four lanes the serial chase wins through n = 1024 and breaks even near
/// n = 2048.
inline constexpr index_t kAutoWavefrontMinN = 2048;

/// The same threshold with Q, for the overlapped route: its one broadcast
/// per diagonal costs more than the whole in-place Q update of a small Q.
/// Measured with bench_bulge at bw = 32 on four lanes (EXPERIMENTS.md): one
/// lane wins at n = 48, the two tie at n = 96, the lanes win from n = 128.
inline constexpr index_t kAutoOverlapMinN = 128;

/// Routing shim for the solver drivers (EvdOptions::bulge_threads): 1 forces
/// one lane (the serial chase, Q updated in place); >= 2 forces the lanes of
/// gemm_pool(), capped at that many: with Q the serial chase overlapped with
/// the Q update on packed panels, without Q the wavefront. Anything else
/// picks the lanes automatically when the band is chaseable (bw >= 2), the
/// caller is not itself a pool worker (solve_many workers are the
/// parallelism — fanning out under them would only add spin overhead) and
/// n >= kAutoOverlapMinN with Q, n >= kAutoWavefrontMinN without. Output
/// is bitwise-identical across every setting. Like both drivers it reads
/// `a` and leaves it unchanged.
template <typename T>
BulgeResult<T> bulge_chase_auto(Context& ctx, MatrixView<T> a, index_t bw,
                                MatrixView<T>* q, int bulge_threads);

extern template BulgeResult<float> bulge_chase_auto<float>(Context&, MatrixView<float>,
                                                           index_t, MatrixView<float>*, int);
extern template BulgeResult<double> bulge_chase_auto<double>(Context&, MatrixView<double>,
                                                             index_t, MatrixView<double>*,
                                                             int);

}  // namespace tcevd::bulge
