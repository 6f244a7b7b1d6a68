// Symmetric eigenvalue decomposition drivers (paper Section 6.4).
//
// The two-stage pipeline is: SBR (dense -> band, Tensor Core GEMMs) ->
// bulge chasing (band -> tridiagonal) -> tridiagonal eigensolver (QL or
// divide & conquer), with an optional eigenvector back-transformation
// through the accumulated orthogonal factors. The one-stage pipeline
// (classic Householder tridiagonalization) is kept as the conventional
// baseline the two-stage method is measured against.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/matrix.hpp"
#include "src/common/recovery.hpp"
#include "src/common/status.hpp"
#include "src/common/verify.hpp"
#include "src/sbr/sbr.hpp"
#include "src/tensorcore/engine.hpp"

namespace tcevd {
class Context;
}  // namespace tcevd

namespace tcevd::evd {

enum class Reduction {
  TwoStageWy,   ///< WY-based SBR (the paper's method) + bulge chasing
  TwoStageZy,   ///< ZY-based SBR (MAGMA-style baseline) + bulge chasing
  TwoStageDbr,  ///< Detached Band Reduction (narrow band b, wide accumulation
                ///< nb — sbr::sbr_dbr) + bulge chasing on the narrow band
  OneStage,     ///< direct Householder tridiagonalization (sytrd)
};

enum class TriSolver {
  Ql,             ///< implicit QL/QR with Wilkinson shifts (steqr)
  DivideConquer,  ///< Cuppen D&C (stedc) — what MAGMA's ssyevd uses
  Bisection,      ///< Sturm bisection (+ inverse iteration for vectors)
};

/// Human-readable solver name ("ql", "divide-conquer", "bisection").
const char* tri_solver_name(TriSolver solver) noexcept;

struct EvdOptions {
  Reduction reduction = Reduction::TwoStageWy;
  TriSolver solver = TriSolver::DivideConquer;
  /// SBR band half-width b (size-clamped to n - 1; for TwoStageDbr pick it
  /// small — the second stage is O(n^2 b) — and pick big_block large).
  index_t bandwidth = 32;
  /// WY/DBR accumulation blocksize nb. The driver derives a valid SbrOptions
  /// pair from (bandwidth, big_block): values below the (clamped) bandwidth
  /// are raised to it and non-multiples rounded down, each adjustment noted
  /// in EvdResult::recovery (site "evd.options" / "sbr.options") rather than
  /// silently applied. Direct sbr::* callers get strict InvalidArgument
  /// rejection instead — see sbr::validate_options.
  index_t big_block = 128;
  sbr::PanelKind panel = sbr::PanelKind::Tsqr;
  bool vectors = false;                         ///< compute eigenvectors
  /// Threading of the second stage, which chases the band on compact
  /// O(n*b) storage (src/bulge/bulge_wavefront.hpp, bulge_chase_auto).
  /// 0 = auto: lanes of the shared gemm_pool() when the band is >= 2 wide
  /// and the caller is not itself a pool worker (solve_many workers keep one
  /// lane — they ARE the parallelism). With vectors the lanes engage from
  /// n >= 128 and update Q's packed panels while the caller's lane chases
  /// the next diagonal; without vectors the wavefront chase engages from
  /// n >= 2048. 1 = always one lane
  /// (the serial chase, Q updated in place). k >= 2 = at most k lanes.
  /// Every setting produces bitwise-identical output (DESIGN.md §14), so
  /// this is a performance knob, never an accuracy one. An explicit k >= 2
  /// that cannot engage (pool worker, bandwidth < 2, or n <= 2) runs one
  /// lane and notes the downgrade in EvdResult::recovery at site
  /// "evd.second_stage".
  int bulge_threads = 0;
  /// Forwarded to SbrOptions::lookahead for the TwoStageWy and TwoStageDbr
  /// reductions: overlap each big block's panel factorization with the
  /// previous block's trailing update. Numerically identical banded output;
  /// ignored by the ZY and one-stage reductions, and noted + run serial by
  /// DBR when b < nb (site "sbr.dbr").
  bool lookahead = false;
  /// Reject NaN/Inf entries and gross asymmetry up front (InvalidInput)
  /// instead of feeding garbage to the pipeline. O(n^2) scan.
  bool screen_input = true;
  /// Relative asymmetry tolerance for the input screen:
  /// |a_ij - a_ji| <= asymmetry_tol * max|a| is accepted.
  float asymmetry_tol = 1e-3f;
  /// Degrade gracefully on recoverable solver failures by walking the
  /// DivideConquer -> Ql -> Bisection chain (each fallback recorded in
  /// EvdResult::recovery). When false, the first failure propagates.
  bool allow_fallbacks = true;

  // --- verified solves (see src/common/verify.hpp and DESIGN.md §12) -------
  /// Post-solve verification policy. Off skips verification entirely.
  /// Estimate computes stochastic residual/orthogonality estimates (or the
  /// trace/Frobenius invariants for eigenvalue-only solves), records the
  /// verdict in EvdResult::verify and notes a breach at recovery site
  /// "evd.verify" — but still returns the result. EstimateEscalate
  /// additionally re-solves a breached problem on the next higher-accuracy
  /// engine (Tc -> EcTc -> Fp32) under `verify_max_attempts`; when the chain
  /// or the budget is exhausted without a passing estimate, the solve
  /// returns PrecisionLoss instead of a result.
  verify::Policy verify = verify::Policy::Off;
  /// Probe vectors per verification (see verify::Options::probes).
  int verify_probes = 4;
  /// Total solve attempts (initial + escalated re-solves) EstimateEscalate
  /// may spend before giving up.
  int verify_max_attempts = 3;
  /// Multiplies both verification thresholds (tighten < 1, loosen > 1).
  float verify_tol_scale = 1.0f;
  /// Run every packed GEMM issued during this solve under ABFT checksum
  /// protection (src/blas/abft.hpp): each C micro-tile is verified against a
  /// column-checksum invariant and a corrupted tile is recomputed in place,
  /// with the event recorded at recovery site "blas.abft". ~10% GEMM
  /// overhead; a recovered solve is bitwise-identical to a fault-free one.
  bool abft = false;
};

struct EvdTimings {
  double reduction_s = 0.0;  ///< SBR or sytrd
  double bulge_s = 0.0;      ///< bulge chasing (two-stage only)
  double solver_s = 0.0;     ///< tridiagonal eigensolver
  double verify_s = 0.0;     ///< residual estimation (verified solves only)
  double total_s = 0.0;
};

struct EvdResult {
  std::vector<float> eigenvalues;  ///< ascending (iu - il + 1 for a window)
  Matrix<float> vectors;           ///< n x n, n x nev for a window (empty unless requested)
  EvdTimings timings;
  bool converged = false;
  /// Every graceful-degradation event taken while solving (panel QR
  /// fallbacks, fp32 GEMM retries, tridiagonal solver fallbacks, ABFT tile
  /// recomputations, verification escalations). Empty on a clean run.
  RecoveryLog recovery;
  /// Verification verdict (EvdOptions::verify != Off only; default-initial
  /// otherwise, with checked == false). Under EstimateEscalate a returned
  /// result always has verify.passed == true — a breach either escalated to
  /// a passing re-solve recorded here (attempts/escalations/engine) or the
  /// solve failed with PrecisionLoss.
  verify::Report verify;
};

/// Full single-precision EVD with the context's engine supplying every SBR
/// GEMM and its workspace arena supplying every scratch matrix. On entry the
/// arena is pre-sized with workspace_query, so the *second* solve of the
/// same shape on a given Context performs zero arena growth (see the
/// steady-state test); per-stage wall time and the aggregated recovery log
/// additionally land on the context's telemetry.
///
/// Failure semantics: a non-square matrix is InvalidArgument; invalid input
/// (NaN/Inf/asymmetric) is InvalidInput;
/// recoverable numerical trouble first walks the documented fallbacks
/// (TSQR -> blocked QR panels, fp32 GEMM retry, solver chain) and only
/// propagates if every fallback is exhausted. A returned EvdResult is
/// always converged; `recovery` says what it took.
StatusOr<EvdResult> solve(ConstMatrixView<float> a, Context& ctx, const EvdOptions& opt);

/// Eigenpairs with indices il..iu (0-based, inclusive, ascending order) of
/// symmetric `a`: the same SolveJob pipeline as solve, with the solver stage
/// restricted to the window (Sturm bisection, inverse iteration for the
/// n x nev tridiagonal vectors, one back-transformation GEMM). opt.vectors
/// requests the vectors; opt.solver is ignored. If inverse iteration fails
/// and opt.allow_fallbacks is set, the window's vectors are recomputed from a
/// full QL solve (recovery site "evd.partial"). InvalidArgument for a
/// non-square matrix, an index range outside [0, n), or opt.verify != Off —
/// the verification estimators need the full eigensystem.
StatusOr<EvdResult> solve_selected(ConstMatrixView<float> a, Context& ctx,
                                   const EvdOptions& opt, index_t il, index_t iu);

/// Peak workspace-arena bytes one solve of size n needs (LAPACK-lwork
/// style, conservative — covers the SBR stage, the one-stage scratch, the
/// solver-fallback restore point, and the bisection/inverse-iteration path).
std::size_t workspace_query(index_t n, const EvdOptions& opt);

/// Double-precision reference eigenvalues (one-stage sytrd + QL), the stand-
/// in for "LAPACK dsyevd" ground truth in the accuracy tables. Reports
/// NoConvergence instead of aborting when the QL iteration stalls.
StatusOr<std::vector<double>> reference_eigenvalues(ConstMatrixView<double> a);

/// Residual metrics for a computed eigensystem: max_j ||A v_j - lambda_j
/// v_j||_2 / ||A||_F, computed in double.
double eigenpair_residual(ConstMatrixView<float> a, const std::vector<float>& lambda,
                          ConstMatrixView<float> v);

}  // namespace tcevd::evd
