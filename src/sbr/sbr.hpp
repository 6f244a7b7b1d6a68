// Successive Band Reduction (the paper's core subject).
//
// Both variants reduce a dense symmetric A to a symmetric band matrix B of
// bandwidth `bandwidth` via an orthogonal similarity  B = Q^T A Q:
//
//   * sbr_zy — the conventional algorithm (LAPACK/MAGMA `sytrd_sy2sb`
//     lineage): after each b-column panel QR, the whole trailing matrix is
//     updated with the rank-2b ZY form  A <- A - Y Z^T - Z Y^T. Every GEMM
//     has inner dimension b (tall-and-skinny), the shape Tensor Cores run
//     worst (paper Table 1).
//
//   * sbr_wy — the paper's Algorithm 1: panels inside a big block of `nb`
//     columns update only the *next* panel, against the block-entry copy OA
//     of the trailing matrix, using the accumulated multiplicative form
//     GA = (I - W Y^T)^T OA (I - W Y^T); the full trailing matrix is updated
//     once per big block and the routine recurses. More flops (Table 2) but
//     near-square GEMMs (inner dimension grows to nb) that Tensor Cores run
//     near peak.
//
//   * sbr_dbr — Detached Band Reduction (Wang et al., arXiv 2410.02170, the
//     follow-up to the source paper): same chained sub-panel factorization
//     and nb-wide (W, Y) accumulation as sbr_wy, but with bandwidth b fully
//     decoupled from nb (b <= nb, nb/b sub-panels per big block) and the
//     once-per-block trailing update rewritten as a symmetric rank-2k with
//     inner dimension nb:  GA = OA - Y Z^T - Z Y^T,  Z = OA W - (1/2) Y S,
//     S = W^T OA W. Stage one keeps its near-square k = nb GEMMs while
//     stage two (bulge chasing) receives a cheap narrow band. With b == nb
//     sbr_dbr runs the sbr_wy code path verbatim (bitwise identical output).
//
// All level-3 updates go through the Context's GemmEngine, so the same code
// runs in fp32, emulated-Tensor-Core, or error-corrected TC numerics, and
// shape recording on the context's telemetry sink captures exactly the GEMM
// mix each algorithm generates. Panels are factored in fp32 (TSQR +
// Householder reconstruction, or blocked Householder QR), as on the real GPU
// where only the GEMMs ran on Tensor Cores. Every scratch buffer (the OA
// copy, the P = OA*W cache, panel W/Y, merge buffers) is checked out of the
// context's workspace arena — size it with workspace_query for an
// allocation-free steady state.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/matrix.hpp"
#include "src/common/status.hpp"
#include "src/tensorcore/engine.hpp"

namespace tcevd {
class Context;
}  // namespace tcevd

namespace tcevd::sbr {

enum class PanelKind {
  Tsqr,       ///< TSQR + LU-based Householder reconstruction (paper Sec. 5.1/5.2)
  BlockedQr,  ///< blocked Householder QR (the cuSOLVER-panel stand-in)
};

struct SbrOptions {
  /// b: output band half-width. Validated (not clamped): 1 <= b < n.
  index_t bandwidth = 32;
  /// nb: WY/DBR accumulation blocksize. Independent of `bandwidth`, but must
  /// satisfy nb >= b — smaller values are rejected with InvalidArgument by
  /// validate_options (no silent mutation). A non-multiple of b is rounded
  /// down to one, noted on the ambient recovery scope (site "sbr.options").
  index_t big_block = 128;
  PanelKind panel = PanelKind::Tsqr;
  bool accumulate_q = false;       ///< form the explicit n x n Q
  bool zy_use_syr2k = false;       ///< ZY only: use fp32 syr2k for the rank-2b
                                   ///< update (the non-Tensor-Core MAGMA path)
                                   ///< instead of two engine GEMMs
  /// ZY only: use the Tensor-Core-native symmetric rank-2k kernel
  /// (tc::tc_syr2k — the paper's first future-work item) for the trailing
  /// update when the engine is a TcEngine. Halves the trailing-update work
  /// vs the two-GEMM form. Ignored for non-TC engines.
  bool zy_use_tc_syr2k = false;
  /// WY only. false = literal paper Algorithm 1: recompute OA*W with the full
  /// accumulated W in every inner iteration (flops grow ~quadratically in
  /// nb — with that accounting WY can never beat ZY, so the paper's
  /// implementation cannot be doing it). true (default) = cache P = OA*W and
  /// extend it incrementally per panel: mathematically identical, and its
  /// flop count brackets the paper's Table 2 from below while the literal
  /// form brackets it from above. See EXPERIMENTS.md.
  bool wy_cache_oa_product = true;
  /// DBR only: run the detached trailing update A <- A - Y Z^T - Z Y^T
  /// through the Tensor-Core-native symmetric rank-2k kernel (tc::tc_syr2k)
  /// when the engine is a TcEngine — half the tile work of the two-GEMM
  /// form. Ignored for non-TC engines and when b == nb (where the trailing
  /// update is the multiplicative sbr_wy form).
  bool dbr_use_tc_syr2k = false;
  /// WY only: left-looking look-ahead. The post-block trailing update is
  /// split so the next block's first-panel columns are updated first; that
  /// panel is then factored (TSQR + WY reconstruction) on the context's
  /// look-ahead sibling while the remainder of the trailing update runs
  /// concurrently on the shared overlap pool, removing the pipeline bubble
  /// between consecutive big blocks. Same reflectors, different schedule:
  /// the banded output matches the lookahead=false band to fp32 roundoff
  /// (bitwise on column-independent engines), and lookahead=false remains
  /// bitwise identical to the pre-look-ahead code. See DESIGN.md §10.
  bool lookahead = false;
};

/// One accumulated block reflector I - W Y^T whose row support starts at
/// `row_offset` (global indexing); produced per big block by sbr_wy.
struct WyBlock {
  Matrix<float> w;
  Matrix<float> y;
  index_t row_offset = 0;
};

struct SbrResult {
  Matrix<float> band;          ///< n x n symmetric band matrix B
  Matrix<float> q;             ///< n x n orthogonal Q (empty unless requested)
  std::vector<WyBlock> blocks; ///< WY blocks (sbr_wy only; for FormW / tests)
};

// All three drivers return InvalidArgument for a non-square `a`.

/// Conventional ZY-based SBR (baseline). Panel failures that survive the
/// internal TSQR -> BlockedQr fallback propagate as a non-ok Status.
StatusOr<SbrResult> sbr_zy(ConstMatrixView<float> a, Context& ctx, const SbrOptions& opt);

/// WY-based recursive SBR (paper Algorithm 1).
StatusOr<SbrResult> sbr_wy(ConstMatrixView<float> a, Context& ctx, const SbrOptions& opt);

/// Detached Band Reduction: reduce to bandwidth b while accumulating W/Y
/// over nb >= b columns; the per-block trailing update is the detached
/// symmetric rank-2k form with inner dimension nb (see the header comment).
/// Stage telemetry lands under "sbr.dbr", with the sub-stages
/// "sbr.dbr.panel" (TSQR panel + WY reconstruction), "sbr.dbr.inner" (the
/// in-block skinny GEMMs), "sbr.dbr.trailing" and, with accumulate_q,
/// "sbr.form_q" (also recorded by sbr_wy). With b == nb
/// the output is bitwise identical to sbr_wy (same code path). Look-ahead is
/// not supported for b < nb: the request is noted at recovery site "sbr.dbr"
/// and the block schedule runs serial.
StatusOr<SbrResult> sbr_dbr(ConstMatrixView<float> a, Context& ctx, const SbrOptions& opt);

namespace detail {
/// The drivers' InvalidArgument for a non-square input.
Status non_square_error(const char* driver, ConstMatrixView<float> a);
}  // namespace detail

/// Validate and normalize caller options against problem size n: rejects
/// bandwidth outside [1, n) and big_block < bandwidth with InvalidArgument;
/// rounds a big_block that is not a multiple of bandwidth down to one,
/// noting the adjustment on the ambient recovery scope (site "sbr.options").
/// Every SBR entry point runs its options through this — callers that want
/// to fail fast can call it themselves.
StatusOr<SbrOptions> validate_options(const SbrOptions& opt, index_t n);

/// Peak workspace-arena bytes one sbr_wy/sbr_zy/sbr_dbr call of size n needs
/// (LAPACK-lwork style, conservative). Reserve it on the context's arena —
/// `ctx.workspace().reserve(workspace_query(n, opt))` — to make every solve
/// after the first allocation-free; the drivers also reserve it themselves
/// on entry. The bound covers the split trailing update too, so it is
/// unchanged by `opt.lookahead` (the overlapped panel draws from the
/// sibling arena sized by lookahead_workspace_query below).
std::size_t workspace_query(index_t n, const SbrOptions& opt);

/// Peak bytes the look-ahead *sibling* arena needs: the doubled W/Y panel
/// checkout (the prefactored next-panel reflectors held across the block
/// boundary on top of the panel factorization's own W/Y scratch) plus TSQR
/// tree buffers. Zero when `opt.lookahead` is false. sbr_wy reserves this on
/// `ctx.lookahead_sibling()` itself on entry; exposed for callers that want
/// to pre-warm the sibling arena.
std::size_t lookahead_workspace_query(index_t n, const SbrOptions& opt);

/// Factor `panel` (m x k, m >= 2) into (I - W Y^T) [R; 0]; writes [R; 0]
/// back into `panel` and fills w, y (m x k). Shared by both SBR variants and
/// benchmarked on its own for paper Figure 8. QR scratch comes from the
/// context's workspace arena.
///
/// The TSQR path degrades gracefully: if TSQR or the WY reconstruction
/// reports a recoverable failure (singular reconstruction LU, injected
/// fault, non-finite panel output), the routine retries with blocked
/// Householder QR and notes the event in the ambient recovery scope. A
/// failure of the blocked path itself (non-finite input) is terminal.
Status panel_factor_wy(Context& ctx, PanelKind kind, MatrixView<float> panel,
                       MatrixView<float> w, MatrixView<float> y);

/// Merge the per-block reflectors into one (W, Y) pair with n rows so that
/// Q = I - W Y^T equals the product of all blocks, using the recursive
/// pairwise scheme of paper Algorithm 2 ("FormW"). GEMMs go through the
/// context's engine; the merge runs in place on the output buffers (only
/// the small cross products are arena scratch). Used for the eigenvector
/// back-transformation.
void form_wy_product(const std::vector<WyBlock>& blocks, index_t n, Context& ctx,
                     Matrix<float>& w_out, Matrix<float>& y_out);

/// Explicit Q = I - W Y^T from the merged representation.
Matrix<float> form_q(const std::vector<WyBlock>& blocks, index_t n, Context& ctx);

/// Apply Q = prod_k (I - W_k Y_k^T) to X from the left (X <- Q X) without
/// ever forming Q — the memory-lean way to back-transform a block of
/// eigenvectors (n x nev GEMMs instead of an n x n Q).
void apply_wy_blocks_left(const std::vector<WyBlock>& blocks, Context& ctx,
                          MatrixView<float> x);

/// panel_factor_wy on a per-thread scratch arena (warm after the first
/// call), for panel-level callers that hold no Context.
Status panel_factor_wy(PanelKind kind, MatrixView<float> panel, MatrixView<float> w,
                       MatrixView<float> y);

}  // namespace tcevd::sbr
