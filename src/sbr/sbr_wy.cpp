// WY-based recursive successive band reduction (paper Algorithm 1).
//
// Within a big block of nb columns the trailing matrix is *never* updated in
// place. Instead the block keeps the entry-time copy OA of the trailing
// matrix together with the accumulated reflectors (W, Y) — the invariant is
//
//   A_current(b:, b:) = (I - W Y^T)^T * OA * (I - W Y^T)
//
// (active-block indexing; reflector support starts at row b). Producing the
// next b-column panel, or the post-block full trailing update, is then a
// restriction of that identity to the needed rows/columns:
//
//   right:  M  = OA(:, C) - (OA W) Y(C, :)^T        <- the big near-square GEMM
//   left:   GA = M(R, :)  - Y(R, :) (W^T M)
//
// The OA*W product is recomputed with the full accumulated W each panel —
// this is the deliberate arithmetic overhead of Table 2 that buys GEMM
// shapes with inner dimension up to nb. Appending a panel's reflectors uses
// the WY update rule W <- [W | w - W (Y^T w)].
//
// All scratch (OA, W, Y, the P = OA*W cache, per-panel buffers) is checked
// out of the context's workspace arena: the outer scope lives for one big
// block, a nested scope per panel iteration. A steady-state caller therefore
// performs zero heap allocations here once the arena is warm.
//
// Look-ahead (SbrOptions::lookahead): the serial schedule leaves block i+1's
// first panel factorization stalled behind block i's full trailing update —
// the classic pipeline bubble left-looking look-ahead removes. Because every
// trailing column is an independent restriction of the block invariant, the
// update splits by columns with no change in the computed values: the first
// b trailing columns (the next panel's support) are produced eagerly on the
// calling thread, then the next panel is factored against the context's
// look-ahead sibling (private arena + telemetry) while the remaining
// trailing columns drain on a pool worker that touches only the *main*
// context. The prefactored reflectors are merged into block i+1's W/Y
// accumulation when its iteration begins. Same reflectors, different
// schedule; see DESIGN.md §10 for the arena-ownership rules.
#include <optional>
#include <string>

#include "src/blas/blas.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/common/context.hpp"
#include "src/common/recovery.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sbr/sbr.hpp"
#include "src/sbr/wy_block.hpp"
#include "src/tensorcore/tc_syr2k.hpp"

namespace tcevd::sbr {

using blas::Trans;

StatusOr<SbrOptions> validate_options(const SbrOptions& opt, index_t n) {
  SbrOptions v = opt;
  if (v.bandwidth < 1 || v.bandwidth >= n)
    return invalid_argument_error("sbr: bandwidth must satisfy 1 <= b < n (b = " +
                                  std::to_string(v.bandwidth) + ", n = " +
                                  std::to_string(n) + ")");
  if (v.big_block < v.bandwidth)
    return invalid_argument_error("sbr: big_block (nb = " + std::to_string(v.big_block) +
                                  ") must be >= bandwidth (b = " +
                                  std::to_string(v.bandwidth) + ")");
  if (v.big_block % v.bandwidth != 0) {
    const index_t rounded = v.big_block - v.big_block % v.bandwidth;
    recovery::note("sbr.options", "big_block " + std::to_string(v.big_block) +
                                      " is not a multiple of bandwidth " +
                                      std::to_string(v.bandwidth) + "; rounding down to " +
                                      std::to_string(rounded));
    v.big_block = rounded;
  }
  return v;
}

namespace detail {

Status non_square_error(const char* driver, ConstMatrixView<float> a) {
  return invalid_argument_error(std::string(driver) + ": requires a square symmetric matrix (" +
                                std::to_string(a.rows()) + " x " + std::to_string(a.cols()) +
                                ")");
}

/// Process the big block starting at global offset s; returns the number of
/// columns reduced (0 when the active matrix is already banded).
StatusOr<index_t> process_wy_block(WyBlockParams& prm, index_t s, LookaheadPanel& la) {
  const index_t na = prm.n - s;  // active size
  const index_t b = prm.b;
  if (na - b < 2) return index_t{0};

  Context& ctx = *prm.ctx;
  Workspace& ws = ctx.workspace();
  auto A = prm.A;

  auto block_scope = ws.scope();

  // OA: copy of the active trailing matrix (rows/cols [s+b, n)).
  const index_t mt = na - b;  // reflector row support
  auto oa = block_scope.matrix<float>(mt, mt);
  copy_matrix<float>(A.sub(s + b, s + b, mt, mt), oa);

  const index_t max_cols = std::min(prm.nb, na);
  auto W = block_scope.matrix<float>(mt, max_cols);
  auto Y = block_scope.matrix<float>(mt, max_cols);
  MatrixView<float> P;  // cached OA*W, extended per panel (cache_oa mode only)
  if (prm.cache_oa) P = block_scope.matrix<float>(mt, max_cols);

  index_t cols_done = 0;
  for (index_t p = 0;; ++p) {
    const index_t c = p * b;                 // active column offset of this panel
    if (c >= prm.nb || na - c - b < 2) break;
    const index_t m = na - c - b;            // panel rows

    auto panel_scope = ws.scope();

    if (p > 0) {
      // The in-block skinny GEMMs (this materialization, then the w' update
      // and P extension below) are timed as sbr.dbr.inner.
      std::optional<StageTimer> inner_timer;
      if (prm.dbr_stages) inner_timer.emplace(ctx.telemetry(), "sbr.dbr.inner");
      // Materialize the current values of columns C = [c, c+b), rows
      // [c, na) from OA and the accumulated (W, Y).
      const index_t pb = c;  // accumulated reflector count
      auto Wv = W.sub(0, 0, mt, pb);

      // P = OA * W: either the literal Algorithm-1 recompute with the full
      // accumulated W (the big near-square GEMM) or the maintained cache.
      ConstMatrixView<float> big_v;
      if (prm.cache_oa) {
        big_v = P.sub(0, 0, mt, pb);
      } else {
        auto big = panel_scope.matrix<float>(mt, pb);
        ctx.gemm(Trans::No, Trans::No, 1.0f, oa, Wv, 0.0f, big);
        big_v = big;
      }

      // M = OA(:, C') - P * Y(C', :)^T with C' = [c-b, c) in OA coordinates.
      auto mcol = panel_scope.matrix<float>(mt, b);
      copy_matrix<float>(oa.sub(0, c - b, mt, b), mcol);
      ctx.gemm(Trans::No, Trans::Yes, -1.0f, big_v,
               ConstMatrixView<float>(Y.sub(c - b, 0, b, pb)), 1.0f, mcol);

      // GA = M(R', :) - Y(R', :) (W^T M) with R' = [c-b, mt) in OA coords
      // (global rows [s+c, n)), which includes the b x b diagonal block.
      auto wtm = panel_scope.matrix<float>(pb, b);
      ctx.gemm(Trans::Yes, Trans::No, 1.0f, Wv, mcol, 0.0f, wtm);
      const index_t rrows = mt - (c - b);
      auto ga = panel_scope.matrix<float>(rrows, b);
      copy_matrix<float>(mcol.sub(c - b, 0, rrows, b), ga);
      ctx.gemm(Trans::No, Trans::No, -1.0f, ConstMatrixView<float>(Y.sub(c - b, 0, rrows, pb)),
               wtm, 1.0f, ga);

      // Write back: global rows [s+c, n) x cols [s+c, s+c+b), plus mirror.
      copy_matrix<float>(ConstMatrixView<float>(ga), A.sub(s + c, s + c, rrows, b));
      for (index_t j = 0; j < b; ++j)
        for (index_t r = 0; r < rrows; ++r) A(s + c + j, s + c + r) = A(s + c + r, s + c + j);
    }

    // Panel QR: global rows [s+c+b, n) x cols [s+c, s+c+b). When the panel
    // was prefactored during the previous block's overlap window, A already
    // holds [R; 0] and the reflectors come from the sibling arena; only the
    // band-column mirror (deferred past the join) remains.
    const bool prefactored = (p == 0) && la.valid && la.owner == s;
    MatrixView<float> w, y;
    if (prefactored) {
      w = la.w;
      y = la.y;
    } else {
      auto panel = A.sub(s + c + b, s + c, m, b);
      w = panel_scope.matrix<float>(m, b);
      y = panel_scope.matrix<float>(m, b);
      std::optional<StageTimer> panel_timer;
      if (prm.dbr_stages) panel_timer.emplace(ctx.telemetry(), "sbr.dbr.panel");
      TCEVD_RETURN_IF_ERROR(panel_factor_wy(ctx, prm.panel_kind, panel, w, y));
    }
    for (index_t j = 0; j < b; ++j)  // mirror the finalized band columns
      for (index_t r = 0; r < m; ++r) A(s + c + j, s + c + b + r) = A(s + c + b + r, s + c + j);

    // Append to the accumulated representation. The new reflectors live on
    // buffer rows [c, mt) (active rows [c+b, na)).
    auto ycol = Y.sub(0, c, mt, b);
    set_zero(ycol);
    copy_matrix<float>(ConstMatrixView<float>(y), Y.sub(c, c, m, b));

    auto wcol = W.sub(0, c, mt, b);
    set_zero(wcol);
    copy_matrix<float>(ConstMatrixView<float>(w), W.sub(c, c, m, b));
    if (prefactored) la.drop();  // reflectors copied out; release the sibling scope
    {
      std::optional<StageTimer> inner_timer;
      if (prm.dbr_stages) inner_timer.emplace(ctx.telemetry(), "sbr.dbr.inner");
      if (c > 0) {
        // w' = w - W (Y^T w).
        auto ytw = panel_scope.matrix<float>(c, b);
        ctx.gemm(Trans::Yes, Trans::No, 1.0f, ConstMatrixView<float>(Y.sub(c, 0, m, c)),
                 ConstMatrixView<float>(W.sub(c, c, m, b)), 0.0f, ytw);
        ctx.gemm(Trans::No, Trans::No, -1.0f, ConstMatrixView<float>(W.sub(0, 0, mt, c)),
                 ytw, 1.0f, wcol);
      }
      if (prm.cache_oa) {
        // Extend the cache: P(:, c:c+b) = OA * w'.
        ctx.gemm(Trans::No, Trans::No, 1.0f, oa, ConstMatrixView<float>(wcol), 0.0f,
                 P.sub(0, c, mt, b));
      }
    }

    cols_done = c + b;
  }

  if (cols_done == 0) return index_t{0};

  // Full trailing update: rows/cols [cols_done, na) — OA coords [cols_done-b, mt).
  const index_t t0 = cols_done - b;  // OA-coordinate offset
  const index_t tw = mt - t0;        // trailing width
  // Look-ahead fires only when a next block will actually run: its first
  // panel has next_rows = tw - b reflector rows and process_block requires
  // at least 2 of them.
  const index_t next_rows = tw - b;
  const bool overlap = prm.trailing == TrailingKind::Multiplicative && prm.lookahead &&
                       tw > 0 && next_rows >= 2;
  if (tw > 0) {
    std::optional<StageTimer> trail_timer;
    if (prm.dbr_stages) trail_timer.emplace(ctx.telemetry(), "sbr.dbr.trailing");
    auto trail_scope = ws.scope();
    auto Wv = W.sub(0, 0, mt, cols_done);

    ConstMatrixView<float> big_v;
    if (prm.cache_oa) {
      big_v = P.sub(0, 0, mt, cols_done);
    } else {
      auto big = trail_scope.matrix<float>(mt, cols_done);
      ctx.gemm(Trans::No, Trans::No, 1.0f, oa, Wv, 0.0f, big);
      big_v = big;
    }

    if (prm.trailing == TrailingKind::DetachedSyr2k) {
      // Detached rank-2k form (DBR): with P = OA W the block invariant
      // expands to GA = OA - Y Z^T - Z Y^T where S = W^T P (symmetric) and
      // Z = P - (1/2) Y S; restricted to the trailing rows/cols [t0, mt)
      // only Z's trailing rows are needed. Both update GEMMs carry inner
      // dimension cols_done (= nb on every full block) — the near-square
      // syr2k shape DBR exists to produce.
      const auto yt = ConstMatrixView<float>(Y.sub(t0, 0, tw, cols_done));
      auto smat = trail_scope.matrix<float>(cols_done, cols_done);
      ctx.gemm(Trans::Yes, Trans::No, 1.0f, Wv, big_v, 0.0f, smat);
      auto z = trail_scope.matrix<float>(tw, cols_done);
      copy_matrix<float>(big_v.sub(t0, 0, tw, cols_done), z);
      ctx.gemm(Trans::No, Trans::No, -0.5f, yt, ConstMatrixView<float>(smat), 1.0f, z);

      auto a22 = A.sub(s + cols_done, s + cols_done, tw, tw);
      copy_matrix<float>(oa.sub(t0, t0, tw, tw), a22);
      auto* tc_engine = dynamic_cast<tc::TcEngine*>(&ctx.engine());
      if (prm.use_tc_syr2k && tc_engine != nullptr) {
        tc::tc_syr2k(blas::Uplo::Lower, -1.0f, yt, ConstMatrixView<float>(z), 1.0f, a22,
                     tc_engine->precision());
        symmetrize_from_lower<float>(a22);
      } else {
        ctx.gemm(Trans::No, Trans::Yes, -1.0f, yt, ConstMatrixView<float>(z), 1.0f, a22);
        ctx.gemm(Trans::No, Trans::Yes, -1.0f, ConstMatrixView<float>(z), yt, 1.0f, a22);
      }
    } else if (!overlap) {
      auto mcol = trail_scope.matrix<float>(mt, tw);
      copy_matrix<float>(oa.sub(0, t0, mt, tw), mcol);
      ctx.gemm(Trans::No, Trans::Yes, -1.0f, big_v,
               ConstMatrixView<float>(Y.sub(t0, 0, tw, cols_done)), 1.0f, mcol);

      auto wtm = trail_scope.matrix<float>(cols_done, tw);
      ctx.gemm(Trans::Yes, Trans::No, 1.0f, Wv, mcol, 0.0f, wtm);
      auto ga = trail_scope.matrix<float>(tw, tw);
      copy_matrix<float>(mcol.sub(t0, 0, tw, tw), ga);
      ctx.gemm(Trans::No, Trans::No, -1.0f, ConstMatrixView<float>(Y.sub(t0, 0, tw, cols_done)),
               wtm, 1.0f, ga);

      copy_matrix<float>(ConstMatrixView<float>(ga),
                         A.sub(s + cols_done, s + cols_done, tw, tw));
    } else {
      // --- look-ahead schedule -------------------------------------------
      // Every trailing column j is M(:, j) = OA(:, t0+j) - P Y(t0+j, :)^T
      // followed by the left restriction — column-independent, so the split
      // below computes exactly the values of the unsplit update.
      //
      // (1) First b columns now, on this thread: the next panel's support.
      {
        auto pre_scope = ws.scope();
        auto mcol = pre_scope.matrix<float>(mt, b);
        copy_matrix<float>(oa.sub(0, t0, mt, b), mcol);
        ctx.gemm(Trans::No, Trans::Yes, -1.0f, big_v,
                 ConstMatrixView<float>(Y.sub(t0, 0, b, cols_done)), 1.0f, mcol);
        auto wtm = pre_scope.matrix<float>(cols_done, b);
        ctx.gemm(Trans::Yes, Trans::No, 1.0f, Wv, mcol, 0.0f, wtm);
        auto ga = pre_scope.matrix<float>(tw, b);
        copy_matrix<float>(mcol.sub(t0, 0, tw, b), ga);
        ctx.gemm(Trans::No, Trans::No, -1.0f,
                 ConstMatrixView<float>(Y.sub(t0, 0, tw, cols_done)), wtm, 1.0f, ga);
        copy_matrix<float>(ConstMatrixView<float>(ga),
                           A.sub(s + cols_done, s + cols_done, tw, b));
      }

      // (2) Remainder scratch checked out *before* the worker starts: during
      // the overlap window the worker must never touch this arena's bump
      // pointer (it only fills buffers the caller handed it).
      const index_t tw2 = tw - b;
      auto mcol2 = trail_scope.matrix<float>(mt, tw2);
      auto wtm2 = trail_scope.matrix<float>(cols_done, tw2);
      auto ga2 = trail_scope.matrix<float>(tw, tw2);

      // (3) Overlap: the trailing remainder drains on a pool worker through
      // the MAIN context (arena untouched, telemetry exclusively its own for
      // the window) while this thread factors block i+1's first panel
      // against the SIBLING context. Worker-side recovery notes land in a
      // local scope and are re-homed onto this thread's ambient scope after
      // the join (recovery scopes are thread-local).
      Context& sib = ctx.lookahead_sibling();
      la.scope.emplace(sib.workspace());
      la.w = la.scope->matrix<float>(next_rows, b);
      la.y = la.scope->matrix<float>(next_rows, b);
      Status panel_st = ok_status();
      RecoveryLog trailing_log;
      StageTimer overlap_timer(ctx.telemetry(), "sbr.wy.lookahead");
      overlap_pool().run_pair(
          [&] {  // pool worker: trailing-update remainder
            recovery::Scope worker_scope;
            StageTimer t(ctx.telemetry(), "sbr.wy.trailing");
            copy_matrix<float>(oa.sub(0, t0 + b, mt, tw2), mcol2);
            ctx.gemm(Trans::No, Trans::Yes, -1.0f, big_v,
                     ConstMatrixView<float>(Y.sub(t0 + b, 0, tw2, cols_done)), 1.0f, mcol2);
            ctx.gemm(Trans::Yes, Trans::No, 1.0f, Wv, mcol2, 0.0f, wtm2);
            copy_matrix<float>(mcol2.sub(t0, 0, tw, tw2), ga2);
            ctx.gemm(Trans::No, Trans::No, -1.0f,
                     ConstMatrixView<float>(Y.sub(t0, 0, tw, cols_done)), wtm2, 1.0f, ga2);
            copy_matrix<float>(ConstMatrixView<float>(ga2),
                               A.sub(s + cols_done, s + cols_done + b, tw, tw2));
            trailing_log = worker_scope.take();
          },
          [&] {  // calling thread: next block's first panel, sibling arena
            // GEMM-level threads stand down for the overlap window: the
            // worker half's GEMMs already run serial (pool-worker guard), and
            // this scope keeps the panel's GEMMs off gemm_pool() too so the
            // pair never competes with itself for the machine.
            blas::SerialGemmScope serial_gemms;
            StageTimer t(sib.telemetry(), "sbr.wy.lookahead.panel");
            auto panel = A.sub(s + cols_done + b, s + cols_done, next_rows, b);
            panel_st = panel_factor_wy(sib, prm.panel_kind, panel, la.w, la.y);
          });
      overlap_timer.stop();
      for (const RecoveryEvent& ev : trailing_log) recovery::note(ev.site, ev.action);
      if (!panel_st.ok()) {
        la.drop();
        return panel_st;
      }
      la.owner = s + cols_done;
      la.valid = true;
    }
  }

  if (prm.blocks) {
    WyBlock blk;
    blk.w = Matrix<float>(mt, cols_done);
    blk.y = Matrix<float>(mt, cols_done);
    copy_matrix<float>(ConstMatrixView<float>(W.sub(0, 0, mt, cols_done)), blk.w.view());
    copy_matrix<float>(ConstMatrixView<float>(Y.sub(0, 0, mt, cols_done)), blk.y.view());
    blk.row_offset = s + b;
    prm.blocks->push_back(std::move(blk));
  }

  return cols_done;
}

}  // namespace detail

namespace {

/// Shared driver loop of sbr_wy / sbr_dbr: run process_wy_block over the
/// recursion, absorb look-ahead telemetry, form Q on request (timed as
/// sbr.form_q).
StatusOr<SbrResult> run_wy_blocks(ConstMatrixView<float> a, Context& ctx,
                                  const SbrOptions& opt, index_t nb,
                                  detail::TrailingKind trailing, bool lookahead,
                                  bool dbr_stages) {
  const index_t n = a.rows();
  SbrResult result;
  result.band = Matrix<float>(n, n);
  copy_matrix(a, result.band.view());

  detail::WyBlockParams prm;
  prm.A = result.band.view();
  prm.n = n;
  prm.b = opt.bandwidth;
  prm.nb = nb;
  prm.ctx = &ctx;
  prm.panel_kind = opt.panel;
  prm.blocks = &result.blocks;
  prm.cache_oa = opt.wy_cache_oa_product;
  prm.lookahead = lookahead;
  prm.trailing = trailing;
  prm.use_tc_syr2k = opt.dbr_use_tc_syr2k;
  prm.dbr_stages = dbr_stages;

  {
    detail::LookaheadPanel la;  // prefactored panel carried across block boundaries
    index_t s = 0;
    for (;;) {
      StatusOr<index_t> done = detail::process_wy_block(prm, s, la);
      if (!done.ok()) return done.status();
      if (*done == 0) break;
      s += *done;
    }
  }
  if (ctx.has_lookahead_sibling()) ctx.absorb_sibling_telemetry();

  if (opt.accumulate_q) {
    StageTimer form_timer(ctx.telemetry(), "sbr.form_q");
    result.q = form_q(result.blocks, n, ctx);
  }
  return result;
}

}  // namespace

StatusOr<SbrResult> sbr_wy(ConstMatrixView<float> a, Context& ctx, const SbrOptions& opt) {
  const index_t n = a.rows();
  if (a.cols() != n) return detail::non_square_error("sbr_wy", a);
  StatusOr<SbrOptions> vopt_or = validate_options(opt, n);
  if (!vopt_or.ok()) return vopt_or.status();
  const SbrOptions vopt = *vopt_or;

  ctx.workspace().reserve(workspace_query(n, vopt));
  if (vopt.lookahead)
    ctx.lookahead_sibling().workspace().reserve(lookahead_workspace_query(n, vopt));
  StageTimer stage(ctx.telemetry(), "sbr.wy");
  return run_wy_blocks(a, ctx, vopt, vopt.big_block, detail::TrailingKind::Multiplicative,
                       vopt.lookahead, /*dbr_stages=*/false);
}

StatusOr<SbrResult> sbr_dbr(ConstMatrixView<float> a, Context& ctx, const SbrOptions& opt) {
  const index_t n = a.rows();
  if (a.cols() != n) return detail::non_square_error("sbr_dbr", a);
  StatusOr<SbrOptions> vopt_or = validate_options(opt, n);
  if (!vopt_or.ok()) return vopt_or.status();
  const SbrOptions vopt = *vopt_or;

  // b == nb degenerates to one sub-panel per block, where the detached form
  // buys nothing: run the multiplicative sbr_wy path verbatim so the output
  // is bitwise identical to sbr_wy (including its look-ahead schedule).
  const bool detached = vopt.bandwidth < vopt.big_block;
  bool lookahead = vopt.lookahead;
  if (detached && lookahead) {
    // The detached trailing update is one fused rank-2k, not a column-
    // splittable two-step — there is no overlap window to schedule into.
    recovery::note("sbr.dbr",
                   "look-ahead is not supported for b < nb; running the serial schedule");
    lookahead = false;
  }

  ctx.workspace().reserve(workspace_query(n, vopt));
  if (lookahead)
    ctx.lookahead_sibling().workspace().reserve(lookahead_workspace_query(n, vopt));
  StageTimer stage(ctx.telemetry(), "sbr.dbr");
  return run_wy_blocks(a, ctx, vopt, vopt.big_block,
                       detached ? detail::TrailingKind::DetachedSyr2k
                                : detail::TrailingKind::Multiplicative,
                       lookahead, /*dbr_stages=*/true);
}

std::size_t workspace_query(index_t n, const SbrOptions& opt) {
  if (n <= 1) return 0;
  const index_t b = std::min<index_t>(std::max<index_t>(opt.bandwidth, 1), n - 1);
  index_t nb = std::max(opt.big_block, b);
  nb -= nb % b;
  const index_t mt = std::max<index_t>(n - b, 1);

  // Per big block (worst case: the first, where mt is largest). Counted in
  // floats; see process_block for the buffers these bound.
  double f = 0.0;
  f += double(mt) * mt;            // OA copy
  f += 3.0 * double(mt) * nb;      // W, Y, and the P = OA*W cache
  f += double(mt) * nb;            // literal-recompute OA*W ("big")
  f += 2.0 * double(mt) * mt;      // trailing M and GA
  f += double(nb) * mt;            // W^T M
  // DBR detached trailing update: S (nb x nb) and Z (tw x nb <= mt x nb).
  // Counted unconditionally — the bound stays one formula for all variants.
  f += double(nb) * nb + double(mt) * nb;
  // Panel factorization: w/y, TSQR q/r + tree scratch (one work copy per
  // level plus six (2b x b)-ish combine buffers over ~log2 levels), the
  // reconstruction LU copy, and the blocked-QR fallback work buffer.
  f += 6.0 * double(mt) * b;
  f += 8.0 * double(b) * b * 64.0;
  // The look-ahead split checks out column slices of the same trailing
  // buffers (part-1 slices under a nested scope released before the part-2
  // checkout), so the trailing terms above already bound it.
  // ZY-variant scratch (P, S, Z, back-transform T) is strictly smaller and
  // also covered by the panel + trailing terms above.

  // Alignment slop: every checkout rounds up to Workspace::kAlignment.
  constexpr std::size_t kAllocSlop = 512 * Workspace::kAlignment;
  return static_cast<std::size_t>(f) * sizeof(float) + kAllocSlop;
}

std::size_t lookahead_workspace_query(index_t n, const SbrOptions& opt) {
  if (!opt.lookahead || n <= 1) return 0;
  const index_t b = std::min<index_t>(std::max<index_t>(opt.bandwidth, 1), n - 1);
  const index_t mt = std::max<index_t>(n - b, 1);
  // The prefactored reflectors held across the block boundary (w, y) plus
  // the panel factorization's own scratch running on top of them — the
  // "doubled W/Y checkout": same panel terms as workspace_query, doubled.
  double f = 2.0 * double(mt) * b;         // held w/y
  f += 6.0 * double(mt) * b;               // TSQR q/r + tree scratch
  f += 8.0 * double(b) * b * 64.0;         // combine buffers, LU copy, fallback
  constexpr std::size_t kAllocSlop = 128 * Workspace::kAlignment;
  return static_cast<std::size_t>(f) * sizeof(float) + kAllocSlop;
}

}  // namespace tcevd::sbr
