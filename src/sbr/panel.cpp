#include <cmath>
#include <limits>
#include <vector>

#include "src/common/context.hpp"
#include "src/common/fault.hpp"
#include "src/common/recovery.hpp"
#include "src/common/workspace.hpp"
#include "src/lapack/qr.hpp"
#include "src/sbr/sbr.hpp"
#include "src/tsqr/reconstruct_wy.hpp"
#include "src/tsqr/tsqr.hpp"

namespace tcevd::sbr {

namespace {

bool all_finite(ConstMatrixView<float> m) {
  for (index_t j = 0; j < m.cols(); ++j)
    for (index_t i = 0; i < m.rows(); ++i)
      if (!std::isfinite(m(i, j))) return false;
  return true;
}

/// TSQR + signed-LU Householder reconstruction (paper Sec. 5.1/5.2). The
/// panel is only overwritten on success, so a failure leaves it intact for
/// the blocked-QR retry.
Status tsqr_panel(Workspace& arena, MatrixView<float> panel, MatrixView<float> w,
                  MatrixView<float> y) {
  const index_t m = panel.rows();
  const index_t k = panel.cols();
  auto scope = arena.scope();
  auto q = scope.matrix<float>(m, k);
  auto r = scope.matrix<float>(k, k);
  TCEVD_RETURN_IF_ERROR(tsqr::tsqr_factor(arena, panel, q, r));
  std::vector<float> signs;
  TCEVD_RETURN_IF_ERROR(tsqr::reconstruct_wy(arena, ConstMatrixView<float>(q), w, y, signs));
  if (fault::should_fire(fault::Site::PanelNan))
    w(0, 0) = std::numeric_limits<float>::quiet_NaN();
  if (!all_finite(w) || !all_finite(y))
    return precision_loss_error("panel_factor_wy: non-finite W/Y from TSQR reconstruction");
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i)
      panel(i, j) = (i <= j) ? signs[static_cast<std::size_t>(i)] * r(i, j) : 0.0f;
  return ok_status();
}

/// Blocked Householder QR path (also the fallback for short panels where
/// TSQR's m >= k precondition fails, and the recovery path when TSQR
/// reconstruction degrades).
Status blocked_qr_panel(Workspace& arena, MatrixView<float> panel, MatrixView<float> w,
                        MatrixView<float> y) {
  const index_t m = panel.rows();
  const index_t k = panel.cols();
  if (!all_finite(panel))
    return invalid_input_error("panel_factor_wy: non-finite entry in input panel");
  auto scope = arena.scope();
  auto work = scope.matrix<float>(m, k);
  copy_matrix<float>(panel, work);
  std::vector<float> tau;
  lapack::geqrf(work, tau, std::min<index_t>(k, 32));
  const index_t nref = static_cast<index_t>(tau.size());
  if (nref == k) {
    lapack::build_wy<float>(work, tau, w, y);
  } else {
    // m < k: only m reflectors exist; pad W/Y with zero columns (those
    // columns of the panel are already upper trapezoidal).
    set_zero(w);
    set_zero(y);
    auto ws = w.sub(0, 0, m, nref);
    auto ys = y.sub(0, 0, m, nref);
    lapack::build_wy<float>(work, tau, ws, ys);
  }
  if (!all_finite(w) || !all_finite(y))
    return precision_loss_error("panel_factor_wy: non-finite W/Y from blocked Householder QR");
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i) panel(i, j) = (i <= j) ? work(i, j) : 0.0f;
  return ok_status();
}

Status panel_factor_impl(Workspace& arena, PanelKind kind, MatrixView<float> panel,
                         MatrixView<float> w, MatrixView<float> y) {
  const index_t m = panel.rows();
  const index_t k = panel.cols();
  TCEVD_CHECK(w.rows() == m && w.cols() == k && y.rows() == m && y.cols() == k,
              "panel_factor_wy W/Y shape mismatch");

  if (kind == PanelKind::Tsqr && m >= k) {
    Status st = tsqr_panel(arena, panel, w, y);
    if (st.ok()) return st;
    if (!is_recoverable(st)) return st;
    // Graceful degradation: the TSQR/reconstruction path lost the panel but
    // did not touch it, so the slower-but-sturdier blocked Householder QR can
    // redo the factorization from the original data.
    recovery::note("sbr.panel",
                   "TSQR reconstruction failed (" + st.to_string() +
                       "); retried panel with blocked Householder QR");
    set_zero(w);
    set_zero(y);
  }
  return blocked_qr_panel(arena, panel, w, y);
}

}  // namespace

Status panel_factor_wy(Context& ctx, PanelKind kind, MatrixView<float> panel,
                       MatrixView<float> w, MatrixView<float> y) {
  return panel_factor_impl(ctx.workspace(), kind, panel, w, y);
}

// Per-thread scratch arena, warm after the first call.
Status panel_factor_wy(PanelKind kind, MatrixView<float> panel, MatrixView<float> w,
                       MatrixView<float> y) {
  thread_local Workspace arena;
  return panel_factor_impl(arena, kind, panel, w, y);
}

}  // namespace tcevd::sbr
