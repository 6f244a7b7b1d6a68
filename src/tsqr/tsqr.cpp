#include "src/tsqr/tsqr.hpp"

#include <algorithm>
#include <cmath>

#include "src/blas/blas.hpp"
#include "src/common/context.hpp"
#include "src/common/workspace.hpp"
#include "src/lapack/qr.hpp"

namespace tcevd::tsqr {

namespace {

/// Leaf: ordinary Householder QR producing explicit Q and R. The factors,
/// tau and the reflector scratch all come from the workspace arena.
template <typename T>
void leaf_qr(Workspace& ws, ConstMatrixView<T> a, MatrixView<T> q, MatrixView<T> r) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  auto scope = ws.scope();
  auto work = scope.matrix<T>(m, n);
  copy_matrix(a, work);
  T* tau = scope.alloc<T>(static_cast<std::size_t>(n));
  T* scratch = scope.alloc<T>(static_cast<std::size_t>(std::max(m, n)));
  lapack::geqr2(work, tau, scratch);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) r(i, j) = (i <= j) ? work(i, j) : T{};
  lapack::orgqr(work, tau, n, q, scratch);
}

/// Recursive TSQR: split rows, factor halves, combine [R1; R2] and fold the
/// combining Q back into the children's Qs.
template <typename T>
void tsqr_rec(Workspace& ws, ConstMatrixView<T> a, MatrixView<T> q, MatrixView<T> r,
              const TsqrOptions& opts) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  if (m <= std::max(opts.leaf_rows, 2 * n)) {
    leaf_qr(ws, a, q, r);
    return;
  }
  const index_t mh = m / 2;

  auto scope = ws.scope();
  auto r1 = scope.matrix<T>(n, n);
  auto r2 = scope.matrix<T>(n, n);
  tsqr_rec<T>(ws, a.sub(0, 0, mh, n), q.sub(0, 0, mh, n), r1, opts);
  tsqr_rec<T>(ws, a.sub(mh, 0, m - mh, n), q.sub(mh, 0, m - mh, n), r2, opts);

  // Combine: QR of the stacked (2n x n) R factors.
  auto stacked = scope.matrix<T>(2 * n, n);
  copy_matrix<T>(r1, stacked.sub(0, 0, n, n));
  copy_matrix<T>(r2, stacked.sub(n, 0, n, n));
  auto qc = scope.matrix<T>(2 * n, n);
  leaf_qr<T>(ws, stacked, qc, r);

  // Q_top *= Qc(0:n, :), Q_bottom *= Qc(n:2n, :).
  auto tmp_top = scope.matrix<T>(mh, n);
  blas::gemm<T>(blas::Trans::No, blas::Trans::No, T{1}, ConstMatrixView<T>(q.sub(0, 0, mh, n)),
                ConstMatrixView<T>(qc.sub(0, 0, n, n)), T{}, tmp_top);
  copy_matrix<T>(ConstMatrixView<T>(tmp_top), q.sub(0, 0, mh, n));

  auto tmp_bot = scope.matrix<T>(m - mh, n);
  blas::gemm<T>(blas::Trans::No, blas::Trans::No, T{1},
                ConstMatrixView<T>(q.sub(mh, 0, m - mh, n)),
                ConstMatrixView<T>(qc.sub(n, 0, n, n)), T{}, tmp_bot);
  copy_matrix<T>(ConstMatrixView<T>(tmp_bot), q.sub(mh, 0, m - mh, n));
}

template <typename T>
Status tsqr_impl(Workspace& ws, ConstMatrixView<T> a, MatrixView<T> q, MatrixView<T> r,
                 const TsqrOptions& opts) {
  TCEVD_CHECK(a.rows() >= a.cols(), "tsqr requires a tall matrix (m >= n)");
  TCEVD_CHECK(q.rows() == a.rows() && q.cols() == a.cols(), "tsqr Q shape mismatch");
  TCEVD_CHECK(r.rows() == a.cols() && r.cols() == a.cols(), "tsqr R shape mismatch");
  if (opts.screen_input) {
    for (index_t j = 0; j < a.cols(); ++j)
      for (index_t i = 0; i < a.rows(); ++i)
        if (!std::isfinite(static_cast<double>(a(i, j))))
          return invalid_input_error("tsqr: non-finite entry in input panel");
  }
  TsqrOptions o = opts;
  o.leaf_rows = std::max(o.leaf_rows, a.cols());
  tsqr_rec<T>(ws, a, q, r, o);
  return ok_status();
}

}  // namespace

Status tsqr_factor(Context& ctx, ConstMatrixView<float> a, MatrixView<float> q,
                   MatrixView<float> r, const TsqrOptions& opts) {
  return tsqr_impl(ctx.workspace(), a, q, r, opts);
}

Status tsqr_factor(Context& ctx, ConstMatrixView<double> a, MatrixView<double> q,
                   MatrixView<double> r, const TsqrOptions& opts) {
  return tsqr_impl(ctx.workspace(), a, q, r, opts);
}

Status tsqr_factor(Workspace& ws, ConstMatrixView<float> a, MatrixView<float> q,
                   MatrixView<float> r, const TsqrOptions& opts) {
  return tsqr_impl(ws, a, q, r, opts);
}

Status tsqr_factor(Workspace& ws, ConstMatrixView<double> a, MatrixView<double> q,
                   MatrixView<double> r, const TsqrOptions& opts) {
  return tsqr_impl(ws, a, q, r, opts);
}

Status tsqr_factor(ConstMatrixView<float> a, MatrixView<float> q, MatrixView<float> r,
                   const TsqrOptions& opts) {
  Workspace ws;
  return tsqr_impl(ws, a, q, r, opts);
}

Status tsqr_factor(ConstMatrixView<double> a, MatrixView<double> q, MatrixView<double> r,
                   const TsqrOptions& opts) {
  Workspace ws;
  return tsqr_impl(ws, a, q, r, opts);
}

}  // namespace tcevd::tsqr
