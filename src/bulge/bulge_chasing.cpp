#include "src/bulge/bulge_chasing.hpp"

#include <algorithm>
#include <optional>

#include "src/bulge/bulge_kernels.hpp"
#include "src/bulge/q_update.hpp"
#include "src/common/context.hpp"
#include "src/common/workspace.hpp"

namespace tcevd::bulge {

namespace {

template <typename T>
BulgeResult<T> chase_serial(ConstMatrixView<T> a, index_t bw, MatrixView<T>* q, Workspace& ws,
                            Telemetry* telemetry) {
  const index_t n = a.rows();
  TCEVD_CHECK(a.cols() == n, "bulge_chase requires a square matrix");
  TCEVD_CHECK(bw >= 1, "bulge_chase bandwidth must be >= 1");
  if (q) TCEVD_CHECK(q->cols() == n, "bulge_chase Q must have n columns");

  Workspace::Scope scope(ws);
  const detail::BandView<T> band = detail::load_band(a, bw, ws);
  std::optional<QUpdate<T>> qu;
  if (q != nullptr) qu.emplace(*q, ws, telemetry, nullptr, 1);
  T* log = qu ? qu->log() : nullptr;

  // Peel diagonals d = bw, bw-1, ..., 2 (distance-1 entries remain). Sweep s
  // zeroes column s of the d-th diagonal and chases the resulting bulge off
  // the matrix; the (d, s, k) indexing is shared with the wavefront driver
  // (bulge_wavefront.cpp), which runs the same chase_elim calls in a
  // dependency-respecting order. Q follows once per diagonal, from the log.
  for (index_t d = std::min(bw, n - 1); d >= 2; --d) {
    T* sweep_log = log;
    for (index_t s = 0; s + d < n; ++s) {
      const index_t len = detail::sweep_length(n, d, s);
      for (index_t k = 0; k < len; ++k) {
        detail::chase_elim(band, d, s, k, sweep_log);
      }
      if (sweep_log != nullptr) sweep_log += 2 * len;
    }
    if (qu) qu->apply(d);
  }
  if (qu) qu->finish();

  BulgeResult<T> out;
  detail::extract_tridiag(band, out.d, out.e);
  return out;
}

}  // namespace

template <typename T>
BulgeResult<T> bulge_chase(ConstMatrixView<T> a, index_t bw, MatrixView<T>* q) {
  Workspace ws;  // holds the compact band and the rotation log
  return chase_serial(a, bw, q, ws, nullptr);
}

template BulgeResult<float> bulge_chase<float>(ConstMatrixView<float>, index_t,
                                               MatrixView<float>*);
template BulgeResult<double> bulge_chase<double>(ConstMatrixView<double>, index_t,
                                                 MatrixView<double>*);

BulgeResult<float> bulge_chase(Context& ctx, ConstMatrixView<float> a, index_t bw,
                               MatrixView<float>* q) {
  StageTimer stage(ctx.telemetry(), "bulge.chase");
  return chase_serial(a, bw, q, ctx.workspace(), &ctx.telemetry());
}

BulgeResult<double> bulge_chase(Context& ctx, ConstMatrixView<double> a, index_t bw,
                                MatrixView<double>* q) {
  StageTimer stage(ctx.telemetry(), "bulge.chase");
  return chase_serial(a, bw, q, ctx.workspace(), &ctx.telemetry());
}

}  // namespace tcevd::bulge
