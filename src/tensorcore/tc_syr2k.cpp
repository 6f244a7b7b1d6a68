#include "src/tensorcore/tc_syr2k.hpp"

#include <algorithm>
#include <vector>

#include "src/blas/gemm_packed.hpp"
#include "src/common/aligned.hpp"
#include "src/common/scratch.hpp"
#include "src/tensorcore/tc_convert.hpp"  // RoundTransform (fragment-load rounding)

namespace tcevd::tc {

namespace {

/// Column-panel width of the packed triangular update. Each panel computes a
/// dense rows x kPanelCols block through the paired packed kernel, then
/// merges only the stored triangle, so the opposite triangle of C is never
/// touched.
constexpr index_t kPanelCols = 128;

/// Thread-local panel accumulator, sized by reserve_scratch: no allocation
/// in same-shape steady state, released when far oversized for the current
/// problem (src/common/scratch.hpp).
AlignedVector<float>& syr2k_scratch() {
  thread_local AlignedVector<float> p;
  return p;
}

}  // namespace

void tc_syr2k(blas::Uplo uplo, float alpha, ConstMatrixView<float> a, ConstMatrixView<float> b,
              float beta, MatrixView<float> c, TcPrecision prec) {
  const index_t n = c.rows();
  const index_t k = a.cols();
  TCEVD_CHECK(c.cols() == n, "tc_syr2k requires square C");
  TCEVD_CHECK(a.rows() == n && b.rows() == n && b.cols() == k, "tc_syr2k shape mismatch");
  if (n == 0) return;

  // Panelled packed path: for each block J of kPanelCols columns, compute
  //   P = Ar(rows, :) · Br(J, :)^T + Br(rows, :) · Ar(J, :)^T
  // through gemm_packed_nt_pair (rounding fused into packing, both products
  // carried per k-step by the paired micro-kernel), restricted to the rows
  // that intersect the stored triangle, then merge P into that triangle.
  //
  // Bitwise upper/lower symmetry: element (i,j) accumulates per k-step
  // ar(i,l)·br(j,l) into acc1 and br(i,l)·ar(j,l) into acc2; element (j,i)
  // accumulates the same products with acc1/acc2 swapped. fp multiply and
  // add are commutative bitwise, so P(i,j) in Lower mode equals P(j,i) in
  // Upper mode exactly, matching the old dot-product kernel's guarantee.
  const bool lower = uplo == blas::Uplo::Lower;
  AlignedVector<float>& pbuf = syr2k_scratch();
  const std::size_t pneed = static_cast<std::size_t>(n) * kPanelCols;
  reserve_scratch(pbuf, pneed);

  for (index_t j0 = 0; j0 < n; j0 += kPanelCols) {
    const index_t nb = std::min(kPanelCols, n - j0);
    const index_t r0 = lower ? j0 : 0;
    const index_t r1 = lower ? n : j0 + nb;
    const index_t nr = r1 - r0;
    std::fill(pbuf.begin(), pbuf.begin() + static_cast<std::ptrdiff_t>(nr * nb), 0.0f);
    MatrixView<float> p(pbuf.data(), nr, nb, std::max<index_t>(nr, 1));
    blas::gemm_packed_nt_pair(1.0f, a.sub(r0, 0, nr, k), b.sub(j0, 0, nb, k),
                              b.sub(r0, 0, nr, k), a.sub(j0, 0, nb, k), p,
                              RoundTransform{prec}, RoundTransform{prec});
    for (index_t jj = 0; jj < nb; ++jj) {
      const index_t j = j0 + jj;
      const index_t i0 = lower ? j : 0;
      const index_t i1 = lower ? n : j + 1;
      for (index_t i = i0; i < i1; ++i) {
        const float acc = (beta == 0.0f) ? 0.0f : beta * c(i, j);
        c(i, j) = acc + alpha * p(i - r0, jj);
      }
    }
  }
}

Syr2kTileCount tc_syr2k_tile_counts(index_t n, index_t k) {
  const index_t nt = (n + kTile - 1) / kTile;
  const index_t kt = (k + kTile - 1) / kTile;
  Syr2kTileCount out;
  // syr2k touches the lower-triangle tiles (incl. diagonal) for both
  // products; two full GEMMs touch every tile twice.
  out.syr2k = nt * (nt + 1) / 2 * kt * 2;
  out.two_gemm = nt * nt * kt * 2;
  return out;
}

}  // namespace tcevd::tc
