#include "src/tensorcore/ec_tcgemm.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/blas/gemm_packed.hpp"
#include "src/common/aligned.hpp"
#include "src/common/fault.hpp"
#include "src/common/scratch.hpp"
#include "src/tensorcore/tc_convert.hpp"

namespace tcevd::tc {

namespace {

// Operand transforms come from tc_convert.hpp: RoundTransform is the head,
// EcTailTransform / EcHeadTailSplit carry the kEcScale residual scaling.

/// True when rounding a finite fp32 operand to the TC format overflows to
/// +-inf (fp16 saturation). NaN/Inf already present in the input is passed
/// through untouched — that is the caller's upstream problem, not a
/// precision loss of this GEMM. Scans the stored matrix directly: op(X) is a
/// permutation of the same element set, so the transpose is irrelevant —
/// which is also why the reported (si, sj) are *storage* coordinates of the
/// operand as passed, not coordinates in op(X).
bool operand_saturates(ConstMatrixView<float> x, TcPrecision prec, index_t* si,
                       index_t* sj) {
  for (index_t j = 0; j < x.cols(); ++j)
    for (index_t i = 0; i < x.rows(); ++i) {
      const float v = x(i, j);
      if (std::isfinite(v) && !std::isfinite(round_operand(v, prec))) {
        *si = i;
        *sj = j;
        return true;
      }
    }
  return false;
}

/// Thread-local fp32 accumulators for the head product (c0) and the
/// correction product (c1). Sized through reserve_scratch: same-shape
/// steady-state calls perform no heap allocation, and a thread that drops
/// from one large problem to much smaller ones releases the oversized
/// buffers instead of pinning them for its lifetime (src/common/scratch.hpp).
struct EcScratch {
  AlignedVector<float> c0, c1;
};

EcScratch& ec_scratch() {
  thread_local EcScratch s;
  return s;
}

}  // namespace

void ec_split(ConstMatrixView<float> x, MatrixView<float> head, MatrixView<float> residual,
              TcPrecision prec) {
  TCEVD_CHECK(head.rows() == x.rows() && head.cols() == x.cols() &&
                  residual.rows() == x.rows() && residual.cols() == x.cols(),
              "ec_split shape mismatch");
  // Stored columns of all three matrices are contiguous: split one column
  // per call through the dispatched EC-split kernel.
  for (index_t j = 0; j < x.cols(); ++j) {
    if (x.rows() == 0) continue;
    ec_split_buffer(&x(0, j), &head(0, j), &residual(0, j), x.rows(), kEcScale, prec);
  }
}

Status ec_tcgemm(blas::Trans transa, blas::Trans transb, float alpha, ConstMatrixView<float> a,
                 ConstMatrixView<float> b, float beta, MatrixView<float> c, TcPrecision prec) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t ka = (transa == blas::Trans::No) ? a.cols() : a.rows();
  const index_t ma = (transa == blas::Trans::No) ? a.rows() : a.cols();
  const index_t kb = (transb == blas::Trans::No) ? b.rows() : b.cols();
  const index_t nb = (transb == blas::Trans::No) ? b.cols() : b.rows();
  TCEVD_CHECK(ma == m && nb == n && ka == kb, "ec_tcgemm shape mismatch");

  // Saturation screen: report PrecisionLoss before C is written so the
  // caller can redo the full alpha/beta update in fp32. Runs before the flop
  // accounting — a screened-out call performs no TC products.
  if (fault::should_fire(fault::Site::EcTcSaturate))
    return fault_injected_error(fault::site_name(fault::Site::EcTcSaturate));
  index_t si = -1;
  index_t sj = -1;
  if (operand_saturates(a, prec, &si, &sj))
    return precision_loss_error("ec_tcgemm: operand A exceeds the fp16 range (head "
                                "saturated, first at A(" + std::to_string(si) + ", " +
                                std::to_string(sj) + "))");
  if (operand_saturates(b, prec, &si, &sj))
    return precision_loss_error("ec_tcgemm: operand B exceeds the fp16 range (head "
                                "saturated, first at B(" + std::to_string(si) + ", " +
                                std::to_string(sj) + "))");

  EcScratch& scratch = ec_scratch();
  const std::size_t need = static_cast<std::size_t>(m) * static_cast<std::size_t>(n);
  reserve_scratch(scratch.c0, need);
  reserve_scratch(scratch.c1, need);
  const index_t ldc = std::max<index_t>(m, 1);
  MatrixView<float> c0(scratch.c0.data(), m, n, ldc);
  MatrixView<float> c1(scratch.c1.data(), m, n, ldc);

  // Sweep 1 packs B's head AND tail panels in one pass over B (the split
  // runs once per source element) and computes both products that share the
  // head of A:  C0 = Ã·B̃  and  C1 = Ã·ΔB.
  blas::gemm_packed_split_b(transa, transb, a, b, c0, c1, RoundTransform{prec},
                            EcHeadTailSplit{prec, kEcScale});
  // Sweep 2 accumulates the remaining correction:  C1 += ΔA·B̃.
  // Both sweeps keep each product's accumulation order identical to its
  // standalone GEMM, so results are bitwise-equal to the old path that
  // materialized ah/da/bh/db copies first.
  blas::gemm_packed(transa, transb, 1.0f, a, b, 1.0f, c1, EcTailTransform{prec, kEcScale},
                    RoundTransform{prec});

  // C = alpha * (C0 + C1/s) + beta * C, fused in fp32 on the SIMT side.
  const float inv_s = 1.0f / kEcScale;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      const float corrected = c0(i, j) + c1(i, j) * inv_s;
      c(i, j) = alpha * corrected + ((beta == 0.0f) ? 0.0f : beta * c(i, j));
    }
  return ok_status();
}

}  // namespace tcevd::tc
