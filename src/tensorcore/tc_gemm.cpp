#include "src/tensorcore/tc_gemm.hpp"

#include "src/blas/gemm_packed.hpp"
#include "src/tensorcore/tc_convert.hpp"

namespace tcevd::tc {

void tc_gemm(blas::Trans transa, blas::Trans transb, float alpha, ConstMatrixView<float> a,
             ConstMatrixView<float> b, float beta, MatrixView<float> c, TcPrecision prec) {
  // Fused path: rounding happens inside pack_a_block/pack_b_block while the
  // packed pipeline reads through op(A)/op(B); fp32 accumulation in the
  // micro-kernel. (The tile-level emulator in mma_tile.cpp is kept for
  // semantics tests; this path is the fast one.)
  blas::gemm_packed(transa, transb, alpha, a, b, beta, c, RoundTransform{prec},
                    RoundTransform{prec});
}

void round_matrix(MatrixView<float> a, TcPrecision prec) {
  // Each stored column is contiguous; round it in place through the
  // dispatched convert kernel.
  for (index_t j = 0; j < a.cols(); ++j) {
    float* col = a.rows() > 0 ? &a(0, j) : nullptr;
    round_buffer(col, col, a.rows(), prec);
  }
}

}  // namespace tcevd::tc
