// From-scratch BLAS subset (no external BLAS in this environment).
//
// Conventions follow reference BLAS: column-major storage, op(A) selected by
// a Trans flag, triangular routines parameterized by Uplo/Diag/Side. Level-1
// routines take raw pointers with strides; level-2/3 take MatrixViews.
// Everything is templated on the element type and explicitly instantiated
// for float and double.
#pragma once

#include "src/common/matrix.hpp"

namespace tcevd::blas {

enum class Trans { No, Yes };
enum class Uplo { Lower, Upper };
enum class Side { Left, Right };
enum class Diag { NonUnit, Unit };

// ---------------------------------------------------------------------------
// Level 1
// ---------------------------------------------------------------------------

template <typename T>
T dot(index_t n, const T* x, index_t incx, const T* y, index_t incy);

template <typename T>
T nrm2(index_t n, const T* x, index_t incx);

template <typename T>
void axpy(index_t n, T alpha, const T* x, index_t incx, T* y, index_t incy);

template <typename T>
void scal(index_t n, T alpha, T* x, index_t incx);

template <typename T>
void copy(index_t n, const T* x, index_t incx, T* y, index_t incy);

template <typename T>
void swap(index_t n, T* x, index_t incx, T* y, index_t incy);

/// Index of the max-|.| element (0-based); -1 for empty input.
template <typename T>
index_t iamax(index_t n, const T* x, index_t incx);

// ---------------------------------------------------------------------------
// Level 2
// ---------------------------------------------------------------------------

/// y = alpha * op(A) * x + beta * y.
template <typename T>
void gemv(Trans trans, T alpha, ConstMatrixView<T> a, const T* x, index_t incx, T beta, T* y,
          index_t incy);

/// A += alpha * x * y^T.
template <typename T>
void ger(T alpha, const T* x, index_t incx, const T* y, index_t incy, MatrixView<T> a);

/// y = alpha * A * x + beta * y for symmetric A stored in the `uplo` triangle.
template <typename T>
void symv(Uplo uplo, T alpha, ConstMatrixView<T> a, const T* x, index_t incx, T beta, T* y,
          index_t incy);

/// A += alpha*x*y^T + alpha*y*x^T on the `uplo` triangle of symmetric A.
template <typename T>
void syr2(Uplo uplo, T alpha, const T* x, index_t incx, const T* y, index_t incy,
          MatrixView<T> a);

/// x = op(A) * x for triangular A.
template <typename T>
void trmv(Uplo uplo, Trans trans, Diag diag, ConstMatrixView<T> a, T* x, index_t incx);

/// Solve op(A) * x = b in place (x enters as b) for triangular A.
template <typename T>
void trsv(Uplo uplo, Trans trans, Diag diag, ConstMatrixView<T> a, T* x, index_t incx);

// ---------------------------------------------------------------------------
// Level 3
// ---------------------------------------------------------------------------

/// C = alpha * op(A) * op(B) + beta * C.
template <typename T>
void gemm(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b,
          T beta, MatrixView<T> c);

/// C = alpha * A * B + beta * C (side==Left) or alpha * B * A + beta * C
/// (side==Right) with A symmetric, stored in the `uplo` triangle. This is
/// how a CPU/MAGMA SBR forms A22 * W at half the memory traffic of a
/// general GEMM (the paper notes Tensor Cores cannot exploit this).
template <typename T>
void symm(Side side, Uplo uplo, T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
          MatrixView<T> c);

/// C = alpha * A A^T + beta * C (trans==No) or alpha * A^T A + beta * C,
/// touching only the `uplo` triangle of C.
template <typename T>
void syrk(Uplo uplo, Trans trans, T alpha, ConstMatrixView<T> a, T beta, MatrixView<T> c);

/// C = alpha*(A B^T + B A^T) + beta*C (trans==No), `uplo` triangle only.
/// This is the rank-2k update at the heart of ZY-based SBR; the paper notes
/// Tensor Cores have no native syr2k, which is half the motivation for WY.
template <typename T>
void syr2k(Uplo uplo, Trans trans, T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
           MatrixView<T> c);

/// B = alpha * op(A) * B (side==Left) or alpha * B * op(A) (side==Right),
/// A triangular.
template <typename T>
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstMatrixView<T> a,
          MatrixView<T> b);

/// Solve op(A) X = alpha B (Left) or X op(A) = alpha B (Right) in place.
template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstMatrixView<T> a,
          MatrixView<T> b);

// ---------------------------------------------------------------------------
// Forwarding overloads: template deduction cannot see through the implicit
// MatrixView -> ConstMatrixView conversion, so accept mutable views directly.
// ---------------------------------------------------------------------------

template <typename T>
void gemv(Trans trans, T alpha, MatrixView<T> a, const T* x, index_t incx, T beta, T* y,
          index_t incy) {
  gemv(trans, alpha, ConstMatrixView<T>(a), x, incx, beta, y, incy);
}
template <typename T>
void symv(Uplo uplo, T alpha, MatrixView<T> a, const T* x, index_t incx, T beta, T* y,
          index_t incy) {
  symv(uplo, alpha, ConstMatrixView<T>(a), x, incx, beta, y, incy);
}
template <typename T>
void trmv(Uplo uplo, Trans trans, Diag diag, MatrixView<T> a, T* x, index_t incx) {
  trmv(uplo, trans, diag, ConstMatrixView<T>(a), x, incx);
}
template <typename T>
void trsv(Uplo uplo, Trans trans, Diag diag, MatrixView<T> a, T* x, index_t incx) {
  trsv(uplo, trans, diag, ConstMatrixView<T>(a), x, incx);
}
template <typename T>
void gemm(Trans ta, Trans tb, T alpha, MatrixView<T> a, ConstMatrixView<T> b, T beta,
          MatrixView<T> c) {
  gemm(ta, tb, alpha, ConstMatrixView<T>(a), b, beta, c);
}
template <typename T>
void gemm(Trans ta, Trans tb, T alpha, ConstMatrixView<T> a, MatrixView<T> b, T beta,
          MatrixView<T> c) {
  gemm(ta, tb, alpha, a, ConstMatrixView<T>(b), beta, c);
}
template <typename T>
void gemm(Trans ta, Trans tb, T alpha, MatrixView<T> a, MatrixView<T> b, T beta,
          MatrixView<T> c) {
  gemm(ta, tb, alpha, ConstMatrixView<T>(a), ConstMatrixView<T>(b), beta, c);
}
template <typename T>
void syrk(Uplo uplo, Trans trans, T alpha, MatrixView<T> a, T beta, MatrixView<T> c) {
  syrk(uplo, trans, alpha, ConstMatrixView<T>(a), beta, c);
}
template <typename T>
void symm(Side side, Uplo uplo, T alpha, MatrixView<T> a, ConstMatrixView<T> b, T beta,
          MatrixView<T> c) {
  symm(side, uplo, alpha, ConstMatrixView<T>(a), b, beta, c);
}
template <typename T>
void symm(Side side, Uplo uplo, T alpha, ConstMatrixView<T> a, MatrixView<T> b, T beta,
          MatrixView<T> c) {
  symm(side, uplo, alpha, a, ConstMatrixView<T>(b), beta, c);
}
template <typename T>
void symm(Side side, Uplo uplo, T alpha, MatrixView<T> a, MatrixView<T> b, T beta,
          MatrixView<T> c) {
  symm(side, uplo, alpha, ConstMatrixView<T>(a), ConstMatrixView<T>(b), beta, c);
}
template <typename T>
void syr2k(Uplo uplo, Trans trans, T alpha, MatrixView<T> a, ConstMatrixView<T> b, T beta,
           MatrixView<T> c) {
  syr2k(uplo, trans, alpha, ConstMatrixView<T>(a), b, beta, c);
}
template <typename T>
void syr2k(Uplo uplo, Trans trans, T alpha, ConstMatrixView<T> a, MatrixView<T> b, T beta,
           MatrixView<T> c) {
  syr2k(uplo, trans, alpha, a, ConstMatrixView<T>(b), beta, c);
}
template <typename T>
void syr2k(Uplo uplo, Trans trans, T alpha, MatrixView<T> a, MatrixView<T> b, T beta,
           MatrixView<T> c) {
  syr2k(uplo, trans, alpha, ConstMatrixView<T>(a), ConstMatrixView<T>(b), beta, c);
}
template <typename T>
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, MatrixView<T> a,
          MatrixView<T> b) {
  trmm(side, uplo, trans, diag, alpha, ConstMatrixView<T>(a), b);
}
template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, MatrixView<T> a,
          MatrixView<T> b) {
  trsm(side, uplo, trans, diag, alpha, ConstMatrixView<T>(a), b);
}

#define TCEVD_BLAS_EXTERN(T)                                                                   \
  extern template T dot<T>(index_t, const T*, index_t, const T*, index_t);                     \
  extern template T nrm2<T>(index_t, const T*, index_t);                                       \
  extern template void axpy<T>(index_t, T, const T*, index_t, T*, index_t);                    \
  extern template void scal<T>(index_t, T, T*, index_t);                                       \
  extern template void copy<T>(index_t, const T*, index_t, T*, index_t);                       \
  extern template void swap<T>(index_t, T*, index_t, T*, index_t);                             \
  extern template index_t iamax<T>(index_t, const T*, index_t);                                \
  extern template void gemv<T>(Trans, T, ConstMatrixView<T>, const T*, index_t, T, T*,         \
                               index_t);                                                       \
  extern template void ger<T>(T, const T*, index_t, const T*, index_t, MatrixView<T>);         \
  extern template void symv<T>(Uplo, T, ConstMatrixView<T>, const T*, index_t, T, T*,          \
                               index_t);                                                       \
  extern template void syr2<T>(Uplo, T, const T*, index_t, const T*, index_t, MatrixView<T>);  \
  extern template void trmv<T>(Uplo, Trans, Diag, ConstMatrixView<T>, T*, index_t);            \
  extern template void trsv<T>(Uplo, Trans, Diag, ConstMatrixView<T>, T*, index_t);            \
  extern template void gemm<T>(Trans, Trans, T, ConstMatrixView<T>, ConstMatrixView<T>, T,     \
                               MatrixView<T>);                                                 \
  extern template void symm<T>(Side, Uplo, T, ConstMatrixView<T>, ConstMatrixView<T>, T,       \
                               MatrixView<T>);                                                 \
  extern template void syrk<T>(Uplo, Trans, T, ConstMatrixView<T>, T, MatrixView<T>);          \
  extern template void syr2k<T>(Uplo, Trans, T, ConstMatrixView<T>, ConstMatrixView<T>, T,     \
                                MatrixView<T>);                                                \
  extern template void trmm<T>(Side, Uplo, Trans, Diag, T, ConstMatrixView<T>, MatrixView<T>); \
  extern template void trsm<T>(Side, Uplo, Trans, Diag, T, ConstMatrixView<T>, MatrixView<T>);

TCEVD_BLAS_EXTERN(float)
TCEVD_BLAS_EXTERN(double)
#undef TCEVD_BLAS_EXTERN

}  // namespace tcevd::blas
