// QR factorization family: unblocked (geqr2), compact-WY T factor (larft),
// blocked (geqrf), explicit-Q formation (orgqr), and the W = V*T helper that
// turns the compact representation Q = I - V T V^T into the paper's
// Q = I - W Y^T form (Y := V, W := V T).
#pragma once

#include <vector>

#include "src/common/matrix.hpp"

namespace tcevd::lapack {

/// Unblocked Householder QR. On exit the upper triangle of `a` holds R and
/// the strict lower triangle holds the Householder vectors (unit diagonal
/// implicit); `tau` receives min(m,n) scalar factors.
template <typename T>
void geqr2(MatrixView<T> a, std::vector<T>& tau);
/// Same, allocation-free: `tau` holds min(m,n) entries, `work` n.
template <typename T>
void geqr2(MatrixView<T> a, T* tau, T* work);

/// Form the k x k upper-triangular T of the forward compact-WY product
/// H(0) H(1) ... H(k-1) = I - V T V^T from the vectors in `v` (unit lower
/// trapezoidal, LAPACK storage) and `tau`.
template <typename T>
void larft(ConstMatrixView<T> v, const T* tau, MatrixView<T> t);

/// Blocked Householder QR with panel width `nb`. Same output layout as geqr2.
template <typename T>
void geqrf(MatrixView<T> a, std::vector<T>& tau, index_t nb = 32);

/// Generate the explicit m x n Q with orthonormal columns from the geqrf
/// output (first k reflectors).
template <typename T>
void orgqr(MatrixView<T> a, const std::vector<T>& tau, MatrixView<T> q);
/// Same, allocation-free: the first k reflectors, `work` of max(m, n)
/// entries. The diagonal of `a` is overwritten while a reflector is applied
/// and restored after it, so `a` is unchanged on return.
template <typename T>
void orgqr(MatrixView<T> a, const T* tau, index_t k, MatrixView<T> q, T* work);

/// Extract Y (unit lower trapezoidal copy of the reflectors in `a`) and
/// compute W = Y * T so that H(0)...H(k-1) = I - W Y^T.
template <typename T>
void build_wy(ConstMatrixView<T> a, const std::vector<T>& tau, MatrixView<T> w,
              MatrixView<T> y);

#define TCEVD_QR_EXTERN(T)                                                       \
  extern template void geqr2<T>(MatrixView<T>, std::vector<T>&);                 \
  extern template void geqr2<T>(MatrixView<T>, T*, T*);                          \
  extern template void larft<T>(ConstMatrixView<T>, const T*, MatrixView<T>);    \
  extern template void geqrf<T>(MatrixView<T>, std::vector<T>&, index_t);        \
  extern template void orgqr<T>(MatrixView<T>, const std::vector<T>&, MatrixView<T>); \
  extern template void orgqr<T>(MatrixView<T>, const T*, index_t, MatrixView<T>, T*);   \
  extern template void build_wy<T>(ConstMatrixView<T>, const std::vector<T>&,    \
                                   MatrixView<T>, MatrixView<T>);

TCEVD_QR_EXTERN(float)
TCEVD_QR_EXTERN(double)
#undef TCEVD_QR_EXTERN

}  // namespace tcevd::lapack
