#include "src/lapack/qr.hpp"

#include <algorithm>

#include "src/blas/blas.hpp"
#include "src/lapack/householder.hpp"

namespace tcevd::lapack {

template <typename T>
void geqr2(MatrixView<T> a, T* tau, T* work) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = std::min(m, n);
  for (index_t j = 0; j < k; ++j) {
    T& alpha = a(j, j);
    T* x = (j + 1 < m) ? &a(j + 1, j) : nullptr;
    tau[j] = larfg(m - j, alpha, x, 1);
    if (j + 1 < n) {
      // Apply H to the trailing columns; v lives in a(j:, j) with v(0)=1.
      const T saved = a(j, j);
      a(j, j) = T{1};
      larf_left(&a(j, j), 1, tau[j], a.sub(j, j + 1, m - j, n - j - 1), work);
      a(j, j) = saved;
    }
  }
}

template <typename T>
void geqr2(MatrixView<T> a, std::vector<T>& tau) {
  tau.assign(static_cast<std::size_t>(std::max<index_t>(std::min(a.rows(), a.cols()), 0)), T{});
  std::vector<T> work(static_cast<std::size_t>(a.cols()));
  geqr2(a, tau.data(), work.data());
}

template <typename T>
void larft(ConstMatrixView<T> v, const T* tau, MatrixView<T> t) {
  const index_t m = v.rows();
  const index_t k = v.cols();
  TCEVD_CHECK(t.rows() == k && t.cols() == k, "larft T must be k x k");
  set_zero(t);
  for (index_t i = 0; i < k; ++i) {
    const T ti = tau[i];
    t(i, i) = ti;
    if (i == 0 || ti == T{}) continue;
    // t(0:i, i) = -tau_i * T(0:i,0:i) * (V(:,0:i)^T v_i), exploiting the unit
    // lower trapezoidal structure of V (v_i is zero above row i, one at i).
    for (index_t j = 0; j < i; ++j) {
      // dot of column j of V with v_i over rows i..m-1 (+ V(i,j) * 1)
      T s = v(i, j);
      for (index_t r = i + 1; r < m; ++r) s += v(r, j) * v(r, i);
      t(j, i) = -ti * s;
    }
    // t(0:i, i) = T(0:i,0:i) * t(0:i, i)  (triangular multiply)
    blas::trmv(blas::Uplo::Upper, blas::Trans::No, blas::Diag::NonUnit, t.sub(0, 0, i, i),
               &t(0, i), 1);
  }
}

template <typename T>
void geqrf(MatrixView<T> a, std::vector<T>& tau, index_t nb) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = std::min(m, n);
  tau.assign(static_cast<std::size_t>(std::max<index_t>(k, 0)), T{});
  if (k == 0) return;

  Matrix<T> t(nb, nb);
  std::vector<T> panel_tau;

  for (index_t j = 0; j < k; j += nb) {
    const index_t jb = std::min(nb, k - j);
    auto panel = a.sub(j, j, m - j, jb);
    geqr2(panel, panel_tau);
    std::copy(panel_tau.begin(), panel_tau.end(), tau.begin() + j);

    if (j + jb < n) {
      // Block-apply H^T = I - V T^T V^T to the trailing matrix.
      auto tb = t.sub(0, 0, jb, jb);
      larft<T>(panel, panel_tau.data(), tb);
      auto c = a.sub(j, j + jb, m - j, n - j - jb);

      // Save panel diagonal, set unit diagonal for the V references.
      std::vector<T> diag(static_cast<std::size_t>(jb));
      for (index_t i = 0; i < jb; ++i) {
        diag[static_cast<std::size_t>(i)] = panel(i, i);
        panel(i, i) = T{1};
      }
      // Zero strict upper part of V logically: build an explicit V copy.
      Matrix<T> v(m - j, jb);
      for (index_t col = 0; col < jb; ++col)
        for (index_t row = 0; row < m - j; ++row)
          v(row, col) = (row < col) ? T{} : panel(row, col);
      for (index_t i = 0; i < jb; ++i) panel(i, i) = diag[static_cast<std::size_t>(i)];

      // work = V^T C (jb x nc); work = T^T work; C -= V work.
      Matrix<T> work(jb, n - j - jb);
      blas::gemm<T>(blas::Trans::Yes, blas::Trans::No, T{1}, v.view(), c, T{}, work.view());
      blas::trmm(blas::Side::Left, blas::Uplo::Upper, blas::Trans::Yes, blas::Diag::NonUnit,
                 T{1}, tb, work.view());
      blas::gemm<T>(blas::Trans::No, blas::Trans::No, T{-1}, v.view(), work.view(), T{1}, c);
    }
  }
}

template <typename T>
void orgqr(MatrixView<T> a, const T* tau, index_t k, MatrixView<T> q, T* work) {
  const index_t m = a.rows();
  const index_t n = q.cols();
  TCEVD_CHECK(q.rows() == m && n <= m, "orgqr output shape invalid");
  set_identity(q);
  // Q = H(0) H(1) ... H(k-1) * I: apply reflectors from the last to the
  // first; v lives in a(j:, j) with v(0) = 1, as in geqr2.
  for (index_t j = k - 1; j >= 0; --j) {
    const T saved = a(j, j);
    a(j, j) = T{1};
    larf_left(&a(j, j), 1, tau[j], q.sub(j, 0, m - j, n), work);
    a(j, j) = saved;
  }
}

template <typename T>
void orgqr(MatrixView<T> a, const std::vector<T>& tau, MatrixView<T> q) {
  std::vector<T> work(static_cast<std::size_t>(std::max(a.rows(), q.cols())));
  orgqr(a, tau.data(), static_cast<index_t>(tau.size()), q, work.data());
}

template <typename T>
void build_wy(ConstMatrixView<T> a, const std::vector<T>& tau, MatrixView<T> w,
              MatrixView<T> y) {
  const index_t m = a.rows();
  const index_t k = static_cast<index_t>(tau.size());
  TCEVD_CHECK(w.rows() == m && w.cols() == k && y.rows() == m && y.cols() == k,
              "build_wy output shape mismatch");
  // Y = unit lower trapezoidal part of a.
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i)
      y(i, j) = (i < j) ? T{} : (i == j ? T{1} : a(i, j));
  // W = Y * T.
  Matrix<T> t(k, k);
  larft<T>(ConstMatrixView<T>(y.data(), m, k, y.ld()), tau.data(), t.view());
  copy_matrix<T>(y, w);
  blas::trmm(blas::Side::Right, blas::Uplo::Upper, blas::Trans::No, blas::Diag::NonUnit, T{1},
             t.view(), w);
}

#define TCEVD_QR_INST(T)                                                       \
  template void geqr2<T>(MatrixView<T>, T*, T*);                               \
  template void geqr2<T>(MatrixView<T>, std::vector<T>&);                      \
  template void larft<T>(ConstMatrixView<T>, const T*, MatrixView<T>);         \
  template void geqrf<T>(MatrixView<T>, std::vector<T>&, index_t);             \
  template void orgqr<T>(MatrixView<T>, const T*, index_t, MatrixView<T>, T*);  \
  template void orgqr<T>(MatrixView<T>, const std::vector<T>&, MatrixView<T>); \
  template void build_wy<T>(ConstMatrixView<T>, const std::vector<T>&, MatrixView<T>, \
                            MatrixView<T>);

TCEVD_QR_INST(float)
TCEVD_QR_INST(double)
#undef TCEVD_QR_INST

}  // namespace tcevd::lapack
