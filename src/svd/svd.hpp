// Singular value decomposition on top of the symmetric eigensolver — the
// SVD / low-rank-approximation application family the paper's abstract and
// introduction motivate for Tensor-Core numerics.
//
// Two routes:
//   * svd_via_evd — Gram-matrix method: eigendecompose A^T A with the
//     two-stage (Tensor-Core) EVD, sigma = sqrt(lambda), V = eigenvectors,
//     U = A V Sigma^{-1} (re-orthonormalized for tiny sigma). Fast and
//     engine-accelerated; conditioning is kappa(A)^2, fine for the
//     data-driven workloads the paper targets.
//   * jacobi_svd — one-sided Jacobi in double: slow, near-machine-accurate,
//     used as ground truth in tests and available for small problems.
#pragma once

#include <vector>

#include "src/common/matrix.hpp"
#include "src/evd/evd.hpp"

namespace tcevd::svd {

struct SvdResult {
  std::vector<float> sigma;  ///< descending singular values, r = min(m, n)
  Matrix<float> u;           ///< m x r (empty unless vectors requested)
  Matrix<float> v;           ///< n x r (empty unless vectors requested)
  bool converged = false;
};

struct SvdOptions {
  evd::EvdOptions evd;        ///< settings for the inner symmetric solve
  bool vectors = true;
  float sigma_floor = 0.0f;   ///< treat sigma below this as rank-deficient;
                              ///< <= 0 picks sqrt(n * eps) * sigma_max — the
                              ///< noise level of the Gram route, where zero
                              ///< eigenvalues surface as ~eps * sigma_max^2
};

/// SVD of a (m >= n required; transpose the input otherwise). All heavy
/// matrix products run through the context's engine; the Gram matrix comes
/// from its workspace arena.
SvdResult svd_via_evd(ConstMatrixView<float> a, Context& ctx, const SvdOptions& opt = {});

/// Reference one-sided Jacobi SVD in double precision. Returns descending
/// singular values; u/v always computed. Intended for n up to a few hundred.
struct JacobiSvdResult {
  std::vector<double> sigma;
  Matrix<double> u;  // m x n
  Matrix<double> v;  // n x n
  int sweeps = 0;
};
JacobiSvdResult jacobi_svd(ConstMatrixView<double> a, int max_sweeps = 30);

/// Classic two-stage dense SVD: Householder bidiagonalization (gebrd) +
/// implicit-shift bidiagonal QR (bdsqr). The full-accuracy production route
/// (conditioning kappa(A), unlike the Gram method's kappa^2); the dense
/// counterpart of the symmetric two-stage EVD pipeline.
template <typename T>
struct DenseSvdResult {
  std::vector<T> sigma;  ///< descending
  Matrix<T> u;           ///< m x n
  Matrix<T> v;           ///< n x n
  bool converged = false;
};

template <typename T>
DenseSvdResult<T> svd_golub_kahan(ConstMatrixView<T> a, bool vectors = true);

extern template DenseSvdResult<float> svd_golub_kahan<float>(ConstMatrixView<float>, bool);
extern template DenseSvdResult<double> svd_golub_kahan<double>(ConstMatrixView<double>, bool);

}  // namespace tcevd::svd
