// Inverse iteration for selected eigenvectors of a symmetric tridiagonal
// matrix (LAPACK stein analogue).
//
// Given eigenvalues (e.g. from Sturm bisection), each eigenvector is found
// by a few iterations of (T - lambda I) x_{k+1} = x_k with a pivoted
// tridiagonal solve, starting from a deterministic pseudo-random vector.
// Vectors belonging to clustered eigenvalues are Gram-Schmidt
// reorthogonalized (twice) against their cluster, and shifts of repeated
// eigenvalues are kept apart, as in LAPACK.
#pragma once

#include <vector>

#include "src/common/matrix.hpp"
#include "src/common/status.hpp"

namespace tcevd::lapack {

/// Compute eigenvectors for the given eigenvalues of tridiagonal (d, e).
/// `z` must be n x nev (nev = eigenvalues.size()); eigenvalues must be in
/// ascending order. NoConvergence (detail = first failed column) if any
/// vector fails to converge; the converged columns of z are still valid.
template <typename T>
Status stein(const std::vector<T>& d, const std::vector<T>& e,
             const std::vector<T>& eigenvalues, MatrixView<T> z);

extern template Status stein<float>(const std::vector<float>&, const std::vector<float>&,
                                    const std::vector<float>&, MatrixView<float>);
extern template Status stein<double>(const std::vector<double>&, const std::vector<double>&,
                                     const std::vector<double>&, MatrixView<double>);

}  // namespace tcevd::lapack
