// Secular equation solver for the divide & conquer eigensolver.
//
// After the rank-one merge, eigenvalues of D + rho z z^T (D = diag(d),
// d strictly ascending, rho > 0, z fully non-deflated) are the k roots of
//
//   f(lambda) = 1 + rho * sum_i z_i^2 / (d_i - lambda) = 0,
//
// one in each open interval (d_j, d_{j+1}) plus one beyond d_{k-1}. To keep
// eigenvector formation accurate the root is returned as an *offset from the
// nearest pole* (anchor), never as an absolute value — the differences
// d_i - lambda_j are then computable without cancellation.
//
// The iteration is LAPACK dlaed4's (R.-C. Li, "Solving secular equations
// stably and efficiently", LAWN 89): rational interpolation steps that model
// the poles on either side of the anchor exactly and the rest by a fixed
// weight or by the "middle way", in double, until |f| is below dlaed4's
// rounding-error bound. A step that leaves the bracket falls back to
// geometric bisection toward the anchor pole. The initial guess comes from
// the one evaluation of f at the bracket's midpoint: a two-pole model solved
// in closed form, refined on a local model (the nearest poles exact, the
// rest as one effective pole per side) at O(1) cost.
#pragma once

#include <vector>

#include "src/common/matrix.hpp"

namespace tcevd::lapack {

struct SecularRoot {
  index_t anchor = 0;      ///< index of the pole the offset is relative to
  long double offset = 0;  ///< lambda = d[anchor] + offset
  int evals = 0;           ///< O(k) evaluations of f the solve took
};

/// Root j (0-based) of the secular equation. d must be strictly ascending,
/// z_sq the squared z entries, rho > 0. Returns anchor + offset with the
/// guarantee d[j] < lambda < d[j+1] (or the final interval for j == k-1).
SecularRoot secular_solve(const std::vector<double>& d, const std::vector<double>& z_sq,
                          double rho, index_t j);

/// lambda_j - d_i computed stably from the anchored representation.
inline long double gap_from_root(const std::vector<double>& d, const SecularRoot& r,
                                 index_t i) {
  return (static_cast<long double>(d[static_cast<std::size_t>(r.anchor)]) -
          static_cast<long double>(d[static_cast<std::size_t>(i)])) +
         r.offset;
}

}  // namespace tcevd::lapack
