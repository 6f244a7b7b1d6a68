#include "src/lapack/stein.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/blas/blas.hpp"
#include "src/common/fault.hpp"
#include "src/common/rng.hpp"

namespace tcevd::lapack {

namespace {

/// Tridiagonal LU with partial pivoting (gttrf-style). dl/dd/du are the
/// sub/main/super diagonals of (T - lambda I); du2 receives the second
/// superdiagonal fill; ipiv the pivot flags.
template <typename T>
void tri_factor(std::vector<T>& dl, std::vector<T>& dd, std::vector<T>& du,
                std::vector<T>& du2, std::vector<char>& swapped) {
  const index_t n = static_cast<index_t>(dd.size());
  du2.assign(static_cast<std::size_t>(std::max<index_t>(n - 2, 0)), T{});
  swapped.assign(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)), 0);
  const T tiny = std::numeric_limits<T>::min() * T{4};

  for (index_t i = 0; i + 1 < n; ++i) {
    if (std::abs(dd[static_cast<std::size_t>(i)]) >= std::abs(dl[static_cast<std::size_t>(i)])) {
      // No swap.
      T piv = dd[static_cast<std::size_t>(i)];
      if (std::abs(piv) < tiny) piv = std::copysign(tiny, piv == T{} ? T{1} : piv);
      const T fact = dl[static_cast<std::size_t>(i)] / piv;
      dl[static_cast<std::size_t>(i)] = fact;  // store multiplier
      dd[static_cast<std::size_t>(i + 1)] -= fact * du[static_cast<std::size_t>(i)];
      if (i + 2 < n) du2[static_cast<std::size_t>(i)] = T{};
    } else {
      // Swap rows i and i+1.
      swapped[static_cast<std::size_t>(i)] = 1;
      std::swap(dd[static_cast<std::size_t>(i)], dl[static_cast<std::size_t>(i)]);
      const T tmp = du[static_cast<std::size_t>(i)];
      du[static_cast<std::size_t>(i)] = dd[static_cast<std::size_t>(i + 1)];
      dd[static_cast<std::size_t>(i + 1)] = tmp - (dl[static_cast<std::size_t>(i)] /
                                                   dd[static_cast<std::size_t>(i)]) *
                                                      dd[static_cast<std::size_t>(i + 1)];
      if (i + 2 < n) {
        du2[static_cast<std::size_t>(i)] = du[static_cast<std::size_t>(i + 1)];
        du[static_cast<std::size_t>(i + 1)] =
            -(dl[static_cast<std::size_t>(i)] / dd[static_cast<std::size_t>(i)]) *
            du[static_cast<std::size_t>(i + 1)];
      }
      dl[static_cast<std::size_t>(i)] /= dd[static_cast<std::size_t>(i)];
    }
  }
  if (n > 0 && std::abs(dd[static_cast<std::size_t>(n - 1)]) < tiny)
    dd[static_cast<std::size_t>(n - 1)] =
        std::copysign(tiny, dd[static_cast<std::size_t>(n - 1)] == T{}
                                ? T{1}
                                : dd[static_cast<std::size_t>(n - 1)]);
}

/// Solve with the tri_factor output, in place.
template <typename T>
void tri_solve(const std::vector<T>& dl, const std::vector<T>& dd, const std::vector<T>& du,
               const std::vector<T>& du2, const std::vector<char>& swapped, T* x) {
  const index_t n = static_cast<index_t>(dd.size());
  // Forward: apply L^{-1} (with the recorded swaps).
  for (index_t i = 0; i + 1 < n; ++i) {
    if (swapped[static_cast<std::size_t>(i)]) std::swap(x[i], x[i + 1]);
    x[i + 1] -= dl[static_cast<std::size_t>(i)] * x[i];
  }
  // Backward: U x = y with two superdiagonals.
  for (index_t i = n - 1; i >= 0; --i) {
    T s = x[i];
    if (i + 1 < n) s -= du[static_cast<std::size_t>(i)] * x[i + 1];
    if (i + 2 < n) s -= du2[static_cast<std::size_t>(i)] * x[i + 2];
    x[i] = s / dd[static_cast<std::size_t>(i)];
  }
}

}  // namespace

template <typename T>
Status stein(const std::vector<T>& d, const std::vector<T>& e,
             const std::vector<T>& eigenvalues, MatrixView<T> z) {
  const index_t n = static_cast<index_t>(d.size());
  const index_t nev = static_cast<index_t>(eigenvalues.size());
  TCEVD_CHECK(z.rows() == n && z.cols() == nev, "stein z shape mismatch");
  if (n == 0 || nev == 0) return ok_status();
  if (fault::should_fire(fault::Site::SteinStagnate))
    return fault_injected_error(fault::site_name(fault::Site::SteinStagnate));

  // Matrix scale for perturbation/cluster thresholds.
  T anorm{};
  for (index_t i = 0; i < n; ++i) {
    T row = std::abs(d[static_cast<std::size_t>(i)]);
    if (i > 0) row += std::abs(e[static_cast<std::size_t>(i - 1)]);
    if (i + 1 < n) row += std::abs(e[static_cast<std::size_t>(i)]);
    anorm = std::max(anorm, row);
  }
  const T eps = std::numeric_limits<T>::epsilon();
  // LAPACK stein's ORTOL: eigenvalues within 1e-3 * ||T|| of each other get
  // mutually reorthogonalized vectors (inverse iteration alone cannot
  // separate near-degenerate directions).
  const T cluster_gap = std::max(T{1e-3} * anorm, std::numeric_limits<T>::min());

  Rng rng(0x57e17ull + static_cast<std::uint64_t>(n));
  index_t first_failed = -1;
  index_t cluster_start = 0;
  T prev_shift{};
  std::vector<T> coef(static_cast<std::size_t>(nev));  // Gram-Schmidt projections

  for (index_t j = 0; j < nev; ++j) {
    T lambda = eigenvalues[static_cast<std::size_t>(j)];
    if (j > 0) {
      if (lambda - eigenvalues[static_cast<std::size_t>(j - 1)] > cluster_gap) cluster_start = j;
      // Keep the shifts of (near-)repeated eigenvalues apart, as LAPACK
      // sstein does: step from the previous *perturbed* shift, so a run of
      // duplicates fans out instead of collapsing onto one shift.
      const T pertol =
          std::max(T{10} * eps * std::abs(lambda), std::numeric_limits<T>::min());
      if (lambda - prev_shift < pertol) lambda = prev_shift + pertol;
    }
    prev_shift = lambda;

    // Factor (T - lambda I).
    std::vector<T> dl(e.begin(), e.end());
    std::vector<T> du(e.begin(), e.end());
    std::vector<T> dd(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i)
      dd[static_cast<std::size_t>(i)] = d[static_cast<std::size_t>(i)] - lambda;
    std::vector<T> du2;
    std::vector<char> swapped;
    tri_factor(dl, dd, du, du2, swapped);

    // Random start, a few inverse-iteration sweeps. Convergence signal: the
    // pre-normalization growth ||solve(x)|| ~ 1/dist(lambda, spectrum),
    // which for a correctly computed eigenvalue is ~1/(n eps ||T||).
    std::vector<T> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = static_cast<T>(rng.normal());
    {
      const T n0 = blas::nrm2(n, x.data(), 1);
      blas::scal(n, T{1} / n0, x.data(), 1);
    }
    bool converged = false;
    const T growth_ok =
        T{0.01} / (static_cast<T>(n) * eps * std::max(anorm, std::numeric_limits<T>::min()));
    for (int iter = 0; iter < 8; ++iter) {
      tri_solve(dl, dd, du, du2, swapped, x.data());
      // Reorthogonalize against the current cluster. The solve amplifies the
      // cluster directions by up to 1/eps, so one Gram-Schmidt pass leaves
      // O(1) overlap behind; a second pass restores orthogonality. Classical
      // Gram-Schmidt run twice is as stable as the modified variant, and its
      // projections are independent, so each pass is two gemv calls.
      if (j > cluster_start) {
        const ConstMatrixView<T> zc(z.sub(0, cluster_start, n, j - cluster_start));
        for (int pass = 0; pass < 2; ++pass) {
          blas::gemv(blas::Trans::Yes, T{1}, zc, x.data(), 1, T{0}, coef.data(), 1);
          blas::gemv(blas::Trans::No, T{-1}, zc, coef.data(), 1, T{1}, x.data(), 1);
        }
      }
      const T norm = blas::nrm2(n, x.data(), 1);
      if (norm == T{}) {  // deflated away: restart from fresh randomness
        for (auto& v : x) v = static_cast<T>(rng.normal());
        continue;
      }
      blas::scal(n, T{1} / norm, x.data(), 1);
      if (norm >= growth_ok && iter >= 1) {
        converged = true;
        break;
      }
    }
    if (!converged && first_failed < 0) first_failed = j;
    for (index_t i = 0; i < n; ++i) z(i, j) = x[static_cast<std::size_t>(i)];
  }
  if (first_failed >= 0)
    return no_convergence_error("stein: inverse iteration failed to converge for a vector",
                                first_failed);
  return ok_status();
}

template Status stein<float>(const std::vector<float>&, const std::vector<float>&,
                             const std::vector<float>&, MatrixView<float>);
template Status stein<double>(const std::vector<double>&, const std::vector<double>&,
                              const std::vector<double>&, MatrixView<double>);

}  // namespace tcevd::lapack
