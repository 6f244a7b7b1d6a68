#include "src/svd/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/blas/blas.hpp"
#include "src/common/context.hpp"
#include "src/common/rng.hpp"
#include "src/lapack/bidiag.hpp"

namespace tcevd::svd {

using blas::Trans;

SvdResult svd_via_evd(ConstMatrixView<float> a, Context& ctx, const SvdOptions& opt) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  TCEVD_CHECK(m >= n, "svd_via_evd requires m >= n (transpose the input)");

  StageTimer stage(ctx.telemetry(), "svd.via_evd");
  SvdResult out;

  // Gram matrix G = A^T A under the engine's numerics.
  auto scope = ctx.workspace().scope();
  auto g = scope.matrix<float>(n, n);
  ctx.gemm(Trans::Yes, Trans::No, 1.0f, a, a, 0.0f, g);
  make_symmetric(g);

  // Symmetric eigensolve (ascending eigenvalues).
  evd::EvdOptions eopt = opt.evd;
  eopt.vectors = opt.vectors;
  eopt.bandwidth = std::min<index_t>(eopt.bandwidth, std::max<index_t>(n - 1, 1));
  StatusOr<evd::EvdResult> eres_or = evd::solve(ConstMatrixView<float>(g), ctx, eopt);
  out.converged = eres_or.ok();
  if (!out.converged) return out;
  const evd::EvdResult& eres = *eres_or;

  // sigma_i = sqrt(max(lambda, 0)), reported descending.
  out.sigma.resize(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    const float lam = eres.eigenvalues[static_cast<std::size_t>(n - 1 - i)];
    out.sigma[static_cast<std::size_t>(i)] = lam > 0.0f ? std::sqrt(lam) : 0.0f;
  }
  if (!opt.vectors) return out;

  // V: eigenvector columns reversed to descending-sigma order.
  out.v = Matrix<float>(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) out.v(i, j) = eres.vectors(i, n - 1 - j);

  // U = A V Sigma^{-1}; columns with sigma below the floor are completed by
  // re-orthonormalization (QR of the assembled U).
  float floor = opt.sigma_floor;
  if (floor <= 0.0f)
    floor = std::sqrt(static_cast<float>(n) * std::numeric_limits<float>::epsilon()) *
            (out.sigma.empty() ? 0.0f : out.sigma.front());

  out.u = Matrix<float>(m, n);
  ctx.gemm(Trans::No, Trans::No, 1.0f, a, ConstMatrixView<float>(out.v.view()), 0.0f,
           out.u.view());
  std::vector<index_t> deficient;
  for (index_t j = 0; j < n; ++j) {
    const float s = out.sigma[static_cast<std::size_t>(j)];
    if (s > floor) {
      blas::scal(m, 1.0f / s, &out.u(0, j), 1);
    } else {
      deficient.push_back(j);
    }
  }
  // Complete rank-deficient columns with vectors orthogonal to everything
  // already placed (the good columns must stay exactly as computed — they
  // are the left singular vectors).
  if (!deficient.empty()) {
    Rng rng(0xdefu + static_cast<std::uint64_t>(m));
    for (index_t j : deficient) {
      for (int attempt = 0; attempt < 4; ++attempt) {
        for (index_t i = 0; i < m; ++i)
          out.u(i, j) = static_cast<float>(rng.normal());
        for (int pass = 0; pass < 2; ++pass) {  // twice-is-enough MGS
          for (index_t c = 0; c < n; ++c) {
            if (c == j) continue;
            const bool placed =
                out.sigma[static_cast<std::size_t>(c)] > floor || c < j;
            if (!placed) continue;
            const float dot = blas::dot(m, &out.u(0, c), 1, &out.u(0, j), 1);
            blas::axpy(m, -dot, &out.u(0, c), 1, &out.u(0, j), 1);
          }
        }
        const float nrm = blas::nrm2(m, &out.u(0, j), 1);
        if (nrm > 1e-3f) {
          blas::scal(m, 1.0f / nrm, &out.u(0, j), 1);
          break;
        }
      }
    }
  }
  return out;
}

template <typename T>
DenseSvdResult<T> svd_golub_kahan(ConstMatrixView<T> a, bool vectors) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  TCEVD_CHECK(m >= n, "svd_golub_kahan requires m >= n");

  DenseSvdResult<T> out;
  Matrix<T> work(m, n);
  copy_matrix(a, work.view());

  std::vector<T> d, e, tauq, taup;
  lapack::gebrd(work.view(), d, e, tauq, taup);

  if (vectors) {
    out.u = Matrix<T>(m, n);
    out.v = Matrix<T>(n, n);
    lapack::orgbr_q<T>(work.view(), tauq, out.u.view());
    lapack::orgbr_p<T>(work.view(), taup, out.v.view());
    auto uv = out.u.view();
    auto vv = out.v.view();
    out.converged = lapack::bdsqr<T>(d, e, &uv, &vv);
  } else {
    out.converged = lapack::bdsqr<T>(d, e, nullptr, nullptr);
  }
  out.sigma = std::move(d);
  return out;
}

template DenseSvdResult<float> svd_golub_kahan<float>(ConstMatrixView<float>, bool);
template DenseSvdResult<double> svd_golub_kahan<double>(ConstMatrixView<double>, bool);

JacobiSvdResult jacobi_svd(ConstMatrixView<double> a, int max_sweeps) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  TCEVD_CHECK(m >= n, "jacobi_svd requires m >= n");

  JacobiSvdResult out;
  out.u = Matrix<double>(m, n);
  copy_matrix(a, out.u.view());
  out.v = Matrix<double>(n, n);
  set_identity(out.v.view());

  const double eps = std::numeric_limits<double>::epsilon();
  for (out.sweeps = 0; out.sweeps < max_sweeps; ++out.sweeps) {
    bool rotated = false;
    for (index_t p = 0; p < n - 1; ++p) {
      for (index_t q = p + 1; q < n; ++q) {
        // 2x2 Gram block of columns p, q.
        const double app = blas::dot(m, &out.u(0, p), 1, &out.u(0, p), 1);
        const double aqq = blas::dot(m, &out.u(0, q), 1, &out.u(0, q), 1);
        const double apq = blas::dot(m, &out.u(0, p), 1, &out.u(0, q), 1);
        if (std::abs(apq) <= eps * std::sqrt(app * aqq)) continue;
        rotated = true;
        // Jacobi rotation annihilating the off-diagonal Gram entry.
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(1.0, tau) /
                         (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (index_t i = 0; i < m; ++i) {
          const double up = out.u(i, p);
          const double uq = out.u(i, q);
          out.u(i, p) = c * up - s * uq;
          out.u(i, q) = s * up + c * uq;
        }
        for (index_t i = 0; i < n; ++i) {
          const double vp = out.v(i, p);
          const double vq = out.v(i, q);
          out.v(i, p) = c * vp - s * vq;
          out.v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (!rotated) break;
  }

  // Column norms are the singular values; normalize U and sort descending.
  out.sigma.resize(static_cast<std::size_t>(n));
  std::vector<index_t> order(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    out.sigma[static_cast<std::size_t>(j)] = blas::nrm2(m, &out.u(0, j), 1);
    order[static_cast<std::size_t>(j)] = j;
  }
  std::sort(order.begin(), order.end(), [&](index_t x, index_t y) {
    return out.sigma[static_cast<std::size_t>(x)] > out.sigma[static_cast<std::size_t>(y)];
  });
  Matrix<double> us(m, n), vs(n, n);
  std::vector<double> ss(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    const index_t src = order[static_cast<std::size_t>(j)];
    const double s = out.sigma[static_cast<std::size_t>(src)];
    ss[static_cast<std::size_t>(j)] = s;
    const double inv = (s > 0.0) ? 1.0 / s : 0.0;
    for (index_t i = 0; i < m; ++i) us(i, j) = out.u(i, src) * inv;
    for (index_t i = 0; i < n; ++i) vs(i, j) = out.v(i, src);
  }
  out.sigma = std::move(ss);
  out.u = std::move(us);
  out.v = std::move(vs);
  return out;
}

}  // namespace tcevd::svd
