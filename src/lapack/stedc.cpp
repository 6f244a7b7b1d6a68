// Divide & conquer symmetric tridiagonal eigensolver (Cuppen's method with
// Gu-Eisenstat stable eigenvector formation).
//
// The tridiagonal T is torn in half by a rank-one modification:
//
//   T = [T1' 0; 0 T2'] + rho * u u^T,   rho = |e_{m-1}|,
//   u = e_m-th basis (1) and sign(e_{m-1}) * first basis of the second half,
//
// children are solved recursively, the modification is diagonalized in the
// children's eigenbasis (D + w w^T with w = Q^T u * sqrt(rho) folded into
// w^2 = rho z^2), small or duplicate components are deflated, the secular
// equation gives the non-deflated eigenvalues, and z is *recomputed* from
// the computed roots (Gu & Eisenstat) so eigenvectors of clustered
// eigenvalues stay numerically orthogonal.
//
// The merge is organized as LAPACK's dlaed2/dlaed3: each column of the
// children's eigenbasis is typed by its row support (first child only,
// second child only, or dense once a type-2 deflation mixed the two), and
// the back-transform multiplies the top rows by [top-only | dense] and the
// bottom rows by [dense | bottom-only] columns, skipping the zero blocks.
// The per-index loops of a merge (roots, Gu-Eisenstat products, columns of
// the secular eigenvectors) fan out over gemm_pool().
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/blas/blas.hpp"
#include "src/blas/gemm_threading.hpp"
#include "src/common/thread_pool.hpp"
#include "src/lapack/secular.hpp"
#include "src/lapack/tridiag.hpp"

namespace tcevd::lapack {

namespace {

constexpr index_t kDcBaseSize = 32;

// A merge with fewer kept poles than kMergeFanOutMin runs its per-index loops
// on the calling thread: they cost less than a broadcast round trip. Larger
// merges hand out contiguous chunks of kMergeChunk indices.
constexpr index_t kMergeFanOutMin = 128;
constexpr index_t kMergeChunk = 16;

/// body(i) for every i in [0, count), fanned out over gemm_pool() in chunks.
/// Stands down exactly as the packed GEMM does: serial when nested under a
/// pool worker, inside a SerialGemmScope, or when count is small. Every index
/// runs the same code on whichever lane claims it, so the output bits do not
/// depend on the lane count.
template <typename Body>
void merge_for(index_t count, const Body& body) {
  struct Ctx {
    const Body* body;
    index_t count;
  } ctx{&body, count};
  const auto run_chunk = [](void* p, long c) {
    const auto& cx = *static_cast<const Ctx*>(p);
    const index_t lo = static_cast<index_t>(c) * kMergeChunk;
    const index_t hi = std::min(cx.count, lo + kMergeChunk);
    for (index_t i = lo; i < hi; ++i) (*cx.body)(i);
  };
  const long chunks = static_cast<long>((count + kMergeChunk - 1) / kMergeChunk);
  const bool pooled = count >= kMergeFanOutMin && !ThreadPool::on_worker_thread() &&
                      !blas::gemm_serial_forced();
  if (pooled && gemm_pool().try_broadcast(chunks, run_chunk, &ctx)) return;
  for (long c = 0; c < chunks; ++c) run_chunk(&ctx, c);
}

/// Row support of a merge column (dlaed2's column types): rows of the first
/// child, of the second, or both once a type-2 deflation mixed the two.
enum Support : unsigned char { kTop = 1, kBottom = 2, kDense = kTop | kBottom };

/// Type-2 deflation: column p rotated into column i (p then deflated).
struct Rotation {
  index_t p, i;
  double c, s;
};

/// Full D&C on (d, e), eigenvectors into v (n x n, overwritten).
Status dc_solve(std::vector<double>& d, std::vector<double>& e, MatrixView<double> v) {
  const index_t n = static_cast<index_t>(d.size());
  if (n <= kDcBaseSize) {
    set_identity(v);
    return steqr<double>(d, e, &v);
  }

  const index_t m = n / 2;
  const double b = e[static_cast<std::size_t>(m - 1)];
  const double rho = std::abs(b);
  const double sgn = (b >= 0.0) ? 1.0 : -1.0;

  // Children (with the rank-one tear subtracted from the touching diagonals).
  std::vector<double> d1(d.begin(), d.begin() + m);
  std::vector<double> e1(e.begin(), e.begin() + (m - 1));
  std::vector<double> d2(d.begin() + m, d.end());
  std::vector<double> e2(e.begin() + m, e.end());
  d1[static_cast<std::size_t>(m - 1)] -= rho;
  d2[0] -= rho;

  Matrix<double> v1(m, m);
  Matrix<double> v2(n - m, n - m);
  TCEVD_RETURN_IF_ERROR(dc_solve(d1, e1, v1.view()));
  TCEVD_RETURN_IF_ERROR(dc_solve(d2, e2, v2.view()));

  // Merged poles in ascending order. Column jc of the merged eigenbasis
  // blockdiag(V1, V2) is child column src[jc]: of V1 if src[jc] < m, else of
  // V2; z = Q^T u is the last row of V1 and the signed first row of V2.
  std::vector<index_t> src(static_cast<std::size_t>(n));
  std::iota(src.begin(), src.end(), index_t{0});
  const auto pole = [&](index_t s) {
    return s < m ? d1[static_cast<std::size_t>(s)] : d2[static_cast<std::size_t>(s - m)];
  };
  std::sort(src.begin(), src.end(), [&](index_t a, index_t c) { return pole(a) < pole(c); });

  std::vector<double> ds(static_cast<std::size_t>(n));
  std::vector<double> zs(static_cast<std::size_t>(n));
  std::vector<unsigned char> support(static_cast<std::size_t>(n));
  for (index_t jc = 0; jc < n; ++jc) {
    const index_t s = src[static_cast<std::size_t>(jc)];
    ds[static_cast<std::size_t>(jc)] = pole(s);
    zs[static_cast<std::size_t>(jc)] = s < m ? v1(m - 1, s) : sgn * v2(0, s - m);
    support[static_cast<std::size_t>(jc)] = s < m ? kTop : kBottom;
  }

  // ---- Deflation ------------------------------------------------------------
  // Decided on (ds, zs) alone; the column rotations of type-2 deflations are
  // logged and applied below to the few columns they touch.
  std::vector<index_t> kept;
  std::vector<index_t> deflated;
  std::vector<Rotation> rotations;
  kept.reserve(static_cast<std::size_t>(n));
  double dmax = 0.0;
  double zmax = 0.0;
  for (index_t i = 0; i < n; ++i) {
    dmax = std::max(dmax, std::abs(ds[static_cast<std::size_t>(i)]));
    zmax = std::max(zmax, std::abs(zs[static_cast<std::size_t>(i)]));
  }
  const double eps = std::numeric_limits<double>::epsilon();
  const double tol = 8.0 * eps * std::max({dmax, rho * zmax * zmax, rho});
  if (rho == 0.0) {
    // Degenerate tear: the halves are exactly decoupled.
    deflated.resize(static_cast<std::size_t>(n));
    std::iota(deflated.begin(), deflated.end(), index_t{0});
  } else {
    for (index_t i = 0; i < n; ++i) {
      if (rho * std::abs(zs[static_cast<std::size_t>(i)]) <= tol) {
        deflated.push_back(i);  // type 1: negligible coupling
        continue;
      }
      if (!kept.empty()) {
        const index_t p = kept.back();
        if (ds[static_cast<std::size_t>(i)] - ds[static_cast<std::size_t>(p)] <= tol) {
          // Type 2: (near-)equal poles. Rotate weight of p into i, deflate p.
          const double z1 = zs[static_cast<std::size_t>(p)];
          const double z2 = zs[static_cast<std::size_t>(i)];
          const double r = std::hypot(z1, z2);
          const double c = z2 / r;
          const double s = z1 / r;
          zs[static_cast<std::size_t>(p)] = 0.0;
          zs[static_cast<std::size_t>(i)] = r;
          const double dp = ds[static_cast<std::size_t>(p)];
          const double di = ds[static_cast<std::size_t>(i)];
          ds[static_cast<std::size_t>(p)] = c * c * dp + s * s * di;
          ds[static_cast<std::size_t>(i)] = s * s * dp + c * c * di;
          rotations.push_back({p, i, c, s});
          const unsigned char both =
              support[static_cast<std::size_t>(p)] | support[static_cast<std::size_t>(i)];
          support[static_cast<std::size_t>(p)] = both;
          support[static_cast<std::size_t>(i)] = both;
          kept.pop_back();
          deflated.push_back(p);
        }
      }
      kept.push_back(i);
    }
  }

  // ---- Column contents -------------------------------------------------------
  // Columns a rotation touched are materialized full length and rotated in
  // log order; every other column is read in place from V1 or V2.
  std::vector<index_t> slot(static_cast<std::size_t>(n), -1);
  index_t ntouched = 0;
  for (const Rotation& r : rotations)
    for (const index_t jc : {r.p, r.i})
      if (slot[static_cast<std::size_t>(jc)] < 0) slot[static_cast<std::size_t>(jc)] = ntouched++;
  Matrix<double> touched(n, ntouched);
  for (index_t jc = 0; jc < n; ++jc) {
    const index_t t = slot[static_cast<std::size_t>(jc)];
    if (t < 0) continue;
    const index_t s = src[static_cast<std::size_t>(jc)];
    if (s < m)
      std::copy_n(&v1(0, s), m, &touched(0, t));
    else
      std::copy_n(&v2(0, s - m), n - m, &touched(m, t));
  }
  for (const Rotation& r : rotations) {
    double* qp = &touched(0, slot[static_cast<std::size_t>(r.p)]);
    double* qi = &touched(0, slot[static_cast<std::size_t>(r.i)]);
    for (index_t rr = 0; rr < n; ++rr) {
      const double a = qp[rr];
      const double c = qi[rr];
      qp[rr] = r.c * a - r.s * c;
      qi[rr] = r.s * a + r.c * c;
    }
  }
  // The m top / n - m bottom rows of merged column jc; nullptr where zero.
  const auto top_rows = [&](index_t jc) -> const double* {
    if (!(support[static_cast<std::size_t>(jc)] & kTop)) return nullptr;
    const index_t t = slot[static_cast<std::size_t>(jc)];
    return t >= 0 ? &touched(0, t) : &v1(0, src[static_cast<std::size_t>(jc)]);
  };
  const auto bottom_rows = [&](index_t jc) -> const double* {
    if (!(support[static_cast<std::size_t>(jc)] & kBottom)) return nullptr;
    const index_t t = slot[static_cast<std::size_t>(jc)];
    return t >= 0 ? &touched(m, t) : &v2(0, src[static_cast<std::size_t>(jc)] - m);
  };

  const index_t nk = static_cast<index_t>(kept.size());
  std::vector<double> lam(static_cast<std::size_t>(n));
  Matrix<double> vk(n, nk);  // eigenvectors belonging to the secular roots
  if (nk > 0) {
    // ---- Secular equation on the kept poles -------------------------------
    std::vector<double> dk(static_cast<std::size_t>(nk));
    std::vector<double> wsq(static_cast<std::size_t>(nk));
    for (index_t i = 0; i < nk; ++i) {
      dk[static_cast<std::size_t>(i)] = ds[static_cast<std::size_t>(kept[static_cast<std::size_t>(i)])];
      const double z = zs[static_cast<std::size_t>(kept[static_cast<std::size_t>(i)])];
      wsq[static_cast<std::size_t>(i)] = rho * z * z;
    }
    // Guard: the secular solver needs strictly ascending poles. Deflation
    // leaves gaps > 0; enforce against pathological ties.
    for (index_t i = 1; i < nk; ++i) {
      auto& cur = dk[static_cast<std::size_t>(i)];
      const double prev = dk[static_cast<std::size_t>(i - 1)];
      if (cur <= prev) cur = prev + std::max(tol, eps * std::max(1.0, std::abs(prev)));
    }

    std::vector<SecularRoot> roots(static_cast<std::size_t>(nk));
    merge_for(nk, [&](index_t j) {
      roots[static_cast<std::size_t>(j)] = secular_solve(dk, wsq, 1.0, j);
    });

    // ---- Gu-Eisenstat: recompute w from the computed roots ----------------
    std::vector<long double> what(static_cast<std::size_t>(nk));
    merge_for(nk, [&](index_t i) {
      long double p = gap_from_root(dk, roots[static_cast<std::size_t>(i)], i);  // lambda_i - d_i > 0
      for (index_t j = 0; j < nk; ++j) {
        if (j == i) continue;
        const long double num = gap_from_root(dk, roots[static_cast<std::size_t>(j)], i);
        const long double den = static_cast<long double>(dk[static_cast<std::size_t>(j)]) -
                                static_cast<long double>(dk[static_cast<std::size_t>(i)]);
        p *= num / den;
      }
      const double zi = zs[static_cast<std::size_t>(kept[static_cast<std::size_t>(i)])];
      what[static_cast<std::size_t>(i)] = std::copysign(std::sqrt(std::abs(p)), static_cast<long double>(zi));
    });

    // ---- Kept columns grouped by support: [top-only | dense | bottom-only] --
    index_t ntop = 0;
    index_t ndense = 0;
    for (const index_t jc : kept) {
      const unsigned char sup = support[static_cast<std::size_t>(jc)];
      ntop += sup == kTop;
      ndense += sup == kDense;
    }
    std::vector<index_t> group_pos(static_cast<std::size_t>(nk));
    index_t next[3] = {0, ntop, ntop + ndense};
    for (index_t i = 0; i < nk; ++i) {
      const unsigned char sup = support[static_cast<std::size_t>(kept[static_cast<std::size_t>(i)])];
      group_pos[static_cast<std::size_t>(i)] = next[sup == kTop ? 0 : sup == kDense ? 1 : 2]++;
    }

    // ---- Eigenvectors of D + w w^T, rows in group order --------------------
    Matrix<double> svec(nk, nk);
    merge_for(nk, [&](index_t j) {
      const SecularRoot& r = roots[static_cast<std::size_t>(j)];
      long double norm2 = 0.0L;
      for (index_t i = 0; i < nk; ++i) {
        const long double gap = gap_from_root(dk, r, i);                      // lambda_j - d_i
        const long double vi = what[static_cast<std::size_t>(i)] / (-gap);  // w_i / (d_i - lambda_j)
        svec(group_pos[static_cast<std::size_t>(i)], j) = static_cast<double>(vi);
        norm2 += vi * vi;
      }
      const double inv = static_cast<double>(1.0L / std::sqrt(norm2));
      for (index_t i = 0; i < nk; ++i) svec(i, j) *= inv;
      lam[static_cast<std::size_t>(j)] = static_cast<double>(
          static_cast<long double>(dk[static_cast<std::size_t>(r.anchor)]) + r.offset);
    });

    // ---- Block back-transform (dlaed3) -------------------------------------
    // Top rows: [top-only | dense] columns times the matching rows of S;
    // bottom rows: [dense | bottom-only] columns likewise.
    const index_t ntd = ntop + ndense;
    const index_t ndb = nk - ntop;
    Matrix<double> qtop(m, ntd);
    Matrix<double> qbot(n - m, ndb);
    for (index_t i = 0; i < nk; ++i) {
      const index_t g = group_pos[static_cast<std::size_t>(i)];
      const index_t jc = kept[static_cast<std::size_t>(i)];
      if (g < ntd) std::copy_n(top_rows(jc), m, &qtop(0, g));
      if (g >= ntop) std::copy_n(bottom_rows(jc), n - m, &qbot(0, g - ntop));
    }
    if (ntd > 0)
      blas::gemm<double>(blas::Trans::No, blas::Trans::No, 1.0, qtop.view(),
                         svec.sub(0, 0, ntd, nk), 0.0, vk.sub(0, 0, m, nk));
    if (ndb > 0)
      blas::gemm<double>(blas::Trans::No, blas::Trans::No, 1.0, qbot.view(),
                         svec.sub(ntop, 0, ndb, nk), 0.0, vk.sub(m, 0, n - m, nk));
  }
  for (index_t t = 0; t < static_cast<index_t>(deflated.size()); ++t)
    lam[static_cast<std::size_t>(nk + t)] = ds[static_cast<std::size_t>(deflated[static_cast<std::size_t>(t)])];

  // ---- Final ascending sort ------------------------------------------------
  std::vector<index_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), index_t{0});
  std::sort(order.begin(), order.end(), [&](index_t a, index_t c) {
    return lam[static_cast<std::size_t>(a)] < lam[static_cast<std::size_t>(c)];
  });
  for (index_t j = 0; j < n; ++j) {
    const index_t s = order[static_cast<std::size_t>(j)];
    d[static_cast<std::size_t>(j)] = lam[static_cast<std::size_t>(s)];
    double* out = &v(0, j);
    if (s < nk) {
      std::copy_n(&vk(0, s), n, out);
      continue;
    }
    const index_t jc = deflated[static_cast<std::size_t>(s - nk)];
    const double* top = top_rows(jc);
    const double* bottom = bottom_rows(jc);
    if (top) std::copy_n(top, m, out); else std::fill_n(out, m, 0.0);
    if (bottom) std::copy_n(bottom, n - m, out + m); else std::fill_n(out + m, n - m, 0.0);
  }
  e.assign(static_cast<std::size_t>(n - 1), 0.0);
  return ok_status();
}

}  // namespace

template <typename T>
Status stedc(std::vector<T>& d, std::vector<T>& e, MatrixView<T>* z) {
  const index_t n = static_cast<index_t>(d.size());
  if (n == 0) return ok_status();
  if (z) TCEVD_CHECK(z->cols() == n, "stedc z must have n columns");
  if (static_cast<index_t>(e.size()) < n - 1)
    return invalid_argument_error("stedc: e must have n - 1 entries");
  // A non-finite entry would reach the secular solver as a NaN or infinite
  // pole gap; it is caller data, so it is reported, not asserted.
  for (index_t i = 0; i < n; ++i)
    if (!std::isfinite(d[static_cast<std::size_t>(i)]))
      return invalid_input_error("stedc: non-finite diagonal entry");
  for (index_t i = 0; i + 1 < n; ++i)
    if (!std::isfinite(e[static_cast<std::size_t>(i)]))
      return invalid_input_error("stedc: non-finite off-diagonal entry");

  std::vector<double> dd(d.begin(), d.end());
  std::vector<double> ee(e.begin(), e.end());
  if (z == nullptr) {
    // Eigenvalues only: the merges' eigenvector work buys nothing, so, as
    // LAPACK dstedc does for COMPZ = 'N', run the root-free QL iteration.
    TCEVD_RETURN_IF_ERROR(sterf<double>(dd, ee));
  } else {
    Matrix<double> v(n, n);
    TCEVD_RETURN_IF_ERROR(dc_solve(dd, ee, v.view()));
    // z := z * V in the caller's precision.
    Matrix<T> vt(n, n);
    convert_matrix<double, T>(v.view(), vt.view());
    Matrix<T> tmp(z->rows(), n);
    blas::gemm<T>(blas::Trans::No, blas::Trans::No, T{1},
                  ConstMatrixView<T>(z->data(), z->rows(), n, z->ld()), vt.view(), T{},
                  tmp.view());
    copy_matrix<T>(tmp.view(), *z);
  }
  for (index_t i = 0; i < n; ++i) d[static_cast<std::size_t>(i)] = static_cast<T>(dd[static_cast<std::size_t>(i)]);
  std::fill(e.begin(), e.end(), T{});
  return ok_status();
}

template Status stedc<float>(std::vector<float>&, std::vector<float>&, MatrixView<float>*);
template Status stedc<double>(std::vector<double>&, std::vector<double>&, MatrixView<double>*);

}  // namespace tcevd::lapack
