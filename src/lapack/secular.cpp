#include "src/lapack/secular.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tcevd::lapack {

namespace {

/// Rational steps before the solve falls back to bisection alone (dlaed4's
/// MAXIT). The geometric bisection then reaches t ~ 1e-300 from t ~ 1 in a
/// few dozen halvings of the exponent; the overall cap only guards a bracket
/// that stops shrinking.
constexpr int kRationalIters = 30;
constexpr int kMaxIters = 400;

/// Poles on each side of the bracketing pair that the initial guess's local
/// model keeps exact. Wider windows cut the mean evaluations per root a
/// little further (about 3.6 at 1, 3.4 at 4 on D&C merges at n = 1024).
constexpr index_t kWindow = 4;

/// f(lambda) / rho at lambda = d[anchor] + tau, split as dlaed4 splits it:
/// the sums over the poles left and right of the anchor, and the anchor's
/// own term apart. delta0[i] = d[i] - d[anchor] is precomputed per root.
struct Eval {
  double w;       // f / rho
  double dw;      // d(f / rho) / d lambda
  double dpsi;    // derivative of the left sum
  double dphi;    // derivative of the right sum
  double term;    // the anchor's term z_sq / (d[anchor] - lambda)
  double dterm;   // its derivative
  double erretm;  // dlaed4's bound on the rounding error in w
};

Eval evaluate(const double* delta0, const double* z_sq, index_t k, index_t anchor,
              double rhoinv, double tau) {
  double psi = 0.0, dpsi = 0.0, err = 0.0;
  for (index_t i = 0; i < anchor; ++i) {
    const double inv = 1.0 / (delta0[i] - tau);
    const double t = z_sq[i] * inv;
    psi += t;
    dpsi += t * inv;
    err += psi;
  }
  err = std::abs(err);
  double phi = 0.0, dphi = 0.0;
  for (index_t i = k - 1; i > anchor; --i) {
    const double inv = 1.0 / (delta0[i] - tau);
    const double t = z_sq[i] * inv;
    phi += t;
    dphi += t * inv;
    err += phi;
  }
  const double inv = 1.0 / (delta0[anchor] - tau);
  Eval ev;
  ev.term = z_sq[anchor] * inv;
  ev.dterm = ev.term * inv;
  ev.dpsi = dpsi;
  ev.dphi = dphi;
  ev.w = rhoinv + psi + phi + ev.term;
  ev.dw = dpsi + dphi + ev.dterm;
  if (anchor == k - 1)  // last root: the anchor term is the whole right side
    ev.erretm = 8.0 * (-ev.term - psi) + err - ev.term + std::abs(rhoinv) +
                std::abs(tau) * ev.dw;
  else
    ev.erretm = 8.0 * (phi - psi) + err + 2.0 * std::abs(rhoinv) + 3.0 * std::abs(ev.term) +
                std::abs(tau) * ev.dw;
  return ev;
}

/// dlaed4's interior step for the root in (d_j, d_{j+1}). dj, dj1 are the
/// current d_j - lambda and d_{j+1} - lambda. The fixed-weight model keeps
/// the anchor's term exact and fits the other pole's weight and a constant
/// to f and f'; the middle way (swtch) fits each pole's weight to the slope
/// of the sum on its side instead.
double interior_step(const Eval& ev, double dj, double dj1, double zsq_j, double zsq_j1,
                     double gap, bool orgati, bool swtch) {
  double dpsi = ev.dpsi;
  double dphi = ev.dphi;
  double c;
  if (!swtch) {
    c = orgati ? ev.w - dj1 * ev.dw + gap * (zsq_j / (dj * dj))
               : ev.w - dj * ev.dw - gap * (zsq_j1 / (dj1 * dj1));
  } else {
    (orgati ? dpsi : dphi) += ev.dterm;
    c = ev.w - dj * dpsi - dj1 * dphi;
  }
  double a = (dj + dj1) * ev.w - dj * dj1 * ev.dw;
  const double b = dj * dj1 * ev.w;
  double eta;
  if (c == 0.0) {
    if (a == 0.0) {
      if (!swtch)
        a = orgati ? zsq_j + dj1 * dj1 * (dpsi + dphi) : zsq_j1 + dj * dj * (dpsi + dphi);
      else
        a = dj * dj * dpsi + dj1 * dj1 * dphi;
    }
    eta = b / a;
  } else {
    // The root of c*eta^2 - a*eta + b on dlaed4's side, without cancellation.
    const double disc = std::sqrt(std::abs(a * a - 4.0 * b * c));
    eta = a <= 0.0 ? (a - disc) / (2.0 * c) : 2.0 * b / (a + disc);
  }
  // Roundoff can point eta the wrong way; a Newton step cannot.
  if (ev.w * eta >= 0.0) eta = -ev.w / ev.dw;
  return eta;
}

/// dlaed4's step for the root beyond the last pole: the last two poles
/// modeled exactly. dn1, dn are the current d_{k-2} - lambda, d_{k-1} - lambda.
double last_step(const Eval& ev, double dn1, double dn, bool first) {
  const double dphi = ev.dterm;
  double c = ev.w - dn1 * ev.dpsi - dn * dphi;
  if (first && c < 0.0) c = std::abs(c);
  const double a = (dn1 + dn) * ev.w - dn1 * dn * ev.dw;
  const double b = dn1 * dn * ev.w;
  double eta;
  if (c == 0.0) {
    eta = -ev.w / ev.dw;
  } else {
    const double disc = std::sqrt(std::abs(a * a - 4.0 * b * c));
    eta = a >= 0.0 ? (a + disc) / (2.0 * c) : 2.0 * b / (a - disc);
  }
  if (ev.w * eta > 0.0) eta = -ev.w / ev.dw;
  return eta;
}

/// Geometric bisection toward the pole end of [lo, hi] keeps relative
/// resolution when the root hugs the pole and the bracket spans many orders
/// of magnitude; plain bisection is the last resort.
double bisect(double lo, double hi, bool pole_at_lo) {
  double t;
  if (pole_at_lo)
    t = (lo > 0.0) ? std::sqrt(lo * hi) : hi / 2.0;
  else
    t = (hi < 0.0) ? -std::sqrt(lo * hi) : lo / 2.0;
  if (!(t > lo && t < hi)) t = lo + (hi - lo) / 2.0;
  return t;
}

/// One root's iteration state: the anchor pole, the offset from it, and the
/// bracket on the offset.
struct Iterate {
  index_t anchor;
  double tau, lo, hi;
};

/// dlaed4's rational iteration for root j of rhoinv + sum z_sq / (delta - t),
/// with delta[i] = d[i] - d[anchor], from `it` until |f| is below its
/// rounding-error bound. Steps that leave the bracket fall back to geometric
/// bisection toward the anchor pole. Returns the evaluations of f it took.
int iterate(const double* delta, const double* z_sq, index_t k, index_t j, double rhoinv,
            Iterate& it) {
  const double eps = std::numeric_limits<double>::epsilon();
  const bool last = (j == k - 1);
  const bool orgati = (it.anchor == j);  // the anchor pole sits at t = 0 on the left
  double& tau = it.tau;
  Eval ev = evaluate(delta, z_sq, k, it.anchor, rhoinv, tau);
  int evals = 1;
  bool swtch = false;
  for (int iter = 0; iter < kMaxIters; ++iter) {
    if (std::abs(ev.w) <= eps * ev.erretm) break;
    if (ev.w <= 0.0)
      it.lo = std::max(it.lo, tau);  // f increases in lambda: the root is right of tau
    else
      it.hi = std::min(it.hi, tau);

    double tn = std::numeric_limits<double>::quiet_NaN();
    if (iter < kRationalIters) {
      const double eta =
          last ? last_step(ev, delta[k - 2] - tau, delta[k - 1] - tau, iter == 0)
               : interior_step(ev, delta[j] - tau, delta[j + 1] - tau, z_sq[j], z_sq[j + 1],
                               delta[j + 1] - delta[j], orgati, swtch);
      tn = tau + eta;
    }
    if (!(tn > it.lo && tn < it.hi)) tn = bisect(it.lo, it.hi, orgati);
    if (tn == tau) break;

    const double prew = ev.w;
    tau = tn;
    ev = evaluate(delta, z_sq, k, it.anchor, rhoinv, tau);
    ++evals;
    // Switch between the fixed-weight and middle-way models when the last
    // step did not cut |f| by a factor of ten.
    if (iter == 0)
      swtch = orgati ? -ev.w > std::abs(prew) / 10.0 : ev.w > std::abs(prew) / 10.0;
    else if (ev.w * prew > 0.0 && std::abs(ev.w) > std::abs(prew) / 10.0)
      swtch = !swtch;
  }
  return evals;
}

}  // namespace

SecularRoot secular_solve(const std::vector<double>& d, const std::vector<double>& z_sq,
                          double rho, index_t j) {
  const index_t k = static_cast<index_t>(d.size());
  TCEVD_CHECK(k >= 1 && j >= 0 && j < k, "secular_solve index out of range");
  TCEVD_CHECK(rho > 0.0, "secular_solve requires rho > 0");
  if (k == 1) return SecularRoot{0, static_cast<long double>(rho * z_sq[0]), 0};

  const double* dp = d.data();
  const double* zp = z_sq.data();
  const double rhoinv = 1.0 / rho;
  const bool last = (j == k - 1);

  // The two poles bracketing the root (for the last root: the last two), and
  // a window of up to kWindow more poles on each side of them.
  const index_t p = last ? k - 2 : j;
  const double gap = dp[p + 1] - dp[p];
  TCEVD_CHECK(gap > 0.0, "secular_solve poles must be strictly ascending");
  const index_t w0 = std::max<index_t>(0, p - kWindow);
  const index_t w1 = std::min<index_t>(k - 1, p + 1 + kWindow);

  std::vector<double> delta0(static_cast<std::size_t>(k));
  const auto anchor_at = [&](index_t a) {
    for (index_t i = 0; i < k; ++i) delta0[static_cast<std::size_t>(i)] = dp[i] - dp[a];
  };
  anchor_at(last ? k - 1 : j);

  // The one evaluation of f at the bracket's midpoint. The poles outside the
  // window are summed per side, with slope and curvature.
  long double sum_zsq = 0.0L;
  if (last)
    for (index_t i = 0; i < k; ++i) sum_zsq += zp[i];
  const double ub = rho * static_cast<double>(sum_zsq);  // last root: lambda <= d[k-1] + ub
  const double midpt = last ? ub / 2.0 : gap / 2.0;
  struct Side {
    double v = 0.0;   // sum z_sq / a,   a = d_i - midpoint
    double d = 0.0;   // sum z_sq / a^2
    double d3 = 0.0;  // sum z_sq / a^3
  } left, right;
  const auto add = [&](Side& sd, index_t i) {
    const double inv = 1.0 / (delta0[static_cast<std::size_t>(i)] - midpt);
    const double t = zp[i] * inv;
    const double t2 = t * inv;
    sd.v += t;
    sd.d += t2;
    sd.d3 += t2 * inv;
  };
  for (index_t i = 0; i < w0; ++i) add(left, i);
  for (index_t i = k - 1; i > w1; --i) add(right, i);
  Side inner;  // the window's poles other than the bracketing pair
  for (index_t i = w0; i <= w1; ++i)
    if (i != p && i != p + 1) add(inner, i);
  // f / rho without the two bracketing poles, and its slope.
  const double rest = rhoinv + left.v + right.v + inner.v;
  const double drest = left.d + right.d + inner.d;

  // Initial guess, first stage: a two-pole model, solved in closed form. As
  // in dlaed4 the bracketing poles stay exact and the sign at the midpoint
  // picks the anchor; unlike dlaed4's frozen constant, the rest of f is
  // matched in value and slope (the fixed-weight model): its slope moves into
  // the weight of the bracketing pole away from the anchor. The closed form
  // keeps full relative accuracy in tau when the root hugs the anchor pole.
  Iterate it{};
  double tau_mid = midpt;  // the midpoint as an offset from the anchor
  if (last) {
    it.anchor = k - 1;
    const double w = rest + zp[p] / (-gap - midpt) + zp[it.anchor] / (-midpt);
    // Model: c + s / (d_{k-2} - lambda) + z_sq[k-1] / (d_{k-1} - lambda).
    const double dist = gap + midpt;
    const double c = rest + dist * drest;
    const double s = zp[p] + dist * dist * drest;
    const double a = -c * gap + s + zp[it.anchor];
    const double b = zp[it.anchor] * gap;
    const auto model = [&] {
      const double disc = std::sqrt(a * a + 4.0 * b * c);
      return a < 0.0 ? 2.0 * b / (disc - a) : (a + disc) / (2.0 * c);
    };
    if (w <= 0.0) {
      // d[k-1] + ub/2 <= lambda <= d[k-1] + ub.
      const double temp = s / (gap + ub) + zp[it.anchor] / ub;
      it = {it.anchor, (c <= temp) ? ub : model(), midpt, ub};
    } else {
      it = {it.anchor, model(), 0.0, midpt};
    }
  } else {
    const double w = rest + zp[j] / (-midpt) + zp[j + 1] / midpt;
    if (w > 0.0) {
      // d_j < lambda < d_j + gap/2: anchor on the left pole.
      // Model: c + z_sq[j] / (d_j - lambda) + s / (d_{j+1} - lambda).
      const double c = rest - midpt * drest;
      const double s = zp[j + 1] + midpt * midpt * drest;
      const double a = c * gap + zp[j] + s;
      const double b = zp[j] * gap;
      const double disc = std::sqrt(std::abs(a * a - 4.0 * b * c));
      it = {j, a > 0.0 ? 2.0 * b / (a + disc) : (a - disc) / (2.0 * c), 0.0, midpt};
    } else {
      // d_j + gap/2 <= lambda < d_{j+1}: anchor on the right pole.
      // Model: c + s / (d_j - lambda) + z_sq[j+1] / (d_{j+1} - lambda).
      tau_mid = -midpt;
      anchor_at(j + 1);
      const double c = rest + midpt * drest;
      const double s = zp[j] + midpt * midpt * drest;
      const double a = c * gap - s - zp[j + 1];
      const double b = zp[j + 1] * gap;
      const double disc = std::sqrt(std::abs(a * a + 4.0 * b * c));
      it = {j + 1, a < 0.0 ? 2.0 * b / (a - disc) : -(a + disc) / (2.0 * c), -midpt, 0.0};
    }
  }
  const bool orgati = (it.anchor == j);
  if (!(it.tau >= it.lo && it.tau <= it.hi) || it.tau == 0.0)
    it.tau = bisect(it.lo, it.hi, orgati);

  // Second stage: a local model solved by the rational iteration at O(1)
  // cost per step. The window's poles stay exact; the poles outside it, which
  // the two-pole model only matched to first order, become one effective
  // pole per side that matches their slope and curvature at the midpoint
  // (a = d / d3 is a weighted harmonic mean of their distances, so the
  // effective pole lies beyond the window), with the value difference in
  // the constant.
  double md[2 * kWindow + 4] = {};
  double mz[2 * kWindow + 4] = {};
  double mc = rhoinv + left.v + right.v;
  index_t nm = 0;
  const auto effective = [&](const Side& sd, bool beyond) {
    if (!(sd.d > 0.0 && sd.d3 != 0.0)) return;
    const double a = sd.d / sd.d3;
    const double pos = tau_mid + a;
    const double edge = delta0[static_cast<std::size_t>(beyond ? w1 : w0)];
    if (beyond ? !(pos > edge) : !(pos < edge)) return;
    md[nm] = pos;
    mz[nm] = sd.d * a * a;
    mc -= sd.d * a;
    ++nm;
  };
  effective(left, false);
  const index_t shift = nm - w0;  // model index of pole i is i + shift
  for (index_t i = w0; i <= w1; ++i, ++nm) {
    md[nm] = delta0[static_cast<std::size_t>(i)];
    mz[nm] = zp[i];
  }
  effective(right, true);
  Iterate local{it.anchor + shift, it.tau, it.lo, it.hi};
  iterate(md, mz, nm, j + shift, mc, local);

  // The iteration proper on the full f, from the model's root.
  it.tau = local.tau;
  const int evals = 1 + iterate(delta0.data(), zp, k, j, rhoinv, it);  // + the midpoint
  return SecularRoot{it.anchor, static_cast<long double>(it.tau), evals};
}

}  // namespace tcevd::lapack
