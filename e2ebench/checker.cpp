// Output checker: every benchmark output is compared with a double-precision
// reference computed once per input, before any timing starts.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "e2ebench/e2e.hpp"
#include "src/blas/blas.hpp"
#include "src/common/context.hpp"
#include "src/common/rng.hpp"
#include "src/common/verify.hpp"
#include "src/evd/evd.hpp"
#include "src/tensorcore/engine.hpp"

namespace e2e {

using namespace tcevd;

Reference make_reference(ConstMatrixView<float> a, matgen::MatrixType type, double cond) {
  Reference ref;
  ref.eig = matgen::prescribed_spectrum(type, a.rows(), cond);
  if (ref.eig.empty()) {
    Matrix<double> ad(a.rows(), a.cols());
    convert_matrix<float, double>(a, ad.view());
    auto eig = evd::reference_eigenvalues(ad.view());
    if (eig.ok()) ref.eig = std::move(*eig);
  }
  ref.scale = 0.0;
  for (double x : ref.eig) ref.scale = std::max(ref.scale, std::abs(x));
  if (ref.scale == 0.0) ref.scale = 1.0;
  return ref;
}

namespace {

/// ||V^T V - I||_F, accumulated in double.
double orthogonality(ConstMatrixView<float> v) {
  Matrix<double> vd(v.rows(), v.cols());
  convert_matrix<float, double>(v, vd.view());
  Matrix<double> g(v.cols(), v.cols());
  blas::gemm<double>(blas::Trans::Yes, blas::Trans::No, 1.0, vd.view(), vd.view(), 0.0,
                     g.view());
  double s = 0.0;
  for (index_t j = 0; j < g.cols(); ++j)
    for (index_t i = 0; i < g.rows(); ++i) {
      const double r = g(i, j) - (i == j ? 1.0 : 0.0);
      s += r * r;
    }
  return std::sqrt(s);
}

}  // namespace

Verdict check_output(ConstMatrixView<float> a, const Reference& ref, index_t il,
                     const std::vector<float>& lambda, const Matrix<float>* v) {
  Verdict out;
  const index_t n = a.rows();
  const auto nev = static_cast<index_t>(lambda.size());
  if (ref.eig.empty()) {
    out.ok = false;
    out.why = "no reference spectrum (reference solve failed)";
    return out;
  }
  if (nev == 0 || il < 0 || il + nev > static_cast<index_t>(ref.eig.size())) {
    out.ok = false;
    out.why = "eigenvalue count " + std::to_string(nev) + " does not fit the reference";
    return out;
  }
  for (index_t i = 0; i < nev; ++i) {
    const double d = std::abs(static_cast<double>(lambda[static_cast<std::size_t>(i)]) -
                              ref.eig[static_cast<std::size_t>(il + i)]);
    // NaN-propagating max: a non-finite eigenvalue must fail the gate.
    out.eig_err = (d > out.eig_err || std::isnan(d)) ? d : out.eig_err;
  }
  out.eig_err /= ref.scale;
  if (!(out.eig_err <= kEigGate)) {
    out.ok = false;
    out.why = "eigenvalue error " + std::to_string(out.eig_err) + " > gate " +
              std::to_string(kEigGate);
  }
  if (v == nullptr) return out;

  out.vectors = true;
  if (v->rows() != n || v->cols() != nev) {
    out.ok = false;
    out.why = "eigenvector block has the wrong shape";
    return out;
  }
  const verify::Thresholds th = verify::thresholds_for(tc::EngineKind::Tc, n);
  out.residual = evd::eigenpair_residual(a, lambda, v->view());
  out.orth = orthogonality(v->view());
  if (out.ok && !(out.residual <= th.residual)) {
    out.ok = false;
    out.why = "residual " + std::to_string(out.residual) + " > gate " +
              std::to_string(th.residual);
  }
  if (out.ok && !(out.orth <= th.orthogonality)) {
    out.ok = false;
    out.why = "orthogonality " + std::to_string(out.orth) + " > gate " +
              std::to_string(th.orthogonality);
  }
  return out;
}

std::uint64_t output_hash(const std::vector<float>& lambda, const Matrix<float>& v) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const float* p, std::size_t count) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < count * sizeof(float); ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  mix(lambda.data(), lambda.size());
  for (index_t j = 0; j < v.cols(); ++j)
    mix(v.data() + j * v.ld(), static_cast<std::size_t>(v.rows()));
  return h;
}

bool checker_self_test(std::string& log) {
  const index_t n = 64;
  Rng rng(12345);
  Matrix<float> a = matgen::generate_f(matgen::MatrixType::Normal, n, 1.0, rng);
  const Reference ref = make_reference(a.view(), matgen::MatrixType::Normal, 1.0);
  tc::TcEngine engine;
  Context ctx(engine);
  evd::EvdOptions opt;
  opt.vectors = true;
  auto r = evd::solve(a.view(), ctx, opt);
  if (!r.ok()) {
    log = "self-test solve failed: " + r.status().to_string();
    return false;
  }
  const Verdict clean = check_output(a.view(), ref, 0, r->eigenvalues, &r->vectors);

  std::vector<float> bad_lambda = r->eigenvalues;
  bad_lambda[static_cast<std::size_t>(n / 2)] += static_cast<float>(0.1 * ref.scale);
  const Verdict bad_value = check_output(a.view(), ref, 0, bad_lambda, &r->vectors);

  Matrix<float> bad_v = r->vectors;
  for (index_t i = 0; i < n; ++i) bad_v(i, 0) = bad_v(i, n - 1);
  const Verdict bad_vector = check_output(a.view(), ref, 0, r->eigenvalues, &bad_v);

  log = "self-test clean: " + std::string(clean.ok ? "passes" : "FLAGGED (" + clean.why + ")") +
        "\nself-test perturbed eigenvalue: " +
        (bad_value.ok ? std::string("NOT flagged") : "flagged (" + bad_value.why + ")") +
        "\nself-test perturbed vector column: " +
        (bad_vector.ok ? std::string("NOT flagged") : "flagged (" + bad_vector.why + ")");
  return clean.ok && !bad_value.ok && !bad_vector.ok;
}

std::optional<Verdict> VerdictCache::find(std::uint64_t key, std::uint64_t hash) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = verdicts_.find({key, hash});
  if (it == verdicts_.end()) return std::nullopt;
  return it->second;
}

void VerdictCache::store(std::uint64_t key, std::uint64_t hash, const Verdict& v) {
  std::lock_guard<std::mutex> lock(mutex_);
  verdicts_[{key, hash}] = v;
}

void Tally::add(const Verdict& v, const std::string& what) {
  ++attempted;
  eig_err_max = std::max(eig_err_max, v.eig_err);
  if (v.vectors) {
    ++vectors_checked;
    residual_max = std::max(residual_max, v.residual);
    orth_max = std::max(orth_max, v.orth);
  }
  if (!v.ok) {
    ++failed;
    if (failures.size() < 5) failures.push_back(what + ": " + v.why);
  }
}

void Tally::fail(const std::string& why) {
  ++attempted;
  ++failed;
  if (failures.size() < 5) failures.push_back(why);
}

void Tally::merge(const Tally& o) {
  attempted += o.attempted;
  failed += o.failed;
  recovery_events += o.recovery_events;
  eig_err_max = std::max(eig_err_max, o.eig_err_max);
  residual_max = std::max(residual_max, o.residual_max);
  orth_max = std::max(orth_max, o.orth_max);
  vectors_checked += o.vectors_checked;
  for (const auto& f : o.failures)
    if (failures.size() < 5) failures.push_back(f);
}

}  // namespace e2e
