// End-to-end EVD benchmark: shared types of the entry point (main.cpp), the three
// workloads (workloads.cpp), the output checker (checker.cpp) and the span
// recorder of the traced run (trace.cpp).
//
// End-to-end runs call only evd::solve and evd::EvdService. The traced run
// additionally mirrors each traced request layer by layer through the
// layers' public entry points (sbr -> bulge -> tridiagonal solver ->
// verify), timing each call from here; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/matrix.hpp"
#include "src/matgen/matgen.hpp"

namespace e2e {

using tcevd::ConstMatrixView;
using tcevd::index_t;
using tcevd::Matrix;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event JSON written by traced runs
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

// --- statistics from raw per-request samples --------------------------------

/// Nearest-rank percentile (p in [0, 100]) of raw samples; 0 when empty.
double percentile(std::vector<double> samples, double p);

/// The highest percentile with at least ten samples beyond it: the
/// nearest-rank sample at rank n - 10, i.e. p = 100 (1 - 10/n), capped down
/// to p90, p99 or p99.9 once it passes them, and never below the median.
struct Tail {
  double p = 50.0;
  double value = 0.0;
};
Tail tail_percentile(const std::vector<double>& samples);

// --- output checker ----------------------------------------------------------

/// Double-precision reference spectrum of one input, ascending.
struct Reference {
  std::vector<double> eig;
  double scale = 1.0;  ///< max |eig|
};

/// `a` is the float matrix the solver sees. Normal inputs use
/// evd::reference_eigenvalues on it; spectrum-controlled classes use
/// matgen::prescribed_spectrum.
Reference make_reference(ConstMatrixView<float> a, tcevd::matgen::MatrixType type, double cond);

struct Verdict {
  bool ok = true;
  bool vectors = false;
  double eig_err = 0.0;   ///< max |lambda - lambda_ref| / max |lambda_ref|
  double residual = 0.0;  ///< evd::eigenpair_residual (vectors only)
  double orth = 0.0;      ///< ||V^T V - I||_F (vectors only)
  std::string why;        ///< first failed gate, empty when ok
};

/// Check eigenvalues (and, when `v` is non-null, eigenvectors) of `a`
/// against the slice [il, il + lambda.size()) of the reference. Gates:
/// eigenvalue error at kEigGate; residual and orthogonality at
/// verify::thresholds_for(Tc, n).
Verdict check_output(ConstMatrixView<float> a, const Reference& ref, index_t il,
                     const std::vector<float>& lambda, const Matrix<float>* v);

/// 64x the fp16 unit roundoff: the headroom factor verify::thresholds_for
/// applies to its fp16 floors, on the eigenvalue error relative to max|lambda|.
inline constexpr double kEigGate = 64.0 * 9.765625e-4;

/// FNV-1a over the bytes of an output. Solves are deterministic (bitwise
/// pinned), so an output whose hash matches an already checked output of the
/// same request shares its verdict without being checked again.
std::uint64_t output_hash(const std::vector<float>& lambda, const Matrix<float>& v);

/// Feeds the checker a clean solve, a perturbed eigenvalue and a perturbed
/// eigenvector column; true when the clean output passes and both perturbed
/// ones are flagged. `log` receives one line per case.
bool checker_self_test(std::string& log);

/// Thread-safe verdict cache keyed by (request key, output hash).
class VerdictCache {
 public:
  std::optional<Verdict> find(std::uint64_t key, std::uint64_t hash) const;
  void store(std::uint64_t key, std::uint64_t hash, const Verdict& v);

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Verdict> verdicts_;
};

/// Per-run correctness tally.
struct Tally {
  long attempted = 0;
  long failed = 0;
  long recovery_events = 0;
  double eig_err_max = 0.0;
  double residual_max = 0.0;
  double orth_max = 0.0;
  long vectors_checked = 0;
  std::vector<std::string> failures;  ///< first few failure reasons

  /// `what` names the request in the failure reason.
  void add(const Verdict& v, const std::string& what);
  void fail(const std::string& why);
  void merge(const Tally& other);
};

// --- spans of the traced run -------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0.0;  ///< since the tracer's epoch
  double end_s = 0.0;
  int parent = -1;  ///< index into the span list, -1 for a root
  std::uint64_t request = 0;
  int tid = 0;
};

/// In-memory span list; written out once, at exit, as Chrome trace-event
/// JSON. Thread-safe.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  int begin(const std::string& name, int parent, std::uint64_t request, int tid);
  void end(int span);
  /// Record a span whose interval was measured elsewhere.
  int add(const std::string& name, int parent, std::uint64_t request, int tid,
          Clock::time_point start, Clock::time_point end);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const std::string& name, int parent, std::uint64_t request, int tid)
        : t_(t), id_(t.begin(name, parent, request, tid)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const noexcept { return id_; }

   private:
    Tracer& t_;
    int id_;
  };

  struct Totals {
    long count = 0;
    double total_s = 0.0;  ///< summed durations
    double self_s = 0.0;   ///< durations minus the time direct children cover
  };
  /// Per span name, derived from the recorded spans.
  std::map<std::string, Totals> totals() const;

  /// Write every span as a complete ("X") trace event; `meta` is a JSON
  /// object stored under "otherData". False when the file cannot be written.
  bool write_chrome_json(const std::string& path, const std::string& meta) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// --- workloads ---------------------------------------------------------------

/// Everything one run measured; main.cpp turns it into metrics.
struct RunResult {
  Tally tally;
  std::vector<double> latency_s;  ///< one per measured request (untraced requests only)
  /// Requests completed OK per second, one per time window; the
  /// throughput metric is their median, so a burst of host contention in
  /// part of a run moves it less.
  std::vector<double> throughput_rps;
  std::vector<double> setup_s;  ///< one per repeated set-up
  double peak_rss_mb = 0.0;
  std::map<std::string, double> layers;  ///< per-layer metrics (traced runs)
  std::string notes;                     ///< free-form lines for the log
};

/// Names of the workloads, in the order the benchmark documents them.
const std::vector<std::string>& workload_names();

/// Run one workload; `tracer` is non-null for the traced run.
RunResult run_workload(const Args& args, Tracer* tracer);

/// Peak resident set since the last reset_peak_rss() (VmHWM), in MiB.
double peak_rss_mb();
/// Reset VmHWM to the current resident set, so the peak covers only what
/// runs after this call. Returns false when the kernel does not support it.
bool reset_peak_rss();

}  // namespace e2e
