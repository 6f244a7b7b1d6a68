// e2ebench: end-to-end EVD benchmark program.
//
//   e2ebench --workload <eig-values|eig-vectors|service-mixed> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-out <file>, required with --trace 1]
//            [--commit <id>] [--source-digest <hex>]
//
// Prints human-readable lines, a "stamp" line with host and build facts, and
// as the last line one JSON object {correct, attempted, failed, metrics}.
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// report the per-layer metrics and write the spans as Chrome trace-event
// JSON. Exits non-zero when any output fails its check.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "e2ebench/e2e.hpp"
#include "src/blas/simd_dispatch.hpp"
#include "src/common/thread_pool.hpp"

namespace e2e {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // The epsilon keeps an exact rank (p = 100 k / n) from rounding up to k + 1.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()) - 1e-9);
  const auto idx = static_cast<std::size_t>(std::clamp(rank, 1.0, double(samples.size()))) - 1;
  return samples[idx];
}

Tail tail_percentile(const std::vector<double>& samples) {
  const double n = static_cast<double>(samples.size());
  // The nearest-rank sample at rank n - 10 has exactly ten samples beyond
  // it; below the median it would not be a tail, so the median is the floor.
  double p = std::max(50.0, 100.0 * (n - 10.0) / n);
  for (double cap : {99.9, 99.0, 90.0})
    if (p >= cap) {
      p = cap;
      break;
    }
  return {p, percentile(samples, p)};
}

}  // namespace e2e

namespace {

using namespace e2e;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <eig-values|eig-vectors|service-mixed> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] [--commit <id>] "
               "[--source-digest <hex>]\n",
               why);
  return 2;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value.c_str());
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--trace-out") args.trace_out = value;
    else if (flag == "--commit") args.commit = value;
    else if (flag == "--source-digest") args.source_digest = value;
    else return usage(("unknown flag " + flag).c_str());
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end())
    return usage(("unknown workload '" + args.workload + "'").c_str());
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  if (args.trace && args.trace_out.empty()) return usage("--trace 1 needs --trace-out <file>");

  std::string selftest_log;
  const bool checker_ok = checker_self_test(selftest_log);
  std::printf("%s\n", selftest_log.c_str());

  Tracer tracer;
  const RunResult r = run_workload(args, args.trace ? &tracer : nullptr);
  const Tally& t = r.tally;
  const bool correct = checker_ok && t.failed == 0 && t.attempted > 0;

  const std::string stamp =
      std::string("{\"workload\": \"") + args.workload + "\", \"seed\": " +
      std::to_string(args.seed) + ", \"seconds\": " + num(args.seconds) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"pool_threads\": " + std::to_string(tcevd::ThreadPool::hardware_threads()) +
      ", \"simd\": \"" + tcevd::blas::simd::active_level_name() + "\", \"simd_reason\": \"" +
      json_escape(tcevd::blas::simd::active_level_reason()) + "\", \"build_type\": \"" +
      E2E_BUILD_TYPE + "\", \"compiler\": \"" + json_escape(E2E_COMPILER) +
      "\", \"commit\": \"" + json_escape(args.commit) + "\", \"source_digest\": \"" +
      json_escape(args.source_digest) + "\"}";

  std::printf("workload %s seed %llu: %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), r.notes.c_str());
  std::printf("setup runs (s):");
  for (double s : r.setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  for (const std::string& f : t.failures) std::printf("FAILED: %s\n", f.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    const Tail tail = tail_percentile(r.latency_s);
    const double attempted = static_cast<double>(std::max<long>(t.attempted, 1));
    metrics = {
        {"latency_ms_p50", 1e3 * percentile(r.latency_s, 50.0), "ms"},
        {"latency_ms_tail", 1e3 * tail.value, "ms"},
        {"throughput_rps", percentile(r.throughput_rps, 50.0), "1/s"},
        {"ok_frac", static_cast<double>(t.attempted - t.failed) / attempted, "fraction"},
        // Accuracy on a log scale: its spread across seeds is multiplicative
        // (a few random matrices per run decide the worst case), so digits
        // keep the run-to-run spread far inside the bound.
        {"eig_digits", -std::log10(std::max(t.eig_err_max, 1e-16)), "digits"},
        {"setup_s", percentile(r.setup_s, 50.0), "s"},
        {"peak_rss_mb", r.peak_rss_mb, "MiB"},
    };
    std::printf("latency samples %zu; tail is p%.4g (%zu samples beyond it)\n",
                r.latency_s.size(), tail.p,
                static_cast<std::size_t>(std::count_if(r.latency_s.begin(), r.latency_s.end(),
                                                       [&](double v) { return v > tail.value; })));
    std::printf("metric failed_frac = %.6g fraction\n", t.failed / attempted);
    std::printf("metric eig_err_max = %.6g relative\n", t.eig_err_max);
    if (t.vectors_checked > 0) {
      std::printf("metric residual_max = %.6g relative (%ld vector outputs)\n", t.residual_max,
                  t.vectors_checked);
      std::printf("metric orth_max = %.6g absolute\n", t.orth_max);
    } else {
      std::printf("metric residual_max = n/a (no eigenvector requests)\n");
      std::printf("metric orth_max = n/a (no eigenvector requests)\n");
    }
  } else {
    static const char* kUnits[][2] = {
        {"sbr.s", "s"},
        {"sbr.gemm_calls", "count"},
        {"sbr.gemm_gflop", "GFLOP"},
        {"sbr.gflops", "GFLOP/s"},
        {"sbr.skinny_flop_share", "fraction"},
        {"tensorcore.replay_gflops", "GFLOP/s"},
        {"perfmodel.a100_s", "s"},
        {"bulge.s", "s"},
        {"lapack.solver_s", "s"},
        {"lapack.partial_s", "s"},
        {"backtransform.s", "s"},
        {"verify.s", "s"},
        {"evd.self_s", "s"},
        {"trace.unattributed_frac", "fraction"},
        {"trace.overhead_frac", "fraction"},
        {"workspace.high_water_mb", "MiB"},
        {"recovery.events", "count"},
        {"service.queue_ms_p50", "ms"},
        {"service.exec_ms_p50", "ms"},
        {"service.step_ms_mean", "ms"},
        {"service.stage_wait_ms_mean", "ms"},
        {"service.pooled_contexts", "count"},
        {"service.rejected", "count"},
        {"check.residual_max", "relative"},
        {"check.orth_max", "absolute"},
    };
    for (const auto& [name, unit] : kUnits) {
      auto it = r.layers.find(name);
      metrics.push_back({name, it == r.layers.end() ? 0.0 : it->second, unit});
    }
    if (!tracer.write_chrome_json(args.trace_out, stamp)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", args.trace_out.c_str());
  }
  for (const Metric& m : metrics)
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("stamp %s\n", stamp.c_str());

  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(t.attempted) +
                     ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
