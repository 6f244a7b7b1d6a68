// Wavefront bulge-chasing thread scaling: serial reference vs the
// wavefront engine at 1/2/4/8 lanes over an (n, bandwidth) grid matching
// bench_dbr's shapes (plus the n = 2048 paper-direction point the roadmap
// acceptance tracks), then the auto route's serial-vs-wavefront crossover
// at bw = 32 with and without Q, the table kAutoWavefrontMinN and
// kAutoWavefrontMinNValuesOnly are set from.
//
// Rows are [measured] wall clock on this machine; each is mirrored into
// BENCH_bulge.json for the perf-trajectory tooling. The wavefront is
// bitwise-pinned to the serial rotation sequence (ctest label `bulge`), so
// every speedup in this table is free of accuracy caveats — the outputs are
// identical to the last bit.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/bulge/bulge_chasing.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sbr/band.hpp"
#include "src/tensorcore/engine.hpp"

namespace {

using namespace tcevd;

struct Row {
  std::string name;
  double serial_s = 0.0;
  double wave_s[4] = {0.0, 0.0, 0.0, 0.0};  // 1, 2, 4, 8 lanes
};

constexpr int kLaneCounts[4] = {1, 2, 4, 8};

std::vector<Row> g_rows;

void emit(const Row& row) {
  const double s8 = row.wave_s[3] > 0.0 ? row.serial_s / row.wave_s[3] : 0.0;
  std::printf("  %-24s %9.2f ms   wave %8.2f %8.2f %8.2f %8.2f   x%.2f\n", row.name.c_str(),
              row.serial_s * 1e3, row.wave_s[0] * 1e3, row.wave_s[1] * 1e3, row.wave_s[2] * 1e3,
              row.wave_s[3] * 1e3, s8);
  g_rows.push_back(row);
}

Matrix<float> random_band(index_t n, index_t bw, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<float> a(n, n);
  fill_normal(rng, a.view());
  make_symmetric(a.view());
  sbr::truncate_to_band<float>(a.view(), bw);
  return a;
}

void sweep(index_t n, const std::vector<index_t>& bandwidths, bool with_q, ThreadPool& pool) {
  bench::section("band -> tridiagonal, n = " + std::to_string(n) +
                 (with_q ? " (accumulating Q)" : " (eigenvalues only)"));
  tc::Fp32Engine eng;
  Context ctx(eng);
  for (index_t bw : bandwidths) {
    if (bw >= n) continue;
    const auto a = random_band(n, bw, 42 + static_cast<std::uint64_t>(n + bw));
    Matrix<float> q(with_q ? n : 0, with_q ? n : 0);

    Row row;
    row.name = "bulge/n=" + std::to_string(n) + "/bw=" + std::to_string(bw) +
               (with_q ? "/q" : "");

    {
      Matrix<float> qw = q;
      if (with_q) set_identity(qw.view());
      auto qv = qw.view();
      row.serial_s = bench::time_once_s(
          [&] { (void)bulge::bulge_chase<float>(a.view(), bw, with_q ? &qv : nullptr); });
    }
    for (int li = 0; li < 4; ++li) {
      bulge::WavefrontOptions wopt;
      wopt.pool = &pool;
      wopt.max_lanes = kLaneCounts[li];
      {
        // Warm the arena + pool outside the timed run.
        Matrix<float> qw = q;
        if (with_q) set_identity(qw.view());
        auto qv = qw.view();
        (void)bulge::bulge_chase_wavefront<float>(ctx, a.view(), bw,
                                                  with_q ? &qv : nullptr, wopt);
      }
      Matrix<float> qw = q;
      if (with_q) set_identity(qw.view());
      auto qv = qw.view();
      row.wave_s[li] = bench::time_once_s([&] {
        (void)bulge::bulge_chase_wavefront<float>(ctx, a.view(), bw, with_q ? &qv : nullptr,
                                                  wopt);
      });
    }
    emit(row);
  }
  bench::stage_splits(ctx.telemetry());
}

// The auto route's crossover (kAutoWavefrontMinN): the serial chase against
// the wavefront on gemm_pool() capped at four lanes (bulge_threads = 4),
// both through bulge_chase_auto exactly as evd::solve calls it, at the SBR
// bandwidth the solver drivers default to. Median of five runs each.
void crossover(bool with_q) {
  const index_t bw = 32;
  const int lanes = 4;
  bench::section(std::string("auto-route crossover, bw = 32, serial vs 4 lanes") +
                 (with_q ? " (accumulating Q)" : ""));
  tc::Fp32Engine eng;
  Context ctx(eng);
  for (index_t n : {128, 192, 256, 384, 512, 768, 1024}) {
    auto a = random_band(n, bw, 7 + static_cast<std::uint64_t>(n));
    double t[2] = {0.0, 0.0};
    for (int route = 0; route < 2; ++route) {
      const int threads = route == 0 ? 1 : lanes;
      std::vector<double> runs;
      for (int rep = 0; rep < 6; ++rep) {
        Matrix<float> q(with_q ? n : 0, with_q ? n : 0);
        if (with_q) set_identity(q.view());
        auto qv = q.view();
        const double s = bench::time_once_s([&] {
          (void)bulge::bulge_chase_auto<float>(ctx, a.view(), bw, with_q ? &qv : nullptr,
                                               threads);
        });
        if (rep > 0) runs.push_back(s);  // rep 0 warms the arena and the pool
      }
      std::sort(runs.begin(), runs.end());
      t[route] = runs[runs.size() / 2];
    }
    Row row;
    row.name = "crossover/n=" + std::to_string(n) + "/bw=32" + (with_q ? "/q" : "");
    row.serial_s = t[0];
    row.wave_s[2] = t[1];  // the 4-lane column
    std::printf("  %-24s serial %9.2f ms   wave %9.2f ms   x%.2f\n", row.name.c_str(),
                t[0] * 1e3, t[1] * 1e3, t[1] > 0.0 ? t[0] / t[1] : 0.0);
    g_rows.push_back(row);
  }
}

void write_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"seconds\": %.9f, \"wave1_s\": %.9f, "
                 "\"wave2_s\": %.9f, \"wave4_s\": %.9f, \"wave8_s\": %.9f}%s\n",
                 r.name.c_str(), r.serial_s, r.wave_s[0], r.wave_s[1], r.wave_s[2],
                 r.wave_s[3], i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %zu rows to %s\n", g_rows.size(), path);
}

}  // namespace

int main() {
  bench::header("wavefront bulge chasing: serial vs 1/2/4/8-lane thread scaling",
                "DESIGN.md §14; Ringoot et al. 2510.12705, Rodríguez-Sánchez et al. 1709.00302");
  std::printf("  %-24s %12s   %-38s\n", "case", "serial", "wavefront lanes 1 / 2 / 4 / 8");

  const int hw = ThreadPool::hardware_threads();
  if (hw < 8)
    std::printf("\n  NOTE: this machine exposes %d hardware thread%s — lane counts above it\n"
                "  time-slice one core, so wavefront speedups here reflect scheduling\n"
                "  overhead, not the scaling a multicore CI runner or the paper's host\n"
                "  shows. The bitwise-equality guarantee is hardware-independent.\n",
                hw, hw == 1 ? "" : "s");

  ThreadPool pool(7);  // 7 workers + broadcasting caller = up to 8 lanes

  // bench_dbr's grid shapes.
  sweep(256, {4, 8, 16, 32}, /*with_q=*/false, pool);
  sweep(256, {2, 8}, /*with_q=*/true, pool);
  sweep(512, {2, 4, 8, 16, 32}, /*with_q=*/false, pool);
  // The roadmap acceptance point: n >= 2048, bw = 8 (eigenvalues only — the
  // Q accumulation is a dense O(n) row update per rotation and would swamp
  // the chase itself at this size on one core).
  sweep(2048, {2, 8}, /*with_q=*/false, pool);
  crossover(/*with_q=*/false);
  crossover(/*with_q=*/true);

  write_json(bench::out_path("BENCH_bulge.json").c_str());
  return 0;
}
