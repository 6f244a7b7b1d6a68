// Second-stage thread scaling: the serial reference chase against the
// values-only wavefront and the overlapped route (serial chase, Q update on
// packed panels across pool lanes) at 1/2/4/8 lanes over an (n, bandwidth)
// grid matching bench_dbr's shapes (plus the n = 2048 paper-direction
// point), then the Q update alone, then the auto route's crossover at
// bw = 32 with and without Q — the table kAutoWavefrontMinN is set from.
//
// Rows are [measured] wall clock on this machine; each is mirrored into
// BENCH_bulge.json with the rotation kernel level that served it. Both
// parallel routes are bitwise-pinned to the serial rotation sequence (ctest
// label `bulge`), so every speedup in this table is free of accuracy
// caveats — the outputs are identical to the last bit.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/blas/simd_dispatch.hpp"
#include "src/bulge/bulge_chasing.hpp"
#include "src/bulge/bulge_kernels.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/bulge/q_update.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/workspace.hpp"
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
  std::printf("  %-24s %9.2f ms   lanes %8.2f %8.2f %8.2f %8.2f   x%.2f\n", row.name.c_str(),
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

// A dense Q to accumulate into, like the SBR's: an identity Q leaves
// subnormal tails after the first rotations, whose arithmetic the CPU
// microcodes, and times the subnormal path instead of the kernel.
void fill_dense_q(Matrix<float>& q, std::uint64_t seed) {
  Rng rng(seed);
  fill_normal(rng, q.view());
}

// One parallel chase: the wavefront without Q, the overlapped route with Q.
void chase_on_lanes(Context& ctx, const Matrix<float>& a, index_t bw, Matrix<float>* q,
                    ThreadPool& pool, int lanes) {
  if (q == nullptr) {
    bulge::WavefrontOptions wopt;
    wopt.pool = &pool;
    wopt.max_lanes = lanes;
    (void)bulge::bulge_chase_wavefront<float>(ctx, a.view(), bw, wopt);
  } else {
    auto qv = q->view();
    (void)bulge::bulge_chase(ctx, a.view(), bw, &qv, &pool, lanes);
  }
}

void sweep(index_t n, const std::vector<index_t>& bandwidths, bool with_q, ThreadPool& pool) {
  bench::section("band -> tridiagonal, n = " + std::to_string(n) +
                 (with_q ? " (accumulating Q: overlapped route)"
                         : " (eigenvalues only: wavefront)"));
  tc::Fp32Engine eng;
  Context ctx(eng);
  for (index_t bw : bandwidths) {
    if (bw >= n) continue;
    const auto a = random_band(n, bw, 42 + static_cast<std::uint64_t>(n + bw));
    Row row;
    row.name = "bulge/n=" + std::to_string(n) + "/bw=" + std::to_string(bw) +
               (with_q ? "/q" : "");

    {
      Matrix<float> q(n, n);
      fill_dense_q(q, 3);
      auto qv = q.view();
      row.serial_s = bench::time_once_s(
          [&] { (void)bulge::bulge_chase<float>(a.view(), bw, with_q ? &qv : nullptr); });
    }
    for (int li = 0; li < 4; ++li) {
      Matrix<float> q(n, n);
      fill_dense_q(q, 3);
      Matrix<float>* qp = with_q ? &q : nullptr;
      // Warm the arena + pool outside the timed run.
      chase_on_lanes(ctx, a, bw, qp, pool, kLaneCounts[li]);
      fill_dense_q(q, 3);
      row.wave_s[li] =
          bench::time_once_s([&] { chase_on_lanes(ctx, a, bw, qp, pool, kLaneCounts[li]); });
    }
    emit(row);
  }
  bench::stage_splits(ctx.telemetry());
}

// The Q update alone, from logs recorded by one chase: one lane in place on
// Q's strips, or `lanes` lanes claiming packed panels (pack, every diagonal,
// unpack — one broadcast each, as the overlapped route issues them).
struct PanelStep {
  const bulge::QUpdate<float>* qu = nullptr;
  int op = 0;  // 0 pack, 1 apply, 2 unpack
  index_t d = 0;
  std::atomic<index_t> next{0};
  static void lane(void* self, long) {
    auto& st = *static_cast<PanelStep*>(self);
    for (index_t p = st.next.fetch_add(1); p < st.qu->panels(); p = st.next.fetch_add(1)) {
      if (st.op == 0) st.qu->pack(p);
      if (st.op == 1) st.qu->apply(p, st.d);
      if (st.op == 2) st.qu->unpack(p);
    }
  }
};

double q_update_alone(index_t n, index_t bw, int lanes, ThreadPool& pool) {
  const auto a = random_band(n, bw, 5 + static_cast<std::uint64_t>(n));
  Workspace ws;
  Workspace::Scope scope(ws);
  // Record every diagonal's log with one chase.
  const bulge::detail::BandView<float> band = bulge::detail::load_band<float>(a.view(), bw, ws);
  std::vector<std::vector<float>> logs;
  for (index_t d = std::min(bw, n - 1); d >= 2; --d) {
    std::vector<float> log(2 * static_cast<std::size_t>(bulge::detail::diagonal_rotations(n, d)));
    float* sweep_log = log.data();
    for (index_t s = 0; s + d < n; ++s) {
      const index_t len = bulge::detail::sweep_length(n, d, s);
      for (index_t k = 0; k < len; ++k) bulge::detail::chase_elim(band, d, s, k, sweep_log);
      sweep_log += 2 * len;
    }
    logs.push_back(std::move(log));
  }
  Matrix<float> q(n, n);
  std::vector<double> runs;
  for (int rep = 0; rep < 4; ++rep) {
    fill_dense_q(q, 3);
    Workspace::Scope run_scope(ws);
    const bulge::QUpdate<float> qu(q.view(), ws, /*packed=*/lanes > 1);
    const auto broadcast = [&](int op, index_t d) {
      PanelStep st;
      st.qu = &qu;
      st.op = op;
      st.d = d;
      if (!pool.try_broadcast(lanes, &PanelStep::lane, &st)) PanelStep::lane(&st, 0);
    };
    // The logs are copied in outside the timed window.
    double seconds = 0.0;
    if (lanes > 1) seconds += bench::time_once_s([&] { broadcast(0, 0); });
    std::size_t li = 0;
    for (index_t d = std::min(bw, n - 1); d >= 2; --d, ++li) {
      std::copy(logs[li].begin(), logs[li].end(), qu.log(d));
      seconds += bench::time_once_s([&] {
        if (lanes > 1) {
          broadcast(1, d);
        } else {
          qu.apply_in_place(d);
        }
      });
    }
    if (lanes > 1) seconds += bench::time_once_s([&] { broadcast(2, 0); });
    if (rep > 0) runs.push_back(seconds);  // rep 0 warms the pool and the pages
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

void q_update_rows(ThreadPool& pool) {
  bench::section(std::string("Q update alone, bw = 32, wave kernel level ") +
                 blas::simd::active_level_name() + " (median of 3)");
  for (index_t n : {384, 1024}) {
    Row row;
    row.name = "qupdate/n=" + std::to_string(n) + "/bw=32";
    row.serial_s = q_update_alone(n, 32, 1, pool);
    row.wave_s[0] = row.serial_s;
    row.wave_s[2] = q_update_alone(n, 32, 4, pool);
    std::printf("  %-24s 1 lane %9.2f ms   4 lanes %9.2f ms   x%.2f\n", row.name.c_str(),
                row.serial_s * 1e3, row.wave_s[2] * 1e3,
                row.wave_s[2] > 0.0 ? row.serial_s / row.wave_s[2] : 0.0);
    g_rows.push_back(row);
  }
}

// The auto route's crossover: one lane against four on gemm_pool()
// (bulge_threads = 1 vs 4), both through bulge_chase_auto exactly as
// evd::solve calls it, at the SBR bandwidth the solver drivers default to.
// With Q the four lanes are the overlapped route, without Q the wavefront.
// Median of five runs each. Bandwidths clamp to n - 1 at the small sizes.
void crossover(bool with_q) {
  const index_t bw = 32;
  const int lanes = 4;
  bench::section(std::string("auto-route crossover, bw = 32, 1 vs 4 lanes") +
                 (with_q ? " (accumulating Q)" : ""));
  tc::Fp32Engine eng;
  Context ctx(eng);
  for (index_t n : {48, 96, 128, 192, 256, 384, 512, 768, 1024}) {
    auto a = random_band(n, std::min<index_t>(bw, n - 1), 7 + static_cast<std::uint64_t>(n));
    double t[2] = {0.0, 0.0};
    for (int route = 0; route < 2; ++route) {
      const int threads = route == 0 ? 1 : lanes;
      std::vector<double> runs;
      for (int rep = 0; rep < 6; ++rep) {
        Matrix<float> q(with_q ? n : 0, with_q ? n : 0);
        if (with_q) fill_dense_q(q, 3);
        auto qv = q.view();
        const double s = bench::time_once_s([&] {
          (void)bulge::bulge_chase_auto<float>(ctx, a.view(), std::min<index_t>(bw, n - 1),
                                               with_q ? &qv : nullptr, threads);
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
    std::printf("  %-24s 1 lane %9.2f ms   4 lanes %9.2f ms   x%.2f\n", row.name.c_str(),
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
  std::fprintf(f, "{\n  \"kernel_level\": \"%s\",\n  \"benchmarks\": [\n",
               blas::simd::active_level_name());
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
  bench::header("second stage: serial vs 1/2/4/8-lane wavefront and overlapped Q update",
                "DESIGN.md §14; Ringoot et al. 2510.12705, Rodríguez-Sánchez et al. 1709.00302");
  std::printf("  rotation kernels: %s (%s)\n", blas::simd::active_level_name(),
              blas::simd::active_level_reason());
  std::printf("  %-24s %12s   %-38s\n", "case", "serial", "lanes 1 / 2 / 4 / 8");

  const int hw = ThreadPool::hardware_threads();
  if (hw < 8)
    std::printf("\n  NOTE: this process may run on %d hardware thread%s — lane counts above\n"
                "  it time-slice one core, so speedups there reflect scheduling overhead,\n"
                "  not the scaling a wider host shows. The bitwise-equality guarantee is\n"
                "  hardware-independent.\n",
                hw, hw == 1 ? "" : "s");

  ThreadPool pool(7);  // 7 workers + broadcasting caller = up to 8 lanes

  // bench_dbr's grid shapes.
  sweep(256, {4, 8, 16, 32}, /*with_q=*/false, pool);
  sweep(256, {2, 8}, /*with_q=*/true, pool);
  sweep(512, {2, 4, 8, 16, 32}, /*with_q=*/false, pool);
  // The roadmap acceptance point: n >= 2048, bw = 8, eigenvalues only.
  sweep(2048, {2, 8}, /*with_q=*/false, pool);
  {
    ThreadPool q_pool(3);  // 4 lanes with the caller
    q_update_rows(q_pool);
  }
  crossover(/*with_q=*/false);
  crossover(/*with_q=*/true);

  write_json(bench::out_path("BENCH_bulge.json").c_str());
  return 0;
}
