// The three workloads. Each builds its inputs from the seed with matgen,
// computes references, sets up (kSetups times; the last set-up is kept), then
// runs a closed loop for the requested seconds and checks every output.
//
//   eig-values     1 caller, evd::solve values-only, n = 1536 (9 MiB, more
//                  than the 8 MiB L2): reduction GEMMs + DC solver, no Q.
//   eig-vectors    1 caller, evd::solve with vectors + verify=Estimate,
//                  n = 1024: bulge Q update, back-transformation, verify.
//   service-mixed  nproc clients, submit -> wait -> next into one EvdService:
//                  small mixed requests, full and selected, DC and QL.
//
// Traced runs (--trace 1) alternate untraced and traced requests; a traced
// request is followed by a mirror of its layers on the same input (see
// mirror()) so per-layer time is measured from outside the library.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <latch>
#include <memory>
#include <string>
#include <thread>

#include "e2ebench/e2e.hpp"
#include "src/blas/blas.hpp"
#include "src/bulge/bulge_wavefront.hpp"
#include "src/common/context.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/verify.hpp"
#include "src/evd/evd.hpp"
#include "src/evd/service.hpp"
#include "src/lapack/stein.hpp"
#include "src/lapack/tridiag.hpp"
#include "src/perfmodel/a100_model.hpp"
#include "src/sbr/sbr.hpp"
#include "src/tensorcore/engine.hpp"

namespace e2e {

using namespace tcevd;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"eig-values", "eig-vectors", "service-mixed"};
  return names;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

namespace {

constexpr int kSetups = 9;

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}
/// Minimum GEMM dimension below which a GEMM counts as skinny (paper Table 1).
constexpr index_t kSkinnyDim = 64;

struct Input {
  std::string label;  ///< matrix class and size, for failure reports
  Matrix<float> a;
  Reference ref;
};

struct MatrixClass {
  matgen::MatrixType type;
  double cond;
};
constexpr MatrixClass kClasses[3] = {{matgen::MatrixType::Normal, 1.0},
                                     {matgen::MatrixType::Geo, 1e5},
                                     {matgen::MatrixType::Cluster1, 1e5}};

Input make_input(const MatrixClass& c, index_t n, Rng& rng) {
  Input in;
  in.label = matgen::matrix_type_name(c.type, c.cond) + " n=" + std::to_string(n);
  in.a = matgen::generate_f(c.type, n, c.cond, rng);
  in.ref = make_reference(in.a.view(), c.type, c.cond);
  return in;
}

/// One solve's outputs, kept until it is checked.
struct Output {
  std::vector<float> lambda;
  Matrix<float> v;
};

// --- per-layer accounting of the traced run ----------------------------------

struct LayerAcc {
  long mirrored = 0;
  long gemm_calls = 0;
  double gemm_flops = 0.0;
  double skinny_flops = 0.0;
  double a100_s = 0.0;
  double high_water_mb = 0.0;
  /// One recorded SBR GEMM stream per distinct request shape, for replay.
  std::map<std::string, std::vector<tc::GemmShape>> streams;
  std::vector<double> traced_latency_s;
  std::vector<double> queue_s;
  std::vector<double> exec_s;

  void merge(LayerAcc&& o) {
    mirrored += o.mirrored;
    gemm_calls += o.gemm_calls;
    gemm_flops += o.gemm_flops;
    skinny_flops += o.skinny_flops;
    a100_s += o.a100_s;
    high_water_mb = std::max(high_water_mb, o.high_water_mb);
    streams.merge(o.streams);
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(traced_latency_s, o.traced_latency_s);
    append(queue_s, o.queue_s);
    append(exec_s, o.exec_s);
  }
};

/// Re-run the layers of one request on `a` through their public entry
/// points, in the order SolveJob (or solve_selected) calls them, with one
/// span per layer under a "mirror" span. Option derivation follows the
/// solvers: bandwidth clamped to n - 1, big_block raised to the bandwidth.
void mirror(Context& ctx, ConstMatrixView<float> a, const evd::RequestOptions& ro, Tracer& tr,
            int parent, std::uint64_t req, int tid, LayerAcc& acc) {
  const evd::EvdOptions& p = ro.evd;
  Tracer::Scope root(tr, "mirror", parent, req, tid);
  const index_t n = a.rows();
  ++acc.mirrored;
  sbr::SbrOptions sopt;
  sopt.bandwidth = std::min(p.bandwidth, n - 1);
  sopt.big_block = std::max(p.big_block, sopt.bandwidth);
  sopt.panel = p.panel;
  sopt.accumulate_q = p.vectors;
  sopt.lookahead = p.lookahead && p.reduction != evd::Reduction::TwoStageZy;

  ctx.telemetry().clear_recorded();
  ctx.telemetry().set_recording(true);
  StatusOr<sbr::SbrResult> sres = [&] {
    Tracer::Scope s(tr, "sbr", root.id(), req, tid);
    return p.reduction == evd::Reduction::TwoStageDbr ? sbr::sbr_dbr(a, ctx, sopt)
                                                      : sbr::sbr_wy(a, ctx, sopt);
  }();
  ctx.telemetry().set_recording(false);
  const std::vector<tc::GemmShape>& shapes = ctx.telemetry().recorded();
  acc.gemm_calls += static_cast<long>(shapes.size());
  for (const tc::GemmShape& g : shapes) {
    acc.gemm_flops += g.flops();
    if (g.min_dim() < kSkinnyDim) acc.skinny_flops += g.flops();
  }
  acc.a100_s += perf::total_time_s(perf::Device::TensorCore, shapes);
  const std::string key = std::to_string(n) + (p.vectors ? "/q" : "");
  if (acc.streams.find(key) == acc.streams.end()) acc.streams.emplace(key, shapes);
  if (!sres.ok()) return;

  MatrixView<float> qv = sres->q.view();
  bulge::BulgeResult<float> tri;
  {
    Tracer::Scope s(tr, "bulge", root.id(), req, tid);
    tri = bulge::bulge_chase_auto<float>(ctx, sres->band.view(), sopt.bandwidth,
                                         p.vectors ? &qv : nullptr, p.bulge_threads);
  }
  if (ro.selected) {
    const index_t nev = ro.iu - ro.il + 1;
    Matrix<float> z(n, nev);
    Status st;
    {
      Tracer::Scope s(tr, "lapack.partial", root.id(), req, tid);
      std::vector<float> eig = lapack::stebz<float>(tri.d, tri.e, ro.il, ro.iu);
      if (p.vectors) st = lapack::stein<float>(tri.d, tri.e, eig, z.view());
    }
    if (p.vectors && st.ok()) {
      Tracer::Scope s(tr, "backtransform", root.id(), req, tid);
      Matrix<float> x(n, nev);
      blas::gemm<float>(blas::Trans::No, blas::Trans::No, 1.0f, sres->q.view(), z.view(), 0.0f,
                        x.view());
    }
  } else {
    Status st;
    {
      Tracer::Scope s(tr, "lapack.solver", root.id(), req, tid);
      MatrixView<float>* zp = p.vectors ? &qv : nullptr;
      st = p.solver == evd::TriSolver::Ql ? lapack::steqr<float>(tri.d, tri.e, zp)
                                          : lapack::stedc<float>(tri.d, tri.e, zp);
    }
    if (p.verify != verify::Policy::Off && st.ok()) {
      Tracer::Scope s(tr, "verify", root.id(), req, tid);
      verify::Options vopt;
      vopt.probes = p.verify_probes;
      vopt.tol_scale = p.verify_tol_scale;
      if (p.vectors)
        (void)verify::estimate(a, tri.d, sres->q.view(), tc::EngineKind::Tc, vopt);
      else
        (void)verify::estimate_values(a, tri.d, tc::EngineKind::Tc, vopt);
    }
  }
  const double high_water_mb = static_cast<double>(ctx.workspace().high_water_mark()) / 1048576.0;
  acc.high_water_mb = std::max(acc.high_water_mb, high_water_mb);
}

/// GFLOP/s of every recorded SBR GEMM stream replayed once through
/// Context::gemm on random operands: GEMM kernel speed apart from SBR
/// control flow.
double replay_gflops(const std::map<std::string, std::vector<tc::GemmShape>>& streams) {
  index_t mm = 1, nn = 1, kk = 1;
  for (const auto& [key, shapes] : streams)
    for (const tc::GemmShape& g : shapes) {
      mm = std::max(mm, g.m);
      nn = std::max(nn, g.n);
      kk = std::max(kk, g.k);
    }
  Rng rng(7);
  Matrix<float> a(mm, kk), b(kk, nn), c(mm, nn);
  fill_uniform(rng, a.view());
  fill_uniform(rng, b.view());
  tc::TcEngine engine;
  Context ctx(engine);
  double flops = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (const auto& [key, shapes] : streams)
    for (const tc::GemmShape& g : shapes) {
      ctx.gemm(blas::Trans::No, blas::Trans::No, 1.0f, a.sub(0, 0, g.m, g.k),
               b.sub(0, 0, g.k, g.n), 0.0f, c.sub(0, 0, g.m, g.n));
      flops += g.flops();
    }
  const double s = seconds_between(t0, Clock::now());
  return s > 0.0 ? flops / s / 1e9 : 0.0;
}

/// Per-layer metrics from the spans and the accumulated layer counts.
/// `solve_s` is the mean per-request time the mirrored layers should add up
/// to: the evd::solve call, or the service's own step time per request.
void finish_layers(RunResult& out, const Tracer& tr, const LayerAcc& acc, double solve_s,
                   double replay) {
  const std::map<std::string, Tracer::Totals> tot = tr.totals();
  auto get = [&tot](const std::string& name) {
    auto it = tot.find(name);
    return it == tot.end() ? Tracer::Totals{} : it->second;
  };
  const double m = std::max<long>(acc.mirrored, 1);
  auto& L = out.layers;
  const double sbr_s = get("sbr").self_s;
  L["sbr.s"] = sbr_s / m;
  L["sbr.gemm_calls"] = acc.gemm_calls / m;
  L["sbr.gemm_gflop"] = acc.gemm_flops / m / 1e9;
  L["sbr.gflops"] = sbr_s > 0.0 ? acc.gemm_flops / sbr_s / 1e9 : 0.0;
  L["sbr.skinny_flop_share"] = acc.gemm_flops > 0.0 ? acc.skinny_flops / acc.gemm_flops : 0.0;
  L["tensorcore.replay_gflops"] = replay;
  L["perfmodel.a100_s"] = acc.a100_s / m;
  L["bulge.s"] = get("bulge").self_s / m;
  L["lapack.solver_s"] = get("lapack.solver").self_s / m;
  L["lapack.partial_s"] = get("lapack.partial").self_s / m;
  L["backtransform.s"] = get("backtransform").self_s / m;
  L["verify.s"] = get("verify").self_s / m;
  const Tracer::Totals mir = get("mirror");
  const double layers_s = (mir.total_s - mir.self_s) / m;  // time the mirror's children cover
  L["evd.self_s"] = solve_s - layers_s;
  L["trace.unattributed_frac"] = solve_s > 0.0 ? std::abs(solve_s - layers_s) / solve_s : 0.0;
  const double base = percentile(out.latency_s, 50);
  L["trace.overhead_frac"] =
      base > 0.0 ? percentile(acc.traced_latency_s, 50) / base - 1.0 : 0.0;
  L["workspace.high_water_mb"] = acc.high_water_mb;
  L["recovery.events"] = static_cast<double>(out.tally.recovery_events);
  // Client-observed latency minus RequestResult::seconds: the wait before
  // the first stage (plus the client's submit/wait calls), not the waits
  // between stages, which service.stage_wait_ms_mean reports.
  L["service.queue_ms_p50"] = 1e3 * percentile(acc.queue_s, 50);
  // RequestResult::seconds: first stage start to completion, waits between
  // stages included.
  L["service.exec_ms_p50"] = 1e3 * percentile(acc.exec_s, 50);
  L["check.residual_max"] = out.tally.residual_max;
  L["check.orth_max"] = out.tally.orth_max;
}

// --- eig-values / eig-vectors -------------------------------------------------

RunResult run_dense(const Args& args, Tracer* tracer, index_t n, bool vectors) {
  RunResult out;
  evd::EvdOptions opt;
  opt.reduction = evd::Reduction::TwoStageDbr;
  opt.bandwidth = 32;
  opt.big_block = 256;
  opt.solver = evd::TriSolver::DivideConquer;
  opt.vectors = vectors;
  if (vectors) opt.verify = verify::Policy::Estimate;

  Rng rng(args.seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(n));
  std::vector<Input> inputs;
  for (const MatrixClass& c : kClasses) inputs.push_back(make_input(c, n, rng));

  // Outputs are checked after the timed loop; identical outputs of one input
  // are stored (and checked) once.
  struct Record {
    int input = 0;
    bool timed = false;
    std::string error;  ///< non-Ok Status
    std::uint64_t hash = 0;
  };
  std::vector<Record> records;
  std::map<std::pair<int, std::uint64_t>, Output> unchecked;
  auto record = [&](int input, bool timed, StatusOr<evd::EvdResult>& r) {
    Record rec{input, timed, {}, 0};
    if (!r.ok()) {
      rec.error = inputs[static_cast<std::size_t>(input)].label +
                  ": solve failed: " + r.status().to_string();
    } else {
      out.tally.recovery_events += static_cast<long>(r->recovery.size());
      rec.hash = output_hash(r->eigenvalues, r->vectors);
      unchecked.try_emplace({input, rec.hash},
                            Output{std::move(r->eigenvalues), std::move(r->vectors)});
    }
    records.push_back(std::move(rec));
  };

  // Set-up: engine, Context, workspace reserve, one warm-up solve.
  std::unique_ptr<tc::TcEngine> engine;
  std::unique_ptr<Context> ctx;
  for (int k = 0; k < kSetups; ++k) {
    ctx.reset();
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    engine = std::make_unique<tc::TcEngine>(tc::TcPrecision::Fp16);
    ctx = std::make_unique<Context>(*engine);
    ctx->workspace().reserve(evd::workspace_query(n, opt));
    auto r = evd::solve(inputs[0].a.view(), *ctx, opt);
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
    record(0, false, r);
  }

  LayerAcc acc;
  std::unique_ptr<Context> mirror_ctx;
  if (tracer != nullptr) mirror_ctx = std::make_unique<Context>(*engine);
  evd::RequestOptions ro;
  ro.evd = opt;

  reset_peak_rss();
  const Clock::time_point loop_start = Clock::now();
  double measured = 0.0;  // solve time only: checks run after the loop
  long k = 0;
  do {
    // Traced runs pair an untraced solve with a traced one on each input.
    const bool traced = tracer != nullptr && k % 2 == 1;
    const int idx = static_cast<int>((tracer != nullptr ? k / 2 : k) % 3);
    const std::uint64_t req = static_cast<std::uint64_t>(k) + 1;
    int root = -1;
    int solve_span = -1;
    if (traced) {
      root = tracer->begin("request", -1, req, 0);
      solve_span = tracer->begin("evd.solve", root, req, 0);
    }
    const Clock::time_point t0 = Clock::now();
    auto r = evd::solve(inputs[static_cast<std::size_t>(idx)].a.view(), *ctx, opt);
    const double dt = seconds_between(t0, Clock::now());
    if (traced) tracer->end(solve_span);
    measured += dt;
    (traced ? acc.traced_latency_s : out.latency_s).push_back(dt);
    record(idx, true, r);
    if (traced) {
      mirror(*mirror_ctx, inputs[static_cast<std::size_t>(idx)].a.view(), ro, *tracer, root, req,
             0, acc);
      tracer->end(root);
    }
    ++k;
    // Stop only after whole rotations over the inputs, so every run
    // measures the three matrix classes equally often. A traced run counts
    // its mirrors too, so it takes about as long as an untraced one.
  } while ((tracer != nullptr ? seconds_between(loop_start, Clock::now()) : measured) <
               args.seconds ||
           k % (tracer != nullptr ? 6 : 3) != 0);
  out.peak_rss_mb = peak_rss_mb();

  std::map<std::pair<int, std::uint64_t>, Verdict> verdicts;
  for (auto& [key, o] : unchecked) {
    const Input& in = inputs[static_cast<std::size_t>(key.first)];
    verdicts.emplace(key,
                     check_output(in.a.view(), in.ref, 0, o.lambda, vectors ? &o.v : nullptr));
  }
  long completed_ok = 0;
  for (const Record& rec : records) {
    if (!rec.error.empty()) {
      out.tally.fail(rec.error);
      continue;
    }
    const Verdict& v = verdicts.at({rec.input, rec.hash});
    out.tally.add(v, inputs[static_cast<std::size_t>(rec.input)].label);
    if (v.ok && rec.timed) ++completed_ok;
  }
  out.throughput_rps = {static_cast<double>(completed_ok) / measured};
  out.notes = "distinct outputs checked: " + std::to_string(unchecked.size()) + " of " +
              std::to_string(records.size());

  if (tracer != nullptr) {
    acc.high_water_mb = static_cast<double>(ctx->workspace().high_water_mark()) / 1048576.0;
    const double solve_s = tracer->totals()["evd.solve"].total_s /
                           static_cast<double>(std::max<long>(acc.mirrored, 1));
    finish_layers(out, *tracer, acc, solve_s, replay_gflops(acc.streams));
    for (const char* name : {"service.step_ms_mean", "service.stage_wait_ms_mean",
                             "service.pooled_contexts", "service.rejected"})
      out.layers[name] = 0.0;
  }
  return out;
}

// --- service-mixed -----------------------------------------------------------

constexpr index_t kSizes[4] = {48, 96, 192, 384};
constexpr int kPerSize = 6;  ///< matrices per size: two of each class
/// Request modes per matrix: 0 values DC, 1 values QL, 2 vectors DC,
/// 3 vectors QL, 4..7 a selected window of 8..32 eigenpairs with vectors.
constexpr int kModes = 8;

struct Spec {
  int input = 0;
  evd::RequestOptions ro;
  std::string label;  ///< input and request kind, for failure reports
};

/// Seeded request stream of one client. Requests come in shuffled decks with
/// exact proportions, so the mix does not vary from run to run. No recorded
/// traffic exists for this service, so the proportions are an assumption,
/// set by two rules that can be checked:
///  - Sizes: equal total service time per size class. Deck counts are
///    16 * {82, 23, 5, 1} for n = {48, 96, 192, 384} (74/21/4.5/0.9% of
///    requests), inverse to the mean per-request service time over the mode
///    mix below: 1.09, 3.88, 18.3 and 89.6 ms, measured one request at a
///    time through EvdService on a 4-vCPU Intel Xeon VM (ratios
///    1 : 3.55 : 16.8 : 82). Small requests dominate the count, so p50
///    latency follows per-request fixed costs, while each size class takes
///    about a quarter of the workers' time, so throughput moves with every
///    size.
///  - Modes, per size, out of 16: values DC 6, values QL 2, vectors DC 3,
///    vectors QL 1, selected window 4. That is half of the requests with
///    vectors and a quarter selected windows, as the workload is defined;
///    its "some QL" is read as a quarter of the full requests.
/// Matrix and window are drawn per request.
class RequestDeck {
 public:
  explicit RequestDeck(std::uint64_t seed) : rng_(seed) {
    constexpr int kUnits[4] = {82, 23, 5, 1};     // per size, in units of 16
    constexpr int kPerMode[5] = {6, 2, 3, 1, 4};  // modes 0, 1, 2, 3, 4..7
    for (int size = 0; size < 4; ++size)
      for (int mode = 0; mode < 5; ++mode)
        deck_.insert(deck_.end(), static_cast<std::size_t>(kUnits[size] * kPerMode[mode]),
                     size * 5 + mode);
    next_ = deck_.size();
  }

  /// Spec id: (size * kPerSize + matrix) * kModes + mode.
  int draw() {
    if (next_ == deck_.size()) {
      for (std::size_t i = deck_.size() - 1; i > 0; --i)
        std::swap(deck_[i], deck_[rng_.next_u64() % (i + 1)]);
      next_ = 0;
    }
    const int size = deck_[next_] / 5;
    int mode = deck_[next_++] % 5;
    if (mode == 4) mode += static_cast<int>(rng_.next_u64() % 4);
    const int matrix = static_cast<int>(rng_.next_u64() % kPerSize);
    return (size * kPerSize + matrix) * kModes + mode;
  }

 private:
  Rng rng_;
  std::vector<int> deck_;
  std::size_t next_ = 0;
};

RunResult run_service(const Args& args, Tracer* tracer) {
  RunResult out;
  Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 0x5e41ce);
  std::vector<Input> inputs;
  std::vector<Spec> specs;
  for (index_t n : kSizes)
    for (int m = 0; m < kPerSize; ++m) {
      const int input = static_cast<int>(inputs.size());
      inputs.push_back(make_input(kClasses[m % 3], n, rng));
      for (int mode = 0; mode < kModes; ++mode) {
        Spec s;
        s.input = input;
        s.ro.evd.solver = (mode == 1 || mode == 3) ? evd::TriSolver::Ql
                                                   : evd::TriSolver::DivideConquer;
        s.ro.evd.vectors = mode >= 2;
        if (mode >= 4) {
          const index_t len = std::min<index_t>(n, 8 + static_cast<index_t>(rng.next_u64() % 25));
          s.ro.selected = true;
          s.ro.il = static_cast<index_t>(rng.next_u64() % static_cast<std::uint64_t>(n - len + 1));
          s.ro.iu = s.ro.il + len - 1;
        }
        s.label = inputs.back().label + ", " +
                  (s.ro.selected ? "selected [" + std::to_string(s.ro.il) + ", " +
                                       std::to_string(s.ro.iu) + "]"
                   : s.ro.evd.vectors ? "vectors"
                                      : "values");
        if (s.ro.evd.solver == evd::TriSolver::Ql) s.label += " QL";
        specs.push_back(s);
      }
    }

  VerdictCache cache;
  // Checks one service result (through the cache) into `tally`; true when ok.
  auto check = [&](int spec_id, evd::RequestResult& res, Tally& tally) {
    const Spec& s = specs[static_cast<std::size_t>(spec_id)];
    tally.recovery_events += static_cast<long>(res.recovery.size());
    if (!res.status.ok()) {
      tally.fail(s.label + ": request failed: " + res.status.to_string());
      return false;
    }
    const std::uint64_t hash = output_hash(res.eigenvalues, res.vectors);
    std::optional<Verdict> v = cache.find(static_cast<std::uint64_t>(spec_id), hash);
    if (!v) {
      const Input& in = inputs[static_cast<std::size_t>(s.input)];
      v = check_output(in.a.view(), in.ref, s.ro.selected ? s.ro.il : 0, res.eigenvalues,
                       s.ro.evd.vectors ? &res.vectors : nullptr);
      cache.store(static_cast<std::uint64_t>(spec_id), hash, *v);
    }
    tally.add(*v, s.label);
    return v->ok;
  };
  auto run_all = [&](evd::EvdService& service, const std::vector<int>& ids) {
    std::vector<std::pair<int, StatusOr<evd::RequestId>>> submitted;
    for (int id : ids) {
      const Spec& s = specs[static_cast<std::size_t>(id)];
      submitted.emplace_back(
          id, service.submit(inputs[static_cast<std::size_t>(s.input)].a.view(), s.ro));
    }
    for (auto& [id, rid] : submitted) {
      if (!rid.ok()) {
        out.tally.fail("submit failed: " + rid.status().to_string());
        continue;
      }
      evd::RequestResult res = service.wait(*rid);
      check(id, res, out.tally);
    }
  };

  // Set-up: engine, service, one warm-up request per size (full, vectors).
  std::vector<int> warmup;
  for (int size = 0; size < 4; ++size) warmup.push_back(size * kPerSize * kModes + 2);
  std::unique_ptr<tc::TcEngine> engine;
  std::unique_ptr<evd::EvdService> service;
  for (int k = 0; k < kSetups; ++k) {
    service.reset();
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    engine = std::make_unique<tc::TcEngine>(tc::TcPrecision::Fp16);
    service = std::make_unique<evd::EvdService>(*engine);
    run_all(*service, warmup);
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  // Every distinct request once, so its output is checked before the clock
  // runs; the timed loop then only hashes outputs it has already seen.
  std::vector<int> all(specs.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  run_all(*service, all);

  const int clients = ThreadPool::hardware_threads();
  struct Client {
    Tally tally;
    std::vector<double> latency_s;
    std::vector<double> ok_at_s;  ///< completion times of OK requests, since start
    LayerAcc acc;
  };
  std::vector<Client> per(static_cast<std::size_t>(clients));
  std::latch ready(clients + 1);
  Clock::time_point start;
  std::latch go(1);

  auto client_loop = [&](int c) {
    Client& me = per[static_cast<std::size_t>(c)];
    RequestDeck deck(args.seed * 0x2545f4914f6cdd1dull + static_cast<std::uint64_t>(c) + 1);
    std::unique_ptr<ThreadPool> mirror_pool;
    std::unique_ptr<Context> mirror_ctx;
    if (tracer != nullptr) {
      // Service stages run on pool workers, where GEMMs and the bulge chase
      // stay serial; mirror the layers in the same setting.
      mirror_pool = std::make_unique<ThreadPool>(1);
      mirror_ctx = std::make_unique<Context>(*engine);
    }
    ready.count_down();
    go.wait();
    const Clock::time_point deadline = start + to_duration(args.seconds);
    for (long k = 0; Clock::now() < deadline; ++k) {
      const int id = deck.draw();
      const Spec& s = specs[static_cast<std::size_t>(id)];
      const Input& in = inputs[static_cast<std::size_t>(s.input)];
      const bool traced = tracer != nullptr && k % 2 == 1;
      const std::uint64_t req =
          (static_cast<std::uint64_t>(c) << 32) | static_cast<std::uint64_t>(k + 1);
      int root = -1;
      int call = -1;
      if (traced) {
        root = tracer->begin("request", -1, req, c);
        call = tracer->begin("service.request", root, req, c);
      }
      const Clock::time_point t0 = Clock::now();
      StatusOr<evd::RequestId> rid = service->submit(in.a.view(), s.ro);
      if (!rid.ok()) {
        me.tally.fail("submit failed: " + rid.status().to_string());
        if (traced) {
          tracer->end(call);
          tracer->end(root);
        }
        continue;
      }
      evd::RequestResult res = service->wait(*rid);
      const Clock::time_point t1 = Clock::now();
      if (traced) {
        tracer->end(call);
        // RequestResult::seconds runs from the first stage's start to
        // completion, waits between stages included; place it at the end of
        // the client-observed call.
        tracer->add("service.first_stage_to_done", call, req, c, t1 - to_duration(res.seconds),
                    t1);
      }
      const double lat = seconds_between(t0, t1);
      (traced ? me.acc.traced_latency_s : me.latency_s).push_back(lat);
      if (check(id, res, me.tally)) me.ok_at_s.push_back(seconds_between(start, t1));
      if (tracer != nullptr) {
        me.acc.queue_s.push_back(lat - res.seconds);
        me.acc.exec_s.push_back(res.seconds);
      }
      if (traced) {
        mirror_pool->submit([&, root, req, c] {
          mirror(*mirror_ctx, in.a.view(), s.ro, *tracer, root, req, c, me.acc);
        });
        mirror_pool->wait_idle();
        tracer->end(root);
      }
    }
  };

  // The service's own step time (service.stage.* totals, waits excluded) over
  // the timed window: what the mirrored layers of a request should add up to.
  auto step_seconds = [&service] {
    double total = 0.0;
    const Telemetry snapshot = service->telemetry_snapshot();
    for (const Telemetry::StageStat& st : snapshot.stages())
      if (st.name.rfind("service.stage.", 0) == 0) total += st.seconds;
    return total;
  };
  const double step_before = tracer != nullptr ? step_seconds() : 0.0;
  const long completed_before = service->stats().completed;

  reset_peak_rss();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
  ready.arrive_and_wait();
  start = Clock::now();
  go.count_down();
  for (std::thread& t : threads) t.join();
  // Throughput per window of the timed span; completions after the
  // deadline (requests in flight when it passed) are not counted.
  constexpr int kWindows = 8;
  std::vector<long> window_ok(kWindows, 0);
  LayerAcc acc;
  for (Client& me : per) {
    out.tally.merge(me.tally);
    out.latency_s.insert(out.latency_s.end(), me.latency_s.begin(), me.latency_s.end());
    for (double t : me.ok_at_s)
      if (t < args.seconds)
        ++window_ok[std::min<std::size_t>(kWindows - 1,
                                          static_cast<std::size_t>(t / args.seconds * kWindows))];
    acc.merge(std::move(me.acc));
  }
  out.peak_rss_mb = peak_rss_mb();
  const evd::ServiceStats stats = service->stats();
  out.notes = "clients " + std::to_string(clients) + ", service workers " +
              std::to_string(stats.num_threads) + ", distinct requests " +
              std::to_string(specs.size()) + "; OK requests/s per window:";
  for (long count : window_ok) {
    out.throughput_rps.push_back(static_cast<double>(count) * kWindows / args.seconds);
    out.notes += " " + std::to_string(static_cast<long>(out.throughput_rps.back()));
  }

  if (tracer != nullptr) {
    double replay = 0.0;
    ThreadPool replay_pool(1);
    replay_pool.submit([&] { replay = replay_gflops(acc.streams); });
    replay_pool.wait_idle();
    const long completed = std::max(stats.completed - completed_before, 1L);
    const double step_s = (step_seconds() - step_before) / static_cast<double>(completed);
    finish_layers(out, *tracer, acc, step_s, replay);
    double exec_sum = 0.0;
    for (double e : acc.exec_s) exec_sum += e;
    const double exec_mean =
        acc.exec_s.empty() ? 0.0 : exec_sum / static_cast<double>(acc.exec_s.size());
    out.layers["service.step_ms_mean"] = 1e3 * step_s;
    out.layers["service.stage_wait_ms_mean"] = 1e3 * (exec_mean - step_s);
    out.layers["service.pooled_contexts"] = static_cast<double>(stats.pooled_contexts);
    out.layers["service.rejected"] = static_cast<double>(stats.rejected);
  }
  return out;
}

}  // namespace

RunResult run_workload(const Args& args, Tracer* tracer) {
  if (args.workload == "eig-values") return run_dense(args, tracer, 1536, false);
  if (args.workload == "eig-vectors") return run_dense(args, tracer, 1024, true);
  return run_service(args, tracer);
}

}  // namespace e2e
