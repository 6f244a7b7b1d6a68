// Detached Band Reduction (sbr_dbr): decoupled bandwidth b vs accumulation
// blocksize nb.
//
// Pins the three contracts the DBR refactor rests on: (1) b == nb is
// bitwise identical to sbr_wy (band AND accumulated WY blocks), (2) b < nb
// produces a correct narrow band whose trailing-update GEMMs carry inner
// dimension nb, and (3) option validation is explicit — b > nb is an
// InvalidArgument Status, a non-multiple nb is rounded down with a recovery
// note, never a silent clamp.  (ctest label: dbr)
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/blas/blas.hpp"
#include "src/bulge/bulge_chasing.hpp"
#include "src/bulge/bulge_kernels.hpp"
#include "src/common/context.hpp"
#include "src/common/norms.hpp"
#include "src/common/recovery.hpp"
#include "src/common/workspace.hpp"
#include "src/evd/evd.hpp"
#include "src/lapack/sytrd.hpp"
#include "src/lapack/tridiag.hpp"
#include "src/perfmodel/shape_trace.hpp"
#include "src/sbr/band.hpp"
#include "src/sbr/sbr.hpp"
#include "test_util.hpp"

namespace tcevd {
namespace {

using blas::Trans;
using sbr::SbrOptions;

/// Reference eigenvalues of a float symmetric matrix, computed in double.
std::vector<double> reference_eigs(ConstMatrixView<float> a) {
  const index_t n = a.rows();
  Matrix<double> ad(n, n);
  convert_matrix<float, double>(a, ad.view());
  std::vector<double> d, e, tau;
  lapack::sytrd(ad.view(), d, e, tau);
  TCEVD_CHECK(lapack::sterf(d, e).ok(), "sterf reference failed");
  return d;
}

/// ||A - Q B Q^T||_F / ||A||_F computed in double.
double backward_error(ConstMatrixView<float> a, ConstMatrixView<float> q,
                      ConstMatrixView<float> b) {
  const index_t n = a.rows();
  Matrix<double> ad(n, n), qd(n, n), bd(n, n);
  convert_matrix<float, double>(a, ad.view());
  convert_matrix<float, double>(q, qd.view());
  convert_matrix<float, double>(b, bd.view());
  Matrix<double> t(n, n), qbqt(n, n);
  blas::gemm(Trans::No, Trans::No, 1.0, qd.view(), bd.view(), 0.0, t.view());
  blas::gemm(Trans::No, Trans::Yes, 1.0, t.view(), qd.view(), 0.0, qbqt.view());
  return frobenius_diff<double>(qbqt.view(), ad.view()) / frobenius_norm<double>(ad.view());
}

bool has_site(const RecoveryLog& log, const std::string& site) {
  for (const RecoveryEvent& ev : log)
    if (ev.site == site) return true;
  return false;
}

// ---------------------------------------------------------------------------
// b == nb: bitwise identity with sbr_wy across the existing shape matrix.
// ---------------------------------------------------------------------------

struct BitwiseCase {
  index_t n, b;
  bool cache_oa;
  bool lookahead;
};

class DbrBitwiseTest : public ::testing::TestWithParam<BitwiseCase> {};

TEST_P(DbrBitwiseTest, EqualsWySbrAtEqualBlocksizes) {
  const auto p = GetParam();
  auto a = test::random_symmetric<float>(p.n, 500 + p.n + p.b);
  SbrOptions opt;
  opt.bandwidth = p.b;
  opt.big_block = p.b;  // the degenerate configuration the refactor must pin
  opt.wy_cache_oa_product = p.cache_oa;
  opt.lookahead = p.lookahead;

  for (int eng_kind = 0; eng_kind < 2; ++eng_kind) {
    tc::Fp32Engine fp32;
    tc::TcEngine tcq(tc::TcPrecision::Fp16);
    tc::GemmEngine& eng = eng_kind == 0 ? static_cast<tc::GemmEngine&>(fp32)
                                        : static_cast<tc::GemmEngine&>(tcq);
    Context cw(eng), cd(eng);
    auto rw = *sbr::sbr_wy(a.view(), cw, opt);
    auto rd = *sbr::sbr_dbr(a.view(), cd, opt);

    for (index_t j = 0; j < p.n; ++j)
      for (index_t i = 0; i < p.n; ++i)
        ASSERT_EQ(rw.band(i, j), rd.band(i, j))
            << "band mismatch at (" << i << ", " << j << "), engine " << eng.name();

    ASSERT_EQ(rw.blocks.size(), rd.blocks.size());
    for (std::size_t k = 0; k < rw.blocks.size(); ++k) {
      ASSERT_EQ(rw.blocks[k].row_offset, rd.blocks[k].row_offset);
      const auto& w1 = rw.blocks[k].w;
      const auto& w2 = rd.blocks[k].w;
      const auto& y1 = rw.blocks[k].y;
      const auto& y2 = rd.blocks[k].y;
      ASSERT_EQ(w1.rows(), w2.rows());
      ASSERT_EQ(w1.cols(), w2.cols());
      for (index_t j = 0; j < w1.cols(); ++j)
        for (index_t i = 0; i < w1.rows(); ++i) {
          ASSERT_EQ(w1(i, j), w2(i, j)) << "W block " << k;
          ASSERT_EQ(y1(i, j), y2(i, j)) << "Y block " << k;
        }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DbrBitwiseTest,
    ::testing::Values(BitwiseCase{96, 8, true, false}, BitwiseCase{96, 8, false, false},
                      BitwiseCase{130, 16, true, false}, BitwiseCase{64, 4, true, false},
                      BitwiseCase{100, 8, true, true},  // look-ahead works at b == nb
                      BitwiseCase{33, 16, true, false},  // tiny trailing
                      BitwiseCase{120, 32, false, true}));

// ---------------------------------------------------------------------------
// b < nb: narrow-band correctness (the point of DBR).
// ---------------------------------------------------------------------------

struct NarrowCase {
  index_t n, b, nb;
};

class DbrNarrowBandTest : public ::testing::TestWithParam<NarrowCase> {};

TEST_P(DbrNarrowBandTest, ReducesToNarrowBandBackwardStably) {
  const auto p = GetParam();
  auto a = test::random_symmetric<float>(p.n, 700 + p.n + p.b + p.nb);
  SbrOptions opt;
  opt.bandwidth = p.b;
  opt.big_block = p.nb;
  opt.accumulate_q = true;
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto res = *sbr::sbr_dbr(a.view(), ctx, opt);

  EXPECT_EQ(sbr::band_violation<float>(res.band.view(), p.b), 0.0);
  EXPECT_LT(orthogonality_error<float>(res.q.view()), 1e-6);
  EXPECT_LT(backward_error(a.view(), res.q.view(), res.band.view()), 1e-5);

  auto ref = reference_eigs(a.view());
  auto got = reference_eigs(ConstMatrixView<float>(res.band.view()));
  EXPECT_LT(eigenvalue_error(ref.data(), got.data(), p.n) * p.n, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    NarrowBands, DbrNarrowBandTest,
    ::testing::Values(NarrowCase{97, 1, 16},   // prime n, minimal band
                      NarrowCase{97, 2, 16}, NarrowCase{101, 3, 24},  // nb = 8b, odd n
                      NarrowCase{64, 2, 32}, NarrowCase{96, 8, 32},
                      NarrowCase{130, 16, 32},  // non-multiple n
                      NarrowCase{48, 4, 48}));  // single big block spans everything

// ---------------------------------------------------------------------------
// Option validation (satellite: no silent clamps).
// ---------------------------------------------------------------------------

TEST(DbrTelemetry, SubStagesNestInsideTheDbrStage) {
  // The layer split of a DBR reduction comes from committed timers: the
  // panel (TSQR + WY reconstruction), the in-block skinny GEMMs and Q's
  // formation each record a stage inside sbr.dbr, so together they cannot
  // exceed it.
  auto a = test::random_symmetric<float>(160, 17);
  tc::TcEngine eng;
  Context ctx(eng);
  SbrOptions opt;
  opt.bandwidth = 8;
  opt.big_block = 32;
  opt.accumulate_q = true;
  ASSERT_TRUE(sbr::sbr_dbr(a.view(), ctx, opt).ok());
  const Telemetry& t = ctx.telemetry();
  const double total = t.stage_seconds("sbr.dbr");
  double parts = 0.0;
  for (const char* stage : {"sbr.dbr.panel", "sbr.dbr.inner", "sbr.form_q"}) {
    EXPECT_GT(t.stage_seconds(stage), 0.0) << stage << " was not recorded";
    parts += t.stage_seconds(stage);
  }
  EXPECT_GT(total, 0.0);
  EXPECT_LE(parts, total);
}

TEST(DbrOptions, BigBlockBelowBandwidthIsInvalidArgument) {
  auto a = test::random_symmetric<float>(64, 3);
  tc::Fp32Engine eng;
  Context ctx(eng);
  SbrOptions opt;
  opt.bandwidth = 16;
  opt.big_block = 8;  // b > nb: rejected, never silently raised
  for (int variant = 0; variant < 2; ++variant) {
    auto res = variant == 0 ? sbr::sbr_wy(a.view(), ctx, opt)
                            : sbr::sbr_dbr(a.view(), ctx, opt);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), ErrorCode::InvalidArgument);
    EXPECT_FALSE(is_recoverable(res.status()));
  }
}

TEST(DbrOptions, BandwidthOutOfRangeIsInvalidArgument) {
  auto a = test::random_symmetric<float>(8, 5);
  tc::Fp32Engine eng;
  Context ctx(eng);
  SbrOptions opt;
  opt.bandwidth = 8;  // must be < n
  opt.big_block = 8;
  auto r1 = sbr::sbr_wy(a.view(), ctx, opt);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), ErrorCode::InvalidArgument);
  auto r2 = sbr::sbr_zy(a.view(), ctx, opt);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), ErrorCode::InvalidArgument);

  opt.bandwidth = 0;
  auto r3 = sbr::sbr_dbr(a.view(), ctx, opt);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), ErrorCode::InvalidArgument);
}

TEST(DbrOptions, NonMultipleBigBlockRoundsDownWithNote) {
  const index_t n = 60;
  auto a = test::random_symmetric<float>(n, 7);
  tc::Fp32Engine eng;
  Context c1(eng), c2(eng);
  SbrOptions opt;
  opt.bandwidth = 3;
  opt.big_block = 10;  // not a multiple: rounds down to 9, with a note

  recovery::Scope scope;
  auto r1 = *sbr::sbr_dbr(a.view(), c1, opt);
  RecoveryLog log = scope.take();
  EXPECT_TRUE(has_site(log, "sbr.options"));

  opt.big_block = 9;
  auto r2 = *sbr::sbr_dbr(a.view(), c2, opt);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      ASSERT_EQ(r1.band(i, j), r2.band(i, j)) << "rounded nb must equal explicit nb";
}

TEST(DbrOptions, ValidateOptionsNormalizes) {
  SbrOptions opt;
  opt.bandwidth = 4;
  opt.big_block = 30;
  auto v = sbr::validate_options(opt, 64);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->big_block, 28);
  EXPECT_EQ(v->bandwidth, 4);

  opt.big_block = 2;
  EXPECT_EQ(sbr::validate_options(opt, 64).status().code(), ErrorCode::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Trailing-update GEMM shapes: k = nb, pinned call-for-call by the tracer.
// ---------------------------------------------------------------------------

TEST(DbrShapes, TrailingUpdateGemmsCarryKEqualNb) {
  const index_t n = 96, b = 8, nb = 32;
  auto a = test::random_symmetric<float>(n, 11);
  tc::Fp32Engine eng;
  Context ctx(eng);
  ctx.telemetry().set_recording(true);
  SbrOptions opt;
  opt.bandwidth = b;
  opt.big_block = nb;
  (void)sbr::sbr_dbr(a.view(), ctx, opt);

  const auto& rec = ctx.telemetry().recorded();
  // The rank-2k trailing GEMMs are square (tw x tw) with inner dimension nb.
  int rank2k = 0;
  for (const auto& s : rec)
    if (s.m == s.n && s.k == nb && s.m > nb) ++rank2k;
  EXPECT_GE(rank2k, 2) << "no (tw x tw, k = nb) trailing updates recorded";
}

class DbrTraceTest
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {};

TEST_P(DbrTraceTest, TraceMatchesImplementation) {
  const auto [n, b, nb] = GetParam();
  auto a = test::random_symmetric<float>(n, 910 + n);
  for (bool cache_oa : {false, true}) {
    tc::Fp32Engine eng;
    Context ctx(eng);
    ctx.telemetry().set_recording(true);
    SbrOptions opt;
    opt.bandwidth = b;
    opt.big_block = nb;
    opt.wy_cache_oa_product = cache_oa;
    (void)sbr::sbr_dbr(a.view(), ctx, opt);
    const auto traced = perf::trace_sbr_dbr(n, b, nb, cache_oa);
    const auto& recorded = ctx.telemetry().recorded();
    ASSERT_EQ(traced.size(), recorded.size()) << "cache_oa = " << cache_oa;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      EXPECT_EQ(traced[i].m, recorded[i].m) << "call " << i;
      EXPECT_EQ(traced[i].n, recorded[i].n) << "call " << i;
      EXPECT_EQ(traced[i].k, recorded[i].k) << "call " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DbrTraceTest,
    ::testing::Values(std::make_tuple<index_t, index_t, index_t>(96, 8, 32),
                      std::make_tuple<index_t, index_t, index_t>(130, 16, 32),
                      std::make_tuple<index_t, index_t, index_t>(97, 2, 16),
                      std::make_tuple<index_t, index_t, index_t>(100, 8, 8),  // b == nb
                      std::make_tuple<index_t, index_t, index_t>(120, 8, 64)));

TEST(DbrShapes, TcSyr2kVariantSkipsEngineForTheRank2k) {
  const index_t n = 96, b = 8, nb = 32;
  auto a = test::random_symmetric<float>(n, 13);
  tc::TcEngine eng(tc::TcPrecision::Fp16);
  Context ctx(eng);
  ctx.telemetry().set_recording(true);
  SbrOptions opt;
  opt.bandwidth = b;
  opt.big_block = nb;
  opt.dbr_use_tc_syr2k = true;
  auto res = *sbr::sbr_dbr(a.view(), ctx, opt);
  EXPECT_EQ(sbr::band_violation<float>(res.band.view(), b), 0.0);

  const auto traced = perf::trace_sbr_dbr(n, b, nb, /*cache_oa=*/true,
                                          /*use_tc_syr2k=*/true);
  const auto& recorded = ctx.telemetry().recorded();
  ASSERT_EQ(traced.size(), recorded.size());
  for (std::size_t i = 0; i < traced.size(); ++i) {
    EXPECT_EQ(traced[i].m, recorded[i].m) << "call " << i;
    EXPECT_EQ(traced[i].n, recorded[i].n) << "call " << i;
    EXPECT_EQ(traced[i].k, recorded[i].k) << "call " << i;
  }
}

TEST(DbrShapes, TcSyr2kVariantMatchesTwoGemmNumerics) {
  const index_t n = 96, b = 8, nb = 32;
  auto a = test::random_symmetric<float>(n, 17);
  tc::TcEngine e1(tc::TcPrecision::Fp16), e2(tc::TcPrecision::Fp16);
  SbrOptions two_gemm;
  two_gemm.bandwidth = b;
  two_gemm.big_block = nb;
  SbrOptions syr2k = two_gemm;
  syr2k.dbr_use_tc_syr2k = true;
  Context c1(e1), c2(e2);
  auto r1 = *sbr::sbr_dbr(a.view(), c1, two_gemm);
  auto r2 = *sbr::sbr_dbr(a.view(), c2, syr2k);
  // Same fp16-operand/fp32-accumulate numerics, different tile walk: agree
  // to TC roundoff.
  EXPECT_LT(test::rel_diff<float>(r1.band.view(), r2.band.view()), 1e-2);
}

// ---------------------------------------------------------------------------
// Look-ahead: unsupported for b < nb, noted + serial.
// ---------------------------------------------------------------------------

TEST(DbrLookahead, RequestFallsBackToSerialWithNote) {
  const index_t n = 100, b = 4, nb = 32;
  auto a = test::random_symmetric<float>(n, 19);
  tc::Fp32Engine eng;
  Context c1(eng), c2(eng);
  SbrOptions serial;
  serial.bandwidth = b;
  serial.big_block = nb;
  SbrOptions overlapped = serial;
  overlapped.lookahead = true;

  auto r1 = *sbr::sbr_dbr(a.view(), c1, serial);
  recovery::Scope scope;
  auto r2 = *sbr::sbr_dbr(a.view(), c2, overlapped);
  RecoveryLog log = scope.take();
  EXPECT_TRUE(has_site(log, "sbr.dbr")) << "silent look-ahead downgrade";

  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) ASSERT_EQ(r1.band(i, j), r2.band(i, j));
}

// ---------------------------------------------------------------------------
// Narrow DBR bands through the second stage.
// ---------------------------------------------------------------------------

TEST(DbrBandStorage, NarrowBandRoundTripAndChase) {
  const index_t n = 97;  // prime
  for (index_t b : {index_t{1}, index_t{2}, index_t{3}}) {
    auto a = test::random_symmetric<float>(n, 23 + b);
    SbrOptions opt;
    opt.bandwidth = b;
    opt.big_block = 12;
    tc::Fp32Engine eng;
    Context ctx(eng);
    auto res = *sbr::sbr_dbr(a.view(), ctx, opt);

    // Compact storage holds every in-band entry of the narrow band.
    Workspace ws;
    auto band = bulge::detail::load_band<float>(res.band.view(), b, ws);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = j; i < std::min(n, j + b + 1); ++i)
        ASSERT_EQ(band(i, j), res.band(i, j)) << "(" << i << ", " << j << ")";

    // The compact chase reproduces the spectrum of the band.
    auto tri = bulge::bulge_chase<float>(res.band.view(), b, nullptr);
    Matrix<float> t(n, n);
    for (index_t i = 0; i < n; ++i) {
      t(i, i) = tri.d[static_cast<std::size_t>(i)];
      if (i + 1 < n) {
        t(i + 1, i) = tri.e[static_cast<std::size_t>(i)];
        t(i, i + 1) = tri.e[static_cast<std::size_t>(i)];
      }
    }
    auto ref = reference_eigs(ConstMatrixView<float>(res.band.view()));
    auto got = reference_eigs(ConstMatrixView<float>(t.view()));
    EXPECT_LT(eigenvalue_error(ref.data(), got.data(), n) * n, 1e-4) << "b = " << b;
  }
}

TEST(DbrBandStorage, ExtractTridiagonalIsTheBw1SecondStage) {
  const index_t n = 33;
  auto a = test::random_symmetric<float>(n, 29);
  SbrOptions opt;
  opt.bandwidth = 1;
  opt.big_block = 8;
  tc::Fp32Engine eng;
  Context ctx(eng);
  auto res = *sbr::sbr_dbr(a.view(), ctx, opt);

  auto tri = bulge::bulge_chase<float>(res.band.view(), 1, nullptr);
  ASSERT_EQ(tri.d.size(), static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(tri.d[static_cast<std::size_t>(i)], res.band(i, i));
    if (i + 1 < n) {
      EXPECT_EQ(tri.e[static_cast<std::size_t>(i)], res.band(i + 1, i));
    }
  }
}

// ---------------------------------------------------------------------------
// Full pipeline: evd::solve with Reduction::TwoStageDbr.
// ---------------------------------------------------------------------------

TEST(DbrEvd, VerifyGatePassesOnAllEngines) {
  const index_t n = 64;
  auto a = test::random_symmetric<float>(n, 31);
  tc::Fp32Engine fp32;
  tc::TcEngine tcq(tc::TcPrecision::Fp16);
  tc::EcTcEngine ectc(tc::TcPrecision::Fp16);
  tc::GemmEngine* engines[] = {&fp32, &tcq, &ectc};

  for (tc::GemmEngine* eng : engines) {
    Context ctx(*eng);
    ctx.telemetry().set_recording(true);
    evd::EvdOptions opt;
    opt.reduction = evd::Reduction::TwoStageDbr;
    opt.bandwidth = 4;
    opt.big_block = 32;
    opt.vectors = true;
    opt.verify = verify::Policy::Estimate;
    auto res = *evd::solve(a.view(), ctx, opt);
    ASSERT_TRUE(res.converged) << eng->name();
    EXPECT_TRUE(res.verify.checked) << eng->name();
    EXPECT_TRUE(res.verify.passed)
        << eng->name() << ": residual " << res.verify.residual << " orth "
        << res.verify.orthogonality;

    // Acceptance: the recorded trailing updates carry k = nb.
    int k_nb = 0;
    for (const auto& s : ctx.telemetry().recorded())
      if (s.k == 32 && s.m == s.n && s.m >= 32) ++k_nb;
    EXPECT_GE(k_nb, 1) << eng->name();
  }
}

TEST(DbrEvd, NarrowBandVectorsTakeNoSecondStageNote) {
  // With vectors the narrow DBR band is chased on compact storage like any
  // other band, and no second-stage downgrade is reported.
  const index_t n = 48;
  auto a = test::random_symmetric<float>(n, 41);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.reduction = evd::Reduction::TwoStageDbr;
  opt.bandwidth = 2;
  opt.big_block = 16;
  opt.vectors = true;
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_FALSE(has_site(res.recovery, "evd.second_stage"));
  EXPECT_LT(evd::eigenpair_residual(a.view(), res.eigenvalues,
                                    ConstMatrixView<float>(res.vectors.view())),
            1e-4);
}

TEST(DbrEvd, BigBlockBelowBandwidthIsNotedAndRaised) {
  // EvdOptions defaults can be outgrown by a large bandwidth; the driver
  // raises nb to b but must surface the adjustment instead of silently
  // mutating the request (the SBR layer itself rejects nb < b outright).
  const index_t n = 96;
  auto a = test::random_symmetric<float>(n, 43);
  tc::Fp32Engine eng;
  Context ctx(eng);
  evd::EvdOptions opt;
  opt.bandwidth = 48;
  opt.big_block = 16;
  auto res = *evd::solve(a.view(), ctx, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(has_site(res.recovery, "evd.options"));
}

}  // namespace
}  // namespace tcevd
