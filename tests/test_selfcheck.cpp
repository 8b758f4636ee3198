// Kernel self-verification suite: probes every registered micro-kernel
// variant against the scalar reference, then uses fault injection on the
// selfcheck.probe site to force quarantine and prove the dispatcher's
// re-routing is *bitwise* safe - a GEMM whose every optimized kernel is
// quarantined must still produce results identical to the naive oracle.
// Also covers the opt-in numerical guard (Config::check_numerics) and the
// env-driven variants of both features (registered with SHALOM_SELFTEST /
// SHALOM_CHECK_NUMERICS by tests/CMakeLists.txt; run bare they skip).
//
// Each TEST runs in its own process under ctest (gtest_discover_tests), so
// quarantine verdicts never leak between tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "baselines/naive.h"
#include "common/fault.h"
#include "common/selfcheck.h"
#include "common/selfcheck_probe.h"
#include "core/shalom.h"
#include "core/shalom_c.h"
#include "core/widegemm.h"
#include "tests/test_util.h"

namespace shalom {
namespace {

/// Resets quarantine verdicts (every call plans afresh, so no plan
/// outlives them).
void reset_selfcheck_world() { selfcheck::reset_for_testing(); }

template <typename T>
void expect_bitwise(const Matrix<T>& got, const Matrix<T>& want,
                    const char* context) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (index_t i = 0; i < got.rows(); ++i)
    for (index_t j = 0; j < got.cols(); ++j)
      ASSERT_EQ(std::memcmp(&got(i, j), &want(i, j), sizeof(T)), 0)
          << context << ": mismatch at (" << i << "," << j << "): "
          << got(i, j) << " vs " << want(i, j);
}

// ---------------------------------------------------------------------------
// Clean-path verification
// ---------------------------------------------------------------------------

TEST(Selfcheck, AllVariantsVerifyClean) {
  fault::disarm_all();
  reset_selfcheck_world();
  robustness_stats_reset();

  EXPECT_EQ(selfcheck::run_all(), 0) << "a kernel variant failed its probe "
                                        "on this host; dispatch would "
                                        "quarantine it";
  for (int v = 0; v < selfcheck::kVariantCount; ++v) {
    const auto var = static_cast<selfcheck::Variant>(v);
    EXPECT_EQ(selfcheck::status(var), selfcheck::Status::kVerified)
        << selfcheck::variant_name(var);
    EXPECT_TRUE(selfcheck::variant_ok(var));
  }

  const RobustnessStats s = robustness_stats();
  EXPECT_GE(s.selfchecks_run,
            static_cast<std::uint64_t>(selfcheck::kVariantCount));
  EXPECT_EQ(s.kernels_quarantined, 0u);

  // Idempotent: a second sweep re-probes nothing.
  const std::uint64_t runs = s.selfchecks_run;
  EXPECT_EQ(selfcheck::run_all(), 0);
  EXPECT_EQ(robustness_stats().selfchecks_run, runs);
}

TEST(Selfcheck, VariantNamesAreStableAndUnique) {
  std::set<std::string> names;
  for (int v = 0; v < selfcheck::kVariantCount; ++v) {
    const char* name =
        selfcheck::variant_name(static_cast<selfcheck::Variant>(v));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::strlen(name), 0u);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
  }
  EXPECT_STREQ(selfcheck::variant_name(selfcheck::wide_variant(512)),
               "wide.512");
}

TEST(Selfcheck, LazyProbeRunsOncePerVariant) {
  fault::disarm_all();
  reset_selfcheck_world();
  robustness_stats_reset();

  const auto v = selfcheck::Variant::kMainF32PackedPacked;
  EXPECT_EQ(selfcheck::status(v), selfcheck::Status::kUnknown);
  EXPECT_TRUE(selfcheck::variant_ok(v));
  const std::uint64_t runs = robustness_stats().selfchecks_run;
  EXPECT_GT(runs, 0u);
  // The verdict is cached: repeat lookups do not re-probe.
  EXPECT_TRUE(selfcheck::variant_ok(v));
  EXPECT_TRUE(selfcheck::variant_ok(v));
  EXPECT_EQ(robustness_stats().selfchecks_run, runs);
  EXPECT_EQ(selfcheck::status(v), selfcheck::Status::kVerified);
}

// ---------------------------------------------------------------------------
// Probe sensitivity: the harness, handed a deliberately wrong kernel in
// place of a variant's runner, must reject it. Each test first runs the
// same rows with the real runner, so a rejection is the fault's doing.
// ---------------------------------------------------------------------------

namespace probe = selfcheck::probe;

constexpr int row(selfcheck::Variant v) { return static_cast<int>(v); }

/// Probes variant row I with `run` in place of its kernel call.
template <int I>
bool probe_with(probe::Runner<probe::row_t<I>> run) {
  return probe::run_cases(probe::row_cases<I>(), run);
}

/// A tail store that writes one lane past n_eff (a full-width store of
/// the zero-padded tail vector).
template <int I>
void store_past_n_eff(const probe::Tile<probe::row_t<I>>& t) {
  probe::run_tile<I>(t);
  t.c[t.n_eff] = 0;
}

/// A kernel that scales the old C by beta even when beta is 0.
template <int I>
void read_c_at_beta_zero(const probe::Tile<probe::row_t<I>>& t) {
  const auto c00 = t.c[0];
  probe::run_tile<I>(t);
  if (t.beta == 0) t.c[0] += t.beta * c00;
}

/// A kernel that stores two output lanes in each other's place.
template <int I>
void swap_lanes(const probe::Tile<probe::row_t<I>>& t) {
  probe::run_tile<I>(t);
  if (t.n_eff >= 2) std::swap(t.c[0], t.c[1]);
}

/// A fused kernel that packs one element of its side-output wrong.
template <int I>
void corrupt_side_output(const probe::Tile<probe::row_t<I>>& t) {
  probe::run_tile<I>(t);
  if (t.side != nullptr) t.side[0] += 1;
}

/// A pack-ahead kernel that copies one element of the next sliver wrong.
template <int I>
void corrupt_next_sliver(const probe::Tile<probe::row_t<I>>& t) {
  probe::run_tile<I>(t);
  if (t.side_next != nullptr) t.side_next[0] += 1;
}

template <int I>
void expect_rejects_store_past_n_eff() {
  EXPECT_TRUE(probe_with<I>(&probe::run_tile<I>))
      << selfcheck::kVariants[I].name;
  EXPECT_FALSE(probe_with<I>(&store_past_n_eff<I>))
      << selfcheck::kVariants[I].name;
}

// The rows below share few kernel tables: every run_tile<I> instantiates
// its whole kernel family in this file.
TEST(SelfcheckHarness, RejectsStorePastNEff) {
  using V = selfcheck::Variant;
  expect_rejects_store_past_n_eff<row(V::kMainF32DirectDirect)>();
  expect_rejects_store_past_n_eff<row(V::kEdgeF32DirectDirect)>();
  expect_rejects_store_past_n_eff<row(V::kEdgeF64PackedPacked)>();
  expect_rejects_store_past_n_eff<row(V::kFusedNnF32)>();
  expect_rejects_store_past_n_eff<row(V::kFusedTnF32)>();
  expect_rejects_store_past_n_eff<row(V::kFusedNtF32)>();
  expect_rejects_store_past_n_eff<row(V::kWide256)>();
}

TEST(SelfcheckHarness, RejectsCReadAtBetaZero) {
  using V = selfcheck::Variant;
  constexpr int kEdge = row(V::kEdgeF32DirectDirect);
  constexpr int kWide = row(V::kWide256);
  EXPECT_TRUE(probe_with<kEdge>(&probe::run_tile<kEdge>));
  EXPECT_FALSE(probe_with<kEdge>(&read_c_at_beta_zero<kEdge>));
  EXPECT_TRUE(probe_with<kWide>(&probe::run_tile<kWide>));
  EXPECT_FALSE(probe_with<kWide>(&read_c_at_beta_zero<kWide>));
}

TEST(SelfcheckHarness, RejectsSwappedLanes) {
  using V = selfcheck::Variant;
  constexpr int kMain = row(V::kMainF64PackedPacked);
  constexpr int kNt = row(V::kFusedNtF32);
  EXPECT_TRUE(probe_with<kMain>(&probe::run_tile<kMain>));
  EXPECT_FALSE(probe_with<kMain>(&swap_lanes<kMain>));
  EXPECT_TRUE(probe_with<kNt>(&probe::run_tile<kNt>));
  EXPECT_FALSE(probe_with<kNt>(&swap_lanes<kNt>));
}

TEST(SelfcheckHarness, RejectsWrongPackedSideOutput) {
  using V = selfcheck::Variant;
  constexpr int kNn = row(V::kFusedNnF32);
  constexpr int kTn = row(V::kFusedTnF32);
  constexpr int kNt = row(V::kFusedNtF32);
  EXPECT_TRUE(probe_with<kNn>(&probe::run_tile<kNn>));
  EXPECT_FALSE(probe_with<kNn>(&corrupt_side_output<kNn>)) << "Bc";
  EXPECT_FALSE(probe_with<kNn>(&corrupt_next_sliver<kNn>)) << "next Bc";
  EXPECT_TRUE(probe_with<kTn>(&probe::run_tile<kTn>));
  EXPECT_FALSE(probe_with<kTn>(&corrupt_side_output<kTn>)) << "Ac";
  EXPECT_TRUE(probe_with<kNt>(&probe::run_tile<kNt>));
  EXPECT_FALSE(probe_with<kNt>(&corrupt_side_output<kNt>)) << "B^T";
}

// ---------------------------------------------------------------------------
// Forced quarantine: injected probe failures must reroute dispatch to the
// scalar reference, bitwise-identically to the naive oracle.
// ---------------------------------------------------------------------------

class QuarantineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!SHALOM_FAULT_INJECTION)
      GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
    fault::disarm_all();
    reset_selfcheck_world();
    robustness_stats_reset();
  }
  void TearDown() override {
    fault::disarm_all();
    reset_selfcheck_world();
  }
};

/// Runs one shape through gemm() with every probe failing (so every lazily
/// probed variant quarantines) and asserts bitwise equality with naive.
/// kc_override = K keeps the whole reduction in one k-block, which makes
/// the quarantined scalar path's accumulation order identical to naive's.
template <typename T>
void check_quarantined_bitwise(Mode mode, index_t M, index_t N, index_t K,
                               T alpha, T beta, int threads) {
  SCOPED_TRACE(::testing::Message()
               << "mode=" << (mode.a == Trans::N ? "N" : "T")
               << (mode.b == Trans::N ? "N" : "T") << " m=" << M << " n=" << N
               << " k=" << K << " threads=" << threads);
  testing::Problem<T> p(mode, M, N, K);
  Config cfg;
  cfg.threads = threads;
  cfg.kc_override = K;

  fault::arm(fault::Site::kSelfcheckProbe, fault::Mode::kEveryN, 1);
  gemm(mode.a, mode.b, M, N, K, alpha, p.a.data(), p.a.ld(), p.b.data(),
       p.b.ld(), beta, p.c.data(), p.c.ld(), cfg);
  fault::disarm_all();

  EXPECT_GT(robustness_stats().kernels_quarantined, 0u);
  baselines::naive_gemm(mode, M, N, K, alpha, p.a.data(), p.a.ld(),
                        p.b.data(), p.b.ld(), beta, p.c_ref.data(),
                        p.c_ref.ld());
  expect_bitwise(p.c, p.c_ref, "quarantined dispatch vs naive");
}

TEST_F(QuarantineTest, RoutesToScalarBitwiseF32AllModes) {
  for (const Mode mode : testing::kAllModes) {
    reset_selfcheck_world();
    check_quarantined_bitwise<float>(mode, 33, 29, 24, 1.25f, 0.5f, 1);
  }
}

TEST_F(QuarantineTest, RoutesToScalarBitwiseF64AllModes) {
  for (const Mode mode : testing::kAllModes) {
    reset_selfcheck_world();
    check_quarantined_bitwise<double>(mode, 21, 37, 18, -0.75, 1.0, 1);
  }
}

TEST_F(QuarantineTest, RoutesToScalarBitwiseSmallFastPathShape) {
  // A tiny NN problem that would normally run as one in-place block with
  // vectorized tiles: quarantine must force it onto the scalar route too.
  check_quarantined_bitwise<float>({Trans::N, Trans::N}, 7, 12, 9, 1.0f,
                                   0.0f, 1);
}

TEST_F(QuarantineTest, RoutesToScalarBitwiseParallel) {
  check_quarantined_bitwise<float>({Trans::N, Trans::N}, 96, 120, 40, 1.0f,
                                   0.25f, 3);
}

TEST_F(QuarantineTest, VerdictIsPermanentAfterDisarm) {
  fault::arm(fault::Site::kSelfcheckProbe, fault::Mode::kEveryN, 1);
  EXPECT_FALSE(selfcheck::variant_ok(selfcheck::Variant::kMainF32PackedPacked));
  fault::disarm_all();
  // The probe would now pass, but the verdict was published: quarantined
  // stays quarantined for the life of the process.
  EXPECT_FALSE(selfcheck::variant_ok(selfcheck::Variant::kMainF32PackedPacked));
  EXPECT_EQ(selfcheck::status(selfcheck::Variant::kMainF32PackedPacked),
            selfcheck::Status::kQuarantined);
  // Variants never probed are still undecided and verify cleanly.
  EXPECT_TRUE(selfcheck::variant_ok(selfcheck::Variant::kMainF64PackedPacked));
}

TEST_F(QuarantineTest, EagerSelftestCountsQuarantinedVariants) {
  fault::arm(fault::Site::kSelfcheckProbe, fault::Mode::kEveryN, 1);
  EXPECT_EQ(shalom_selftest(), selfcheck::kVariantCount);
  fault::disarm_all();
  EXPECT_EQ(robustness_stats().kernels_quarantined,
            static_cast<std::uint64_t>(selfcheck::kVariantCount));
  // Re-running reports the standing verdicts without new probes.
  const std::uint64_t runs = robustness_stats().selfchecks_run;
  EXPECT_EQ(shalom_selftest(), selfcheck::kVariantCount);
  EXPECT_EQ(robustness_stats().selfchecks_run, runs);
}

TEST_F(QuarantineTest, WideGemmFallsBackToScalar) {
  const index_t M = 25, N = 40, K = 33;
  testing::Problem<float> p({Trans::N, Trans::N}, M, N, K);

  fault::arm(fault::Site::kSelfcheckProbe, fault::Mode::kEveryN, 1);
  wide::gemm_wide<256>(M, N, K, 1.5f, p.a.data(), p.a.ld(), p.b.data(),
                       p.b.ld(), 0.5f, p.c.data(), p.c.ld());
  fault::disarm_all();

  EXPECT_EQ(selfcheck::status(selfcheck::Variant::kWide256),
            selfcheck::Status::kQuarantined);
  EXPECT_GT(robustness_stats().kernels_quarantined, 0u);
  p.run_reference(1.5f, 0.5f);
  p.expect_matches("quarantined wide gemm");
}

TEST_F(QuarantineTest, PlansBuiltAfterQuarantineStayCorrect) {
  // Quarantine first, then plan the same shape repeatedly: every plan
  // snapshots force_scalar_kernels and every execution must agree with
  // naive.
  const index_t M = 48, N = 56, K = 20;
  fault::arm(fault::Site::kSelfcheckProbe, fault::Mode::kEveryN, 1);
  EXPECT_GT(shalom_selftest(), 0);
  fault::disarm_all();

  for (int rep = 0; rep < 3; ++rep) {
    testing::Problem<float> p({Trans::N, Trans::T}, M, N, K);
    Config cfg;
    cfg.threads = 1;
    cfg.kc_override = K;
    gemm(Trans::N, Trans::T, M, N, K, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
         p.b.ld(), 0.75f, p.c.data(), p.c.ld(), cfg);
    baselines::naive_gemm({Trans::N, Trans::T}, M, N, K, 1.0f, p.a.data(),
                          p.a.ld(), p.b.data(), p.b.ld(), 0.75f,
                          p.c_ref.data(), p.c_ref.ld());
    expect_bitwise(p.c, p.c_ref, "quarantined plan");
  }
}

// ---------------------------------------------------------------------------
// Numerical guard (Config::check_numerics)
// ---------------------------------------------------------------------------

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(Numerics, IgnorePolicyIsDefaultAndSilent) {
  if (std::getenv("SHALOM_CHECK_NUMERICS") != nullptr)
    GTEST_SKIP() << "SHALOM_CHECK_NUMERICS overrides the default";
  robustness_stats_reset();
  Config cfg;
  EXPECT_EQ(cfg.check_numerics, numerics::Policy::kIgnore);

  testing::Problem<float> p({Trans::N, Trans::N}, 8, 8, 8);
  p.a.data()[3] = kNaN;
  gemm(Trans::N, Trans::N, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(),
       p.b.data(), p.b.ld(), 0.0f, p.c.data(), p.c.ld(), cfg);
  EXPECT_EQ(robustness_stats().numeric_anomalies, 0u);
}

TEST(Numerics, CountPolicyRecordsAndContinues) {
  robustness_stats_reset();
  Config cfg;
  cfg.check_numerics = numerics::Policy::kCount;

  testing::Problem<float> p({Trans::N, Trans::N}, 12, 10, 6);
  p.a.data()[1] = kNaN;
  EXPECT_NO_THROW(gemm(Trans::N, Trans::N, p.m, p.n, p.k, 1.0f, p.a.data(),
                       p.a.ld(), p.b.data(), p.b.ld(), 0.0f, p.c.data(),
                       p.c.ld(), cfg));
  // Operand A plus the NaN it smeared into the result: two anomalies.
  EXPECT_GE(robustness_stats().numeric_anomalies, 2u);
}

TEST(Numerics, FailPolicyThrowsBeforeDispatch) {
  robustness_stats_reset();
  Config cfg;
  cfg.check_numerics = numerics::Policy::kFail;

  testing::Problem<float> p({Trans::N, Trans::N}, 9, 7, 5);
  const Matrix<float> c_before = p.c;
  p.b.data()[2] = kInf;
  EXPECT_THROW(gemm(Trans::N, Trans::N, p.m, p.n, p.k, 1.0f, p.a.data(),
                    p.a.ld(), p.b.data(), p.b.ld(), 1.0f, p.c.data(),
                    p.c.ld(), cfg),
               numeric_error);
  EXPECT_GT(robustness_stats().numeric_anomalies, 0u);
  // The guard fired before any arithmetic: C is untouched.
  expect_bitwise(p.c, c_before, "C after operand-guard failure");
}

TEST(Numerics, BetaZeroSkipsCScan) {
  // beta == 0 never reads C, so NaN garbage there is legal and must not
  // trip the guard.
  robustness_stats_reset();
  Config cfg;
  cfg.check_numerics = numerics::Policy::kFail;

  testing::Problem<float> p({Trans::N, Trans::N}, 10, 11, 7);
  for (index_t i = 0; i < p.c.rows(); ++i)
    for (index_t j = 0; j < p.c.cols(); ++j) p.c(i, j) = kNaN;
  EXPECT_NO_THROW(gemm(Trans::N, Trans::N, p.m, p.n, p.k, 1.0f, p.a.data(),
                       p.a.ld(), p.b.data(), p.b.ld(), 0.0f, p.c.data(),
                       p.c.ld(), cfg));
  EXPECT_EQ(robustness_stats().numeric_anomalies, 0u);
  p.run_reference(1.0f, 0.0f);
  p.expect_matches("NaN-prefilled C, beta=0");
}

TEST(Numerics, CleanProblemRaisesNoAnomaly) {
  robustness_stats_reset();
  Config cfg;
  cfg.check_numerics = numerics::Policy::kFail;
  testing::Problem<double> p({Trans::T, Trans::N}, 15, 13, 11);
  EXPECT_NO_THROW(gemm(Trans::T, Trans::N, p.m, p.n, p.k, 0.5, p.a.data(),
                       p.a.ld(), p.b.data(), p.b.ld(), 0.25, p.c.data(),
                       p.c.ld(), cfg));
  EXPECT_EQ(robustness_stats().numeric_anomalies, 0u);
  p.run_reference(0.5, 0.25);
  p.expect_matches("guarded clean problem");
}

TEST(Numerics, CApiReportsNumericStatus) {
  // The C API has no Config; drive the guard via the env-derived default
  // only when the wrapper set it, otherwise exercise the error plumbing
  // through the C++ layer and the status-code surface directly.
  EXPECT_STREQ(shalom_strerror(SHALOM_ERR_NUMERIC),
               "non-finite value (NaN/Inf) caught by the numerical guard");
  EXPECT_NE(shalom_strerror(SHALOM_ERR_NUMERIC),
            shalom_strerror(SHALOM_ERR_INTERNAL));
}

TEST(Numerics, SamplerFindsCornerAndRespectsLd) {
  // Direct unit coverage of the sampled scan: last element is always
  // checked, and padding columns beyond `cols` are never read as data.
  Matrix<float> m(64, 48, 50);
  for (index_t i = 0; i < 64; ++i)
    for (index_t j = 0; j < 50; ++j) m.data()[i * 50 + j] = 1.0f;
  EXPECT_FALSE(numerics::has_nonfinite(m.data(), 64, 48, 50));
  m.data()[63 * 50 + 47] = kNaN;  // last logical element
  EXPECT_TRUE(numerics::has_nonfinite(m.data(), 63 + 1, 48, 50));
  m.data()[63 * 50 + 47] = 1.0f;
  m.data()[10 * 50 + 49] = kNaN;  // padding column: outside the block
  EXPECT_FALSE(numerics::has_nonfinite(m.data(), 64, 48, 50));
  EXPECT_FALSE(numerics::has_nonfinite<float>(nullptr, 4, 4, 4));
  EXPECT_FALSE(numerics::has_nonfinite(m.data(), 0, 48, 50));
}

// ---------------------------------------------------------------------------
// Environment-variable driven paths (wrappers in tests/CMakeLists.txt set
// SHALOM_SELFTEST / SHALOM_CHECK_NUMERICS; run bare these skip)
// ---------------------------------------------------------------------------

TEST(SelftestEnv, EagerSweepRanAtStartup) {
  const char* v = std::getenv("SHALOM_SELFTEST");
  if (v == nullptr) GTEST_SKIP() << "SHALOM_SELFTEST not set";
  // The static initializer ran the sweep before main(): every variant is
  // already decided, and on a healthy host all verified.
  for (int i = 0; i < selfcheck::kVariantCount; ++i) {
    const auto var = static_cast<selfcheck::Variant>(i);
    EXPECT_NE(selfcheck::status(var), selfcheck::Status::kUnknown)
        << selfcheck::variant_name(var);
  }
  if (std::getenv("SHALOM_FAULT") == nullptr) {
    EXPECT_EQ(selfcheck::run_all(), 0);
  } else {
    // Wrapper also armed the probe site: startup sweep quarantined all.
    EXPECT_EQ(selfcheck::run_all(), selfcheck::kVariantCount);
  }
}

TEST(NumericsEnv, PolicyComesFromEnvironment) {
  const char* v = std::getenv("SHALOM_CHECK_NUMERICS");
  if (v == nullptr) GTEST_SKIP() << "SHALOM_CHECK_NUMERICS not set";
  Config cfg;  // default picks up the env policy
  ASSERT_EQ(cfg.check_numerics, numerics::Policy::kCount)
      << "wrapper sets SHALOM_CHECK_NUMERICS=count";

  robustness_stats_reset();
  testing::Problem<float> p({Trans::N, Trans::N}, 16, 16, 8);
  p.a.data()[0] = kNaN;
  ASSERT_EQ(shalom_sgemm('N', 'N', p.m, p.n, p.k, 1.0f, p.a.data(),
                         p.a.ld(), p.b.data(), p.b.ld(), 0.0f, p.c.data(),
                         p.c.ld(), 1),
            SHALOM_OK);
  shalom_stats s;
  shalom_get_stats(&s);
  EXPECT_GE(s.numeric_anomalies, 1u);
}

TEST(EnvMalformed, MalformedValuesFallBackToDefaults) {
  // Wrapper sets malformed SHALOM_SELFTEST / SHALOM_CHECK_NUMERICS /
  // SHALOM_THREADS values; the library must warn once (stderr) and keep
  // every documented default - i.e. behave exactly like the bare run.
  if (std::getenv("SHALOM_CHECK_NUMERICS") == nullptr)
    GTEST_SKIP() << "malformed-env wrapper not active";
  Config cfg;
  EXPECT_EQ(cfg.check_numerics, numerics::Policy::kIgnore);

  testing::Problem<float> p({Trans::N, Trans::N}, 24, 18, 12);
  Config run_cfg;
  run_cfg.threads = 0;  // malformed SHALOM_THREADS must not hijack this
  EXPECT_NO_THROW(gemm(Trans::N, Trans::N, p.m, p.n, p.k, 1.0f, p.a.data(),
                       p.a.ld(), p.b.data(), p.b.ld(), 0.5f, p.c.data(),
                       p.c.ld(), run_cfg));
  p.run_reference(1.0f, 0.5f);
  p.expect_matches("malformed env run");
}

}  // namespace
}  // namespace shalom
