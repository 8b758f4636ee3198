// Fault-injection suite: arms every named fault site and asserts the
// library degrades gracefully - correct results (bitwise-identical to the
// undegraded run where the degradation matrix promises it), no exception
// across any API boundary, and the matching telemetry counter bumped.
//
// Each TEST runs in its own process under ctest (gtest_discover_tests), so
// global pool / selfcheck state never leaks between tests. The FaultEnv
// tests are additionally registered with a SHALOM_FAULT environment value
// by tests/CMakeLists.txt to cover the env-var arming path; run bare they
// skip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/health.h"
#include "common/selfcheck.h"
#include "core/plan.h"
#include "core/shalom.h"
#include "core/shalom_c.h"
#include "core/threadpool.h"
#include "tests/test_util.h"

namespace shalom {
namespace {

/// One case per SHALOM_ROBUSTNESS_COUNTERS row: the counter, its C++
/// field, its C mirror field and its kind.
struct CounterCase {
  Counter id;
  const char* name;
  std::uint64_t RobustnessStats::*field;
  std::uint64_t shalom_stats::*c_field;
  CounterKind kind;
};
constexpr CounterCase kCounterCases[] = {
#define SHALOM_COUNTER_CASE(id, field, kind)                           \
  {Counter::id, #field, &RobustnessStats::field, &shalom_stats::field, \
   CounterKind::kind},
    SHALOM_ROBUSTNESS_COUNTERS(SHALOM_COUNTER_CASE)
#undef SHALOM_COUNTER_CASE
};

/// Checks that both the C++ snapshot and the C copy read `value` for
/// counter `hot` and 0 for every other row. The C struct is pre-filled
/// with 0xff bytes, so a field the copy skips fails too.
void expect_only(std::size_t hot, std::uint64_t value) {
  const RobustnessStats s = robustness_stats();
  shalom_stats c;
  std::memset(&c, 0xff, sizeof c);
  shalom_get_stats(&c);
  for (std::size_t i = 0; i < std::size(kCounterCases); ++i) {
    const CounterCase& row = kCounterCases[i];
    const std::uint64_t want = i == hot ? value : 0;
    EXPECT_EQ(s.*row.field, want) << row.name;
    EXPECT_EQ(c.*row.c_field, want) << row.name;
  }
}

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!SHALOM_FAULT_INJECTION)
      GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
    fault::disarm_all();
    robustness_stats_reset();
  }
  void TearDown() override { fault::disarm_all(); }
};

/// Asserts two same-shape matrices are bitwise identical.
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
// Framework semantics
// ---------------------------------------------------------------------------

TEST_F(FaultTest, TriggerModes) {
  using fault::Site;
  const Site s = Site::kTableRename;  // nothing in this test reaches it

  fault::arm(s, fault::Mode::kOnce);
  EXPECT_TRUE(fault::should_fail(s));
  EXPECT_FALSE(fault::should_fail(s));  // self-disarmed
  EXPECT_FALSE(fault::armed(s));

  fault::arm(s, fault::Mode::kEveryN, 2);
  EXPECT_FALSE(fault::should_fail(s));  // call 1
  EXPECT_TRUE(fault::should_fail(s));   // call 2
  EXPECT_FALSE(fault::should_fail(s));  // call 3
  EXPECT_TRUE(fault::should_fail(s));   // call 4

  fault::arm(s, fault::Mode::kFailAfter, 2);
  EXPECT_FALSE(fault::should_fail(s));  // call 1
  EXPECT_FALSE(fault::should_fail(s));  // call 2
  EXPECT_TRUE(fault::should_fail(s));   // call 3
  EXPECT_TRUE(fault::should_fail(s));   // call 4

  fault::disarm(s);
  EXPECT_FALSE(fault::should_fail(s));
  EXPECT_GE(fault::injected(s), 5u);
}

TEST_F(FaultTest, SpecParsing) {
  using fault::Site;
  EXPECT_TRUE(fault::arm_from_spec("alloc.pack_arena:once"));
  EXPECT_TRUE(fault::armed(Site::kAllocPackArena));
  fault::disarm_all();

  EXPECT_TRUE(fault::arm_from_spec(
      "engine.shed:every-3,threadpool.spawn:fail-after-2"));
  EXPECT_TRUE(fault::armed(Site::kEngineShed));
  EXPECT_TRUE(fault::armed(Site::kThreadpoolSpawn));
  EXPECT_FALSE(fault::armed(Site::kAllocPackArena));
  fault::disarm_all();

  EXPECT_FALSE(fault::arm_from_spec("bogus.site:once"));
  EXPECT_FALSE(fault::arm_from_spec("engine.shed"));          // no spec
  EXPECT_FALSE(fault::arm_from_spec("engine.shed:every-0"));  // n must be > 0
  EXPECT_FALSE(fault::arm_from_spec("engine.shed:sometimes"));
  EXPECT_FALSE(fault::armed(Site::kEngineShed));
  // The plan cache's sites went with it: unknown names, like any other.
  EXPECT_FALSE(fault::arm_from_spec("alloc.plan:once"));
  EXPECT_FALSE(fault::arm_from_spec("plan_cache.insert:fail-after-0"));
  // So did the steal site of the retired work-stealing deques.
  EXPECT_FALSE(fault::arm_from_spec("threadpool.steal:once"));
  for (int i = 0; i < fault::kSiteCount; ++i)
    EXPECT_FALSE(fault::armed(static_cast<Site>(i)));
  // Valid entries before a malformed one still arm.
  EXPECT_FALSE(fault::arm_from_spec("table.rename:once,junk"));
  EXPECT_TRUE(fault::armed(Site::kTableRename));
}

TEST_F(FaultTest, SiteNames) {
  // Every SHALOM_FAULT_SITES row round-trips: its name arms exactly its
  // own site, and disarm_all clears it.
  using fault::Site;
  EXPECT_STREQ(fault::site_name(Site::kAllocPackArena), "alloc.pack_arena");
  EXPECT_STREQ(fault::site_name(Site::kThreadpoolSpawn), "threadpool.spawn");
  EXPECT_STREQ(fault::site_name(Site::kSelfcheckProbe), "selfcheck.probe");
  for (int s = 0; s < fault::kSiteCount; ++s) {
    const std::string name = fault::site_name(static_cast<Site>(s));
    SCOPED_TRACE(name);
    ASSERT_TRUE(fault::arm_from_spec((name + ":once").c_str()));
    for (int t = 0; t < fault::kSiteCount; ++t)
      EXPECT_EQ(fault::armed(static_cast<Site>(t)), t == s) << t;
    fault::disarm_all();
    for (int t = 0; t < fault::kSiteCount; ++t)
      EXPECT_FALSE(fault::armed(static_cast<Site>(t))) << t;
  }
}

// ---------------------------------------------------------------------------
// (a) Pack-arena OOM -> no-pack fallback, bitwise-identical results
// ---------------------------------------------------------------------------

// K*N is sized well past any L1, so the plan packs B (NN) / A (TN); the
// serial driver then hits the alloc.pack_arena site on every execution.
TEST_F(FaultTest, PackArenaFallbackBitwiseNN) {
  const index_t M = 64, N = 256, K = 256;
  testing::Problem<float> p({Trans::N, Trans::N}, M, N, K);
  Config cfg;
  cfg.threads = 1;

  Matrix<float> c_ref = p.c;
  gemm(Trans::N, Trans::N, M, N, K, 1.25f, p.a.data(), p.a.ld(), p.b.data(),
       p.b.ld(), 0.5f, c_ref.data(), c_ref.ld(), cfg);

  fault::arm(fault::Site::kAllocPackArena, fault::Mode::kEveryN, 1);
  gemm(Trans::N, Trans::N, M, N, K, 1.25f, p.a.data(), p.a.ld(), p.b.data(),
       p.b.ld(), 0.5f, p.c.data(), p.c.ld(), cfg);
  fault::disarm_all();

  const RobustnessStats s = robustness_stats();
  EXPECT_GT(s.fallback_nopack, 0u);
  EXPECT_GT(s.faults_injected, 0u);
  expect_bitwise(p.c, c_ref, "no-pack fallback NN");
}

TEST_F(FaultTest, PackArenaFallbackBitwiseTN) {
  const index_t M = 64, N = 48, K = 96;
  testing::Problem<double> p({Trans::T, Trans::N}, M, N, K);
  Config cfg;
  cfg.threads = 1;

  Matrix<double> c_ref = p.c;
  gemm(Trans::T, Trans::N, M, N, K, 1.0, p.a.data(), p.a.ld(), p.b.data(),
       p.b.ld(), 0.25, c_ref.data(), c_ref.ld(), cfg);

  fault::arm(fault::Site::kAllocPackArena, fault::Mode::kEveryN, 1);
  gemm(Trans::T, Trans::N, M, N, K, 1.0, p.a.data(), p.a.ld(), p.b.data(),
       p.b.ld(), 0.25, p.c.data(), p.c.ld(), cfg);
  fault::disarm_all();

  EXPECT_GT(robustness_stats().fallback_nopack, 0u);
  expect_bitwise(p.c, c_ref, "no-pack fallback TN");
}

// Transposed B has no direct-access kernel, so the fallback runs the
// scalar loop there: correct within tolerance rather than bitwise.
TEST_F(FaultTest, PackArenaFallbackCorrectNT) {
  const index_t M = 40, N = 56, K = 80;
  testing::Problem<float> p({Trans::N, Trans::T}, M, N, K);
  Config cfg;
  cfg.threads = 1;

  fault::arm(fault::Site::kAllocPackArena, fault::Mode::kEveryN, 1);
  gemm(Trans::N, Trans::T, M, N, K, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
       p.b.ld(), 0.75f, p.c.data(), p.c.ld(), cfg);
  fault::disarm_all();

  EXPECT_GT(robustness_stats().fallback_nopack, 0u);
  p.run_reference(1.0f, 0.75f);
  p.expect_matches("no-pack fallback NT");
}

/// Runs one shape packed, then again with every arena reservation
/// failing. K*N is sized past any L1 so every mode packs (B under NN, A
/// under TN, B under NT, both under TT; both everywhere without selective
/// packing); M and N are not tile multiples and kc_override splits K into
/// three k-blocks. Without an arena the same loop nest reads both operands
/// in place: NN/TN results are bitwise those of the packed run, and
/// transposed B runs scalar tiles within tolerance of naive.
template <typename T>
void check_nopack_fallback(Mode mode, bool selective) {
  SCOPED_TRACE(::testing::Message()
               << "mode=" << (mode.a == Trans::N ? "N" : "T")
               << (mode.b == Trans::N ? "N" : "T") << " dtype="
               << (sizeof(T) == 4 ? "f32" : "f64")
               << " selective=" << selective);
  const index_t M = 37, N = 131, K = 130;
  testing::Problem<T> p(mode, M, N, K);
  Config cfg;
  cfg.threads = 1;
  cfg.kc_override = 48;
  cfg.selective_packing = selective;
  const T alpha = T(1.25), beta = T(0.5);

  Matrix<T> c_packed = p.c;
  gemm(mode.a, mode.b, M, N, K, alpha, p.a.data(), p.a.ld(), p.b.data(),
       p.b.ld(), beta, c_packed.data(), c_packed.ld(), cfg);

  const std::uint64_t before = robustness_stats().fallback_nopack;
  fault::arm(fault::Site::kAllocPackArena, fault::Mode::kEveryN, 1);
  gemm(mode.a, mode.b, M, N, K, alpha, p.a.data(), p.a.ld(), p.b.data(),
       p.b.ld(), beta, p.c.data(), p.c.ld(), cfg);
  fault::disarm_all();
  EXPECT_EQ(robustness_stats().fallback_nopack, before + 1);

  if (mode.b == Trans::N) {
    expect_bitwise(p.c, c_packed, "no-pack fallback vs packed");
  } else {
    p.run_reference(alpha, beta);
    p.expect_matches("no-pack fallback vs naive");
  }
}

TEST_F(FaultTest, PackArenaFallbackAllModes) {
  for (const Mode mode : testing::kAllModes) {
    for (const bool selective : {true, false}) {
      check_nopack_fallback<float>(mode, selective);
      check_nopack_fallback<double>(mode, selective);
    }
  }
  EXPECT_GT(robustness_stats().faults_injected, 0u);
}

// The plan packs B, so it gates on the direct-packed family and never
// consults direct-direct. When the arena then fails, the in-place re-run
// must re-check the direct-direct verdict and route every tile to
// kern_scalar: bitwise naive at kc_override = K.
TEST_F(FaultTest, PackArenaFallbackHonoursQuarantine) {
  const index_t M = 37, N = 131, K = 130;
  testing::Problem<float> p({Trans::N, Trans::N}, M, N, K);
  Config cfg;
  cfg.threads = 1;
  cfg.kc_override = K;
  ASSERT_NE(plan_create<float>({Trans::N, Trans::N}, M, N, K, cfg).pack.b,
            model::PackPlan::kNone);

  selfcheck::reset_for_testing();
  selfcheck::quarantine(selfcheck::Variant::kMainF32DirectDirect);
  fault::arm(fault::Site::kAllocPackArena, fault::Mode::kEveryN, 1);
  gemm(Trans::N, Trans::N, M, N, K, 1.25f, p.a.data(), p.a.ld(), p.b.data(),
       p.b.ld(), 0.5f, p.c.data(), p.c.ld(), cfg);
  fault::disarm_all();
  selfcheck::reset_for_testing();
  health::reset_for_testing();

  EXPECT_EQ(robustness_stats().fallback_nopack, 1u);
  p.run_reference(1.25f, 0.5f);
  expect_bitwise(p.c, p.c_ref, "quarantined no-pack fallback vs naive");
}

// `once` injection: exactly one execution degrades, the next run packs
// again - the arena reservation is retried per call, not latched.
TEST_F(FaultTest, PackArenaFailureIsTransient) {
  const index_t M = 32, N = 256, K = 256;
  testing::Problem<float> p({Trans::N, Trans::N}, M, N, K);
  Config cfg;
  cfg.threads = 1;

  fault::arm(fault::Site::kAllocPackArena, fault::Mode::kOnce);
  gemm(Trans::N, Trans::N, M, N, K, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
       p.b.ld(), 0.0f, p.c.data(), p.c.ld(), cfg);
  const std::uint64_t after_first = robustness_stats().fallback_nopack;
  gemm(Trans::N, Trans::N, M, N, K, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
       p.b.ld(), 0.0f, p.c.data(), p.c.ld(), cfg);

  EXPECT_EQ(after_first, 1u);
  EXPECT_EQ(robustness_stats().fallback_nopack, 1u);  // second run packed
  p.run_reference(1.0f, 0.0f);
  p.expect_matches("transient arena failure");
}

// ---------------------------------------------------------------------------
// (b) Worker-spawn failure -> degraded thread count across the C ABI
// ---------------------------------------------------------------------------

/// A width of at least `min` that the global pool has never been asked
/// for, so growing to it really spawns: the global pool grows in place,
/// and a width it was asked for before (even by a growth that failed)
/// spawns nothing until the kThreadPool probation. Heals the pool and
/// the health registry first, so an earlier test in the same process
/// can neither hide the spawn this test arms a fault for nor leave an
/// elapsed cool-down whose passive probation re-grows the pool inside
/// the very call under test.
int unrequested_pool_width(int min) {
  (void)ThreadPool::global(1).try_recover();
  health::reset_for_testing();
  return std::max(min, ThreadPool::global(1).max_threads() + 1);
}

TEST_F(FaultTest, SpawnFailureDegradesThreadsBitwise) {
  const index_t M = 256, N = 256, K = 64;
  testing::Problem<float> p({Trans::N, Trans::N}, M, N, K);
  Matrix<float> c_degraded = p.c;
  const int threads = unrequested_pool_width(16);

  // Degraded pass FIRST: every spawn fails, so the global pool cannot
  // grow and the plan's tasks run chunked over the narrower pool (one
  // thread in a fresh process). Must still return SHALOM_OK - no
  // exception may cross the C ABI.
  fault::arm(fault::Site::kThreadpoolSpawn, fault::Mode::kEveryN, 1);
  const int rc_degraded = shalom_sgemm(
      'N', 'N', M, N, K, 1.0f, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
      0.5f, c_degraded.data(), c_degraded.ld(), threads);
  fault::disarm_all();
  EXPECT_EQ(rc_degraded, SHALOM_OK);

  const RobustnessStats s = robustness_stats();
  EXPECT_GT(s.threads_degraded, 0u);
  EXPECT_GT(s.faults_injected, 0u);

  // Undegraded pass: heal the pool (what the kThreadPool probation does
  // after its cool-down) so it runs at the full width. The partition is
  // part of the plan, so per-element arithmetic is identical and the
  // results must match bitwise.
  ASSERT_TRUE(ThreadPool::global(1).try_recover());
  health::reset_for_testing();
  ASSERT_GE(ThreadPool::global(1).max_threads(), threads);
  const int rc_full = shalom_sgemm('N', 'N', M, N, K, 1.0f, p.a.data(),
                                   p.a.ld(), p.b.data(), p.b.ld(), 0.5f,
                                   p.c.data(), p.c.ld(), threads);
  EXPECT_EQ(rc_full, SHALOM_OK);
  expect_bitwise(c_degraded, p.c, "spawn-degraded vs full-width");
}

TEST_F(FaultTest, PartialSpawnFailureKeepsEarlierWorkers) {
  // The first 3 spawns succeed, later ones fail: the pool keeps workers
  // 1..3 and reports a width of 4.
  fault::arm(fault::Site::kThreadpoolSpawn, fault::Mode::kFailAfter, 3);
  ThreadPool pool(16);
  fault::disarm_all();
  EXPECT_EQ(pool.max_threads(), 4);

  // The surviving width is fully usable.
  std::vector<int> hits(4, 0);
  pool.parallel_for(4, [&](int id) { hits[static_cast<std::size_t>(id)]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST_F(FaultTest, PoolRunChunksOverDegradedPool) {
  const int tasks = unrequested_pool_width(12);
  fault::arm(fault::Site::kThreadpoolSpawn, fault::Mode::kEveryN, 1);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(tasks));
  pool_run(tasks, [&](int id) {
    hits[static_cast<std::size_t>(id)].fetch_add(1);
  });
  fault::disarm_all();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GT(robustness_stats().threads_degraded, 0u);
}

// ---------------------------------------------------------------------------
// C-ABI telemetry surface
// ---------------------------------------------------------------------------

TEST_F(FaultTest, CStatsMirrorCppCounters) {
  shalom_stats before;
  shalom_get_stats(&before);
  EXPECT_EQ(before.fallback_nopack, 0u);

  const index_t M = 32, N = 256, K = 256;
  testing::Problem<float> p({Trans::N, Trans::N}, M, N, K);
  fault::arm(fault::Site::kAllocPackArena, fault::Mode::kOnce);
  ASSERT_EQ(shalom_sgemm('N', 'N', M, N, K, 1.0f, p.a.data(), p.a.ld(),
                         p.b.data(), p.b.ld(), 0.0f, p.c.data(), p.c.ld(),
                         1),
            SHALOM_OK);
  fault::disarm_all();

  shalom_stats after;
  shalom_get_stats(&after);
  EXPECT_EQ(after.fallback_nopack, 1u);
  EXPECT_GT(after.faults_injected, 0u);

  shalom_reset_stats();
  shalom_get_stats(&after);
  EXPECT_EQ(after.fallback_nopack, 0u);
  EXPECT_EQ(after.faults_injected, 0u);
  shalom_get_stats(nullptr);  // must be a safe no-op
}

// Every shalom_stats counter is reachable through the C ABI: drive each
// degradation class once, snapshot, then reset back to all-zero.
TEST_F(FaultTest, CStatsEveryCounterReachable) {
  selfcheck::reset_for_testing();
  shalom_reset_stats();

  // numeric_anomalies: NaN operand under the count policy.
  {
    testing::Problem<float> p({Trans::N, Trans::N}, 8, 8, 8);
    p.a.data()[0] = std::numeric_limits<float>::quiet_NaN();
    Config cfg;
    cfg.check_numerics = numerics::Policy::kCount;
    gemm(Trans::N, Trans::N, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(),
         p.b.data(), p.b.ld(), 0.0f, p.c.data(), p.c.ld(), cfg);
  }
  // kernels_quarantined + selfchecks_run: one injected probe failure.
  fault::arm(fault::Site::kSelfcheckProbe, fault::Mode::kOnce);
  EXPECT_FALSE(selfcheck::variant_ok(selfcheck::Variant::kMainF32PackedPacked));
  fault::disarm_all();
  // fallback_nopack (+ faults_injected): pack-arena OOM.
  {
    testing::Problem<float> p({Trans::N, Trans::N}, 32, 256, 256);
    fault::arm(fault::Site::kAllocPackArena, fault::Mode::kOnce);
    ASSERT_EQ(shalom_sgemm('N', 'N', p.m, p.n, p.k, 1.0f, p.a.data(),
                           p.a.ld(), p.b.data(), p.b.ld(), 0.0f, p.c.data(),
                           p.c.ld(), 1),
              SHALOM_OK);
    fault::disarm_all();
  }
  // threads_degraded: every worker spawn fails.
  const int tasks = unrequested_pool_width(4);
  fault::arm(fault::Site::kThreadpoolSpawn, fault::Mode::kEveryN, 1);
  pool_run(tasks, [](int) {});
  fault::disarm_all();

  shalom_stats s;
  shalom_get_stats(&s);
  EXPECT_GT(s.fallback_nopack, 0u);
  EXPECT_GT(s.threads_degraded, 0u);
  EXPECT_EQ(s.plan_cache_bypassed, 0u);  // retired with the plan cache
  EXPECT_GT(s.faults_injected, 0u);
  EXPECT_GT(s.kernels_quarantined, 0u);
  EXPECT_GT(s.selfchecks_run, 0u);
  EXPECT_GT(s.numeric_anomalies, 0u);

  shalom_reset_stats();
  shalom_get_stats(&s);
  EXPECT_EQ(s.fallback_nopack, 0u);
  EXPECT_EQ(s.threads_degraded, 0u);
  EXPECT_EQ(s.plan_cache_bypassed, 0u);
  EXPECT_EQ(s.faults_injected, 0u);
  EXPECT_EQ(s.kernels_quarantined, 0u);
  EXPECT_EQ(s.selfchecks_run, 0u);
  EXPECT_EQ(s.numeric_anomalies, 0u);

  selfcheck::reset_for_testing();
}

// ---------------------------------------------------------------------------
// Counter table round trip: every row reaches the snapshot, the reset and
// the C copy, and no row leaks into another's field.
// ---------------------------------------------------------------------------

TEST(StatsTable, EveryCounterRoundTrips) {
  constexpr std::size_t kNone = std::size(kCounterCases);
  std::size_t peak = kNone;
  for (std::size_t i = 0; i < std::size(kCounterCases); ++i) {
    const CounterCase& row = kCounterCases[i];
    SCOPED_TRACE(row.name);
    if (row.kind == CounterKind::kPeak) peak = i;
    if (row.kind != CounterKind::kCount) continue;
    robustness_stats_reset();
    telemetry::note(row.id);
    expect_only(i, 1);
  }
  // The peak row keeps the largest value observed.
  ASSERT_NE(peak, kNone);
  const Counter peak_id = kCounterCases[peak].id;
  robustness_stats_reset();
  telemetry::raise_peak(peak_id, 5);
  telemetry::raise_peak(peak_id, 3);
  expect_only(peak, 5);
  telemetry::raise_peak(peak_id, 9);
  expect_only(peak, 9);
  // Reset zeroes every row at once.
  for (const CounterCase& row : kCounterCases)
    if (row.kind == CounterKind::kCount) telemetry::note(row.id);
  robustness_stats_reset();
  expect_only(kNone, 0);
}

// ---------------------------------------------------------------------------
// Telemetry snapshot consistency under concurrency (run under TSan via
// SHALOM_SANITIZE=thread): writers bumping every counter race readers and
// resetters; no torn reads, no crashes, and after the dust settles one
// final reset leaves everything at zero.
// ---------------------------------------------------------------------------

TEST(StatsRace, ConcurrentNotesSnapshotsAndResets) {
  robustness_stats_reset();
  constexpr int kWriters = 4;
  constexpr int kItersPerWriter = 2000;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&go] {
      while (!go.load()) {
      }
      for (int i = 0; i < kItersPerWriter; ++i) {
        for (const CounterCase& row : kCounterCases)
          if (row.kind == CounterKind::kCount) telemetry::note(row.id);
        telemetry::raise_peak(Counter::kStreamQueuePeak,
                              static_cast<std::uint64_t>(i));
      }
    });
  }
  // Reader: snapshots must never be torn (counters only grow between
  // resets, and a snapshot taken mid-reset sees each counter as either
  // pre- or post-reset, never garbage).
  threads.emplace_back([&go, &stop] {
    while (!go.load()) {
    }
    const std::uint64_t cap =
        static_cast<std::uint64_t>(kWriters) * kItersPerWriter;
    while (!stop.load()) {
      const RobustnessStats s = robustness_stats();
      for (const CounterCase& row : kCounterCases)
        EXPECT_LE(s.*row.field, cap) << row.name;
    }
  });
  // Resetter races the writers through the public C entry point.
  threads.emplace_back([&go, &stop] {
    while (!go.load()) {
    }
    while (!stop.load()) shalom_reset_stats();
  });

  go.store(true);
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  robustness_stats_reset();
  expect_only(std::size(kCounterCases), 0);
}

// ---------------------------------------------------------------------------
// Environment-variable arming (registered with SHALOM_FAULT set by
// tests/CMakeLists.txt; skips when run bare)
// ---------------------------------------------------------------------------

TEST(FaultEnv, DegradesUnderEnvInjection) {
  const char* spec = std::getenv("SHALOM_FAULT");
  if (spec == nullptr || !SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "SHALOM_FAULT not set";
  robustness_stats_reset();

  // A serial workload that reaches the pack-arena reservation site (B
  // packing forced by K*N) on every execution.
  const index_t M = 48, N = 256, K = 256;
  testing::Problem<float> p({Trans::N, Trans::N}, M, N, K);
  Config cfg;
  cfg.threads = 1;
  gemm(Trans::N, Trans::N, M, N, K, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
       p.b.ld(), 0.5f, p.c.data(), p.c.ld(), cfg);

  EXPECT_GT(robustness_stats().faults_injected, 0u)
      << "env spec \"" << spec << "\" armed nothing the workload hit";
  p.run_reference(1.0f, 0.5f);
  p.expect_matches("env-armed degraded run");
  fault::disarm_all();
}

}  // namespace
}  // namespace shalom
