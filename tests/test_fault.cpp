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

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/selfcheck.h"
#include "core/shalom.h"
#include "core/shalom_c.h"
#include "core/threadpool.h"
#include "tests/test_util.h"

namespace shalom {
namespace {

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
  for (int i = 0; i < fault::kSiteCount; ++i)
    EXPECT_FALSE(fault::armed(static_cast<Site>(i)));
  // Valid entries before a malformed one still arm.
  EXPECT_FALSE(fault::arm_from_spec("table.rename:once,junk"));
  EXPECT_TRUE(fault::armed(Site::kTableRename));
}

TEST_F(FaultTest, SiteNames) {
  using fault::Site;
  EXPECT_STREQ(fault::site_name(Site::kAllocPackArena), "alloc.pack_arena");
  EXPECT_STREQ(fault::site_name(Site::kThreadpoolSpawn), "threadpool.spawn");
  EXPECT_STREQ(fault::site_name(Site::kSelfcheckProbe), "selfcheck.probe");
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

TEST_F(FaultTest, SpawnFailureDegradesThreadsBitwise) {
  const index_t M = 256, N = 256, K = 64;
  testing::Problem<float> p({Trans::N, Trans::N}, M, N, K);
  Matrix<float> c_degraded = p.c;

  // Degraded pass FIRST: every spawn fails, so the global pool comes up
  // serial and the 16-task plan runs chunked on one thread. Must still
  // return SHALOM_OK - no exception may cross the C ABI.
  fault::arm(fault::Site::kThreadpoolSpawn, fault::Mode::kEveryN, 1);
  const int rc_degraded = shalom_sgemm(
      'N', 'N', M, N, K, 1.0f, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
      0.5f, c_degraded.data(), c_degraded.ld(), 16);
  fault::disarm_all();
  EXPECT_EQ(rc_degraded, SHALOM_OK);

  const RobustnessStats s = robustness_stats();
  EXPECT_GT(s.threads_degraded, 0u);
  EXPECT_GT(s.faults_injected, 0u);

  // Undegraded pass: the pool can now grow to the full 16 threads. The
  // partition is part of the plan, so per-element arithmetic is
  // identical and the results must match bitwise.
  const int rc_full = shalom_sgemm('N', 'N', M, N, K, 1.0f, p.a.data(),
                                   p.a.ld(), p.b.data(), p.b.ld(), 0.5f,
                                   p.c.data(), p.c.ld(), 16);
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
  fault::arm(fault::Site::kThreadpoolSpawn, fault::Mode::kEveryN, 1);
  std::vector<std::atomic<int>> hits(12);
  pool_run(12, [&](int id) {
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
  fault::arm(fault::Site::kThreadpoolSpawn, fault::Mode::kEveryN, 1);
  pool_run(4, [](int) {});
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
        telemetry::note_fallback_nopack();
        telemetry::note_threads_degraded();
        telemetry::note_kernel_quarantined();
        telemetry::note_selfcheck_run();
        telemetry::note_numeric_anomaly();
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
      EXPECT_LE(s.fallback_nopack, cap);
      EXPECT_LE(s.numeric_anomalies, cap);
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
  const RobustnessStats s = robustness_stats();
  EXPECT_EQ(s.fallback_nopack, 0u);
  EXPECT_EQ(s.threads_degraded, 0u);
  EXPECT_EQ(s.plan_cache_bypassed, 0u);
  EXPECT_EQ(s.kernels_quarantined, 0u);
  EXPECT_EQ(s.selfchecks_run, 0u);
  EXPECT_EQ(s.numeric_anomalies, 0u);
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
