// Execution guard-rail suite (common/guard.h): trap-contained selfcheck
// probes, the thread-pool watchdog, and guarded pack arenas.
//
// Covers all three rails end to end: a probe that raises a real hardware
// trap (and one simulated through the guard.trap fault site) quarantines
// its variant while GEMM completes bitwise-identically to the scalar
// baseline; a fault-wedged pool worker trips the watchdog and the round
// still runs every task exactly once; a violated arena canary fails the
// call with SHALOM_ERR_CORRUPTION / corruption_error and quarantines the
// dispatched kernel family. Each TEST runs in its own process under ctest
// (gtest_discover_tests), so quarantine verdicts, degraded pools and mode
// overrides never leak between tests. The GuardEnv tests are registered
// with SHALOM_GUARD / SHALOM_WATCHDOG_MS environment values by
// tests/CMakeLists.txt to cover the env-var path; run bare they skip.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string>

#include "baselines/naive.h"
#include "common/aligned_buffer.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/guard.h"
#include "common/selfcheck.h"
#include "core/plan.h"
#include "core/shalom.h"
#include "core/shalom_c.h"
#include "core/threadpool.h"
#include "tests/test_util.h"

namespace shalom {
namespace {

/// Resets quarantine verdicts (every call plans afresh, so no plan
/// outlives them).
void reset_guard_world() { selfcheck::reset_for_testing(); }

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

class GuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm_all();
    robustness_stats_reset();
  }
  void TearDown() override {
    fault::disarm_all();
    selfcheck::set_probe_body_for_testing(nullptr);
    guard::clear_arena_mode_for_testing();   // back to the env default
    guard::set_watchdog_ms_for_testing(-1);  // back to the env default
  }
};

// ---------------------------------------------------------------------------
// Trap scopes (guard::run_trapped)
// ---------------------------------------------------------------------------

void crash_null_write(void*) {
  volatile int* p = nullptr;
  *p = 42;  // SIGSEGV, contained by the active trap scope
}

void crash_raise_ill(void*) { std::raise(SIGILL); }

void bump_counter(void* ctx) { ++*static_cast<int*>(ctx); }

TEST_F(GuardTest, TrapScopeContainsSegfault) {
  if (!guard::traps_supported())
    GTEST_SKIP() << "trap containment compiled out on this build";
  const guard::TrapOutcome out = guard::run_trapped(crash_null_write, nullptr);
  EXPECT_TRUE(out.trapped);
  EXPECT_EQ(out.signal, SIGSEGV);
  EXPECT_STREQ(guard::signal_name(out.signal), "SIGSEGV");
}

TEST_F(GuardTest, TrapScopeContainsRaisedSigill) {
  if (!guard::traps_supported())
    GTEST_SKIP() << "trap containment compiled out on this build";
  const guard::TrapOutcome out = guard::run_trapped(crash_raise_ill, nullptr);
  EXPECT_TRUE(out.trapped);
  EXPECT_EQ(out.signal, SIGILL);
  EXPECT_STREQ(guard::signal_name(out.signal), "SIGILL");
}

TEST_F(GuardTest, TrapScopePassthroughRunsTheFunction) {
  int calls = 0;
  const guard::TrapOutcome out = guard::run_trapped(bump_counter, &calls);
  EXPECT_FALSE(out.trapped);
  EXPECT_EQ(out.signal, 0);
  EXPECT_EQ(calls, 1);
}

TEST_F(GuardTest, TrapScopeRestoresPriorDisposition) {
  if (!guard::traps_supported())
    GTEST_SKIP() << "trap containment compiled out on this build";
  // Install a recognizable prior disposition, run a trapping scope, and
  // prove the scope put the prior back instead of leaving its own handler.
  struct sigaction prior;
  std::memset(&prior, 0, sizeof prior);
  prior.sa_handler = SIG_IGN;
  sigemptyset(&prior.sa_mask);
  ASSERT_EQ(sigaction(SIGILL, &prior, nullptr), 0);

  const guard::TrapOutcome out = guard::run_trapped(crash_raise_ill, nullptr);
  EXPECT_TRUE(out.trapped);

  struct sigaction now;
  ASSERT_EQ(sigaction(SIGILL, nullptr, &now), 0);
  EXPECT_EQ(now.sa_handler, SIG_IGN);

  prior.sa_handler = SIG_DFL;
  ASSERT_EQ(sigaction(SIGILL, &prior, nullptr), 0);
}

TEST_F(GuardTest, FaultSiteSimulatesTrapWithoutRunningTheScope) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  int calls = 0;
  fault::arm(fault::Site::kGuardTrap, fault::Mode::kOnce);
  const guard::TrapOutcome out = guard::run_trapped(bump_counter, &calls);
  EXPECT_TRUE(out.trapped);
  EXPECT_NE(out.signal, 0);
  EXPECT_EQ(calls, 0) << "a simulated trap must not run the scoped call";
  EXPECT_GT(fault::injected(fault::Site::kGuardTrap), 0u);
}

// ---------------------------------------------------------------------------
// Trap-contained probes -> quarantine -> scalar rerouting
// ---------------------------------------------------------------------------

TEST_F(GuardTest, TrappedProbesQuarantineEveryVariantBitwise) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  reset_guard_world();

  fault::arm(fault::Site::kGuardTrap, fault::Mode::kEveryN, 1);
  EXPECT_EQ(selfcheck::run_all(), selfcheck::kVariantCount);
  fault::disarm_all();

  const RobustnessStats s = robustness_stats();
  EXPECT_GE(s.kernels_trapped,
            static_cast<std::uint64_t>(selfcheck::kVariantCount));
  EXPECT_GE(s.kernels_quarantined,
            static_cast<std::uint64_t>(selfcheck::kVariantCount));
  EXPECT_EQ(detail::last_error_code(), SHALOM_ERR_KERNEL_TRAP);
  EXPECT_GT(std::strlen(detail::last_error_message()), 0u);

  // With every optimized kernel quarantined, GEMM must route to the
  // scalar reference and match the naive oracle bit for bit.
  const index_t M = 33, N = 29, K = 24;
  testing::Problem<float> p({Trans::N, Trans::N}, M, N, K);
  Config cfg;
  cfg.threads = 1;
  gemm(Trans::N, Trans::N, M, N, K, 1.25f, p.a.data(), p.a.ld(), p.b.data(),
       p.b.ld(), 0.5f, p.c.data(), p.c.ld(), cfg);
  baselines::naive_gemm({Trans::N, Trans::N}, M, N, K, 1.25f, p.a.data(),
                        p.a.ld(), p.b.data(), p.b.ld(), 0.5f, p.c_ref.data(),
                        p.c_ref.ld());
  expect_bitwise(p.c, p.c_ref, "all-trapped dispatch vs naive");
}

bool crashing_probe_body(selfcheck::Variant v) {
  if (v == selfcheck::Variant::kMainF32PackedPacked) {
    volatile int* p = nullptr;
    *p = 1;  // a real kernel crash, contained by the probe's trap scope
  }
  return true;
}

TEST_F(GuardTest, RealCrashingProbeIsContainedAndQuarantined) {
  if (!guard::traps_supported())
    GTEST_SKIP() << "trap containment compiled out on this build";
  reset_guard_world();
  selfcheck::set_probe_body_for_testing(crashing_probe_body);

  const auto bad = selfcheck::Variant::kMainF32PackedPacked;
  EXPECT_FALSE(selfcheck::variant_ok(bad));
  EXPECT_EQ(selfcheck::status(bad), selfcheck::Status::kQuarantined);
  EXPECT_GE(robustness_stats().kernels_trapped, 1u);
  EXPECT_EQ(detail::last_error_code(), SHALOM_ERR_KERNEL_TRAP);

  // Sibling variants probe clean through the same registered body.
  EXPECT_TRUE(selfcheck::variant_ok(selfcheck::Variant::kMainF64PackedPacked));

  selfcheck::set_probe_body_for_testing(nullptr);
}

TEST_F(GuardTest, QuarantineOverridesAnEarlierVerifiedVerdict) {
  reset_guard_world();
  const auto v = selfcheck::Variant::kWide128;
  EXPECT_TRUE(selfcheck::variant_ok(v));
  ASSERT_EQ(selfcheck::status(v), selfcheck::Status::kVerified);

  selfcheck::quarantine(v);
  EXPECT_EQ(selfcheck::status(v), selfcheck::Status::kQuarantined);
  EXPECT_FALSE(selfcheck::variant_ok(v));
  const std::uint64_t count = robustness_stats().kernels_quarantined;
  EXPECT_GE(count, 1u);

  // Idempotent: re-quarantining does not double-count.
  selfcheck::quarantine(v);
  EXPECT_EQ(robustness_stats().kernels_quarantined, count);
}

TEST_F(GuardTest, TrappedSelftestSurfacesOverTheCApi) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  reset_guard_world();
  shalom_reset_stats();

  fault::arm(fault::Site::kGuardTrap, fault::Mode::kEveryN, 1);
  EXPECT_EQ(shalom_selftest(), selfcheck::kVariantCount);
  fault::disarm_all();

  shalom_stats st;
  shalom_get_stats(&st);
  EXPECT_GE(st.kernels_trapped,
            static_cast<std::uint64_t>(selfcheck::kVariantCount));
  EXPECT_GE(st.kernels_quarantined,
            static_cast<std::uint64_t>(selfcheck::kVariantCount));
  EXPECT_GT(std::strlen(shalom_strerror(SHALOM_ERR_KERNEL_TRAP)), 0u);
}

// ---------------------------------------------------------------------------
// Thread-pool watchdog
// ---------------------------------------------------------------------------

TEST_F(GuardTest, WatchdogRecoversAWedgedWorker) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  ThreadPool pool(4);
  if (pool.max_threads() < 4)
    GTEST_SKIP() << "could not spawn 3 workers on this host";
  EXPECT_FALSE(pool.degraded());

  // Wedge exactly one worker at round pickup: it parks before claiming
  // its task, which is the stall the watchdog leader must recover.
  std::atomic<int> runs[4] = {{0}, {0}, {0}, {0}};
  fault::arm(fault::Site::kThreadpoolHeartbeat, fault::Mode::kOnce);
  pool.parallel_for(
      4, [&](int t) { runs[t].fetch_add(1, std::memory_order_relaxed); },
      /*watchdog_ms=*/100);
  fault::disarm_all();

  for (int t = 0; t < 4; ++t)
    EXPECT_EQ(runs[t].load(std::memory_order_relaxed), 1)
        << "task " << t << " must run exactly once";
  EXPECT_TRUE(pool.degraded());
  EXPECT_GE(robustness_stats().watchdog_trips, 1u);

  // The wedged worker never comes back, but a later round on the same
  // pool still completes with every task intact: under the work-stealing
  // scheduler the live workers absorb the missing worker's share (its
  // queued hints are stealable, its unclaimed tasks redistributable), so
  // a second trip is NOT required - only exactly-once execution is.
  std::atomic<int> again[4] = {{0}, {0}, {0}, {0}};
  pool.parallel_for(
      4, [&](int t) { again[t].fetch_add(1, std::memory_order_relaxed); },
      /*watchdog_ms=*/100);
  for (int t = 0; t < 4; ++t)
    EXPECT_EQ(again[t].load(std::memory_order_relaxed), 1);
  EXPECT_GE(robustness_stats().watchdog_trips, 1u);
}

TEST_F(GuardTest, WatchdogTripDuringParallelGemmKeepsResultsCorrect) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  guard::set_watchdog_ms_for_testing(200);

  const index_t M = 96, N = 120, K = 40;
  testing::Problem<float> p({Trans::N, Trans::N}, M, N, K);
  Config cfg;  // snapshots watchdog_ms = 200 from the override
  cfg.threads = 3;
  ASSERT_EQ(cfg.watchdog_ms, 200);

  // Wedge one global-pool worker; whichever round it hits (the plan
  // warm-up or the execution), the watchdog must recover it and the
  // result must match the oracle.
  fault::arm(fault::Site::kThreadpoolHeartbeat, fault::Mode::kOnce);
  gemm(Trans::N, Trans::N, M, N, K, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
       p.b.ld(), 0.25f, p.c.data(), p.c.ld(), cfg);
  fault::disarm_all();

  EXPECT_GE(robustness_stats().watchdog_trips, 1u);
  p.run_reference(1.0f, 0.25f);
  p.expect_matches("watchdog-recovered parallel GEMM");
}

TEST_F(GuardTest, ConfigAndPlanSnapshotTheWatchdogPeriod) {
  guard::set_watchdog_ms_for_testing(1234);
  Config cfg;
  EXPECT_EQ(cfg.watchdog_ms, 1234);
  const GemmPlan<float> plan =
      plan_create<float>({Trans::N, Trans::N}, 32, 32, 32, cfg);
  EXPECT_EQ(plan.watchdog_ms, 1234);

  guard::set_watchdog_ms_for_testing(0);
  Config off;
  EXPECT_EQ(off.watchdog_ms, 0);
}

TEST_F(GuardTest, RetiredPoolListStaysBounded) {
  // An adversarial grow-loop must not accumulate retired pools without
  // bound: each Handle acquisition reaps quiesced retirees past the
  // registry cap (4; see core/threadpool.cpp).
  for (int t = 2; t <= 20; ++t) {
    ThreadPool::Handle handle(t);
    EXPECT_GE(handle.pool().max_threads(), 1);
  }
  EXPECT_LE(ThreadPool::retired_pool_count_for_testing(), 4);
}

// ---------------------------------------------------------------------------
// Guarded arenas
// ---------------------------------------------------------------------------

TEST_F(GuardTest, UnguardedBufferHasNoZonesAndAlwaysVerifies) {
  guard::set_arena_mode_for_testing(guard::ArenaMode::kOff);
  AlignedBuffer buf;
  buf.reserve(256);
  EXPECT_EQ(buf.guard_zone(), 0u);
  EXPECT_TRUE(buf.verify_guards());
}

TEST_F(GuardTest, CanaryDetectsFrontAndBackOverwrites) {
  guard::set_arena_mode_for_testing(guard::ArenaMode::kCanary);
  AlignedBuffer buf;
  buf.reserve(256);  // multiple of the cache line: back zone starts at 256
  ASSERT_NE(buf.data(), nullptr);
  ASSERT_EQ(buf.guard_zone(), guard::kGuardZoneBytes);
  EXPECT_TRUE(buf.verify_guards());

  unsigned char* bytes = static_cast<unsigned char*>(buf.data());
  bytes[-1] ^= 0xFFu;  // clobber the front zone
  EXPECT_FALSE(buf.verify_guards());
  EXPECT_TRUE(buf.verify_guards()) << "violated zones must be re-armed";

  bytes[buf.capacity()] ^= 0xFFu;  // clobber the back zone
  EXPECT_FALSE(buf.verify_guards());
  EXPECT_TRUE(buf.verify_guards());
}

TEST_F(GuardTest, PoisonModePrefillsStorageOnEveryReserve) {
  guard::set_arena_mode_for_testing(guard::ArenaMode::kPoison);
  AlignedBuffer buf;
  buf.reserve(128);
  unsigned char* bytes = static_cast<unsigned char*>(buf.data());
  for (std::size_t i = 0; i < 128; ++i)
    ASSERT_EQ(bytes[i], guard::kPoisonByte) << "offset " << i;

  // The reuse path must re-poison too: stale data from the previous call
  // never survives into the next one.
  std::memset(bytes, 0, 128);
  buf.reserve(64);
  for (std::size_t i = 0; i < 64; ++i)
    ASSERT_EQ(bytes[i], guard::kPoisonByte) << "offset " << i;
}

TEST_F(GuardTest, CanaryViolationFailsGemmAndQuarantines) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  reset_guard_world();
  guard::set_arena_mode_for_testing(guard::ArenaMode::kCanary);

  // A packing shape (K*N well past L1, the same one the fault suite
  // proves reserves the arena), so the post-execution canary audit runs.
  const index_t M = 64, N = 256, K = 256;
  testing::Problem<float> p({Trans::N, Trans::N}, M, N, K);
  Config cfg;
  cfg.threads = 1;

  fault::arm(fault::Site::kGuardCanary, fault::Mode::kOnce);
  EXPECT_THROW(gemm(Trans::N, Trans::N, M, N, K, 1.0f, p.a.data(), p.a.ld(),
                    p.b.data(), p.b.ld(), 0.0f, p.c.data(), p.c.ld(), cfg),
               corruption_error);
  fault::disarm_all();

  const RobustnessStats s = robustness_stats();
  EXPECT_GE(s.arena_corruptions, 1u);
  EXPECT_GE(s.kernels_quarantined, 1u)
      << "the dispatched kernel family must be quarantined";
}

TEST_F(GuardTest, CanaryViolationSurfacesOverTheCApi) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  reset_guard_world();
  shalom_reset_stats();
  guard::set_arena_mode_for_testing(guard::ArenaMode::kCanary);

  const index_t M = 64, N = 256, K = 256;
  testing::Problem<float> p({Trans::N, Trans::N}, M, N, K);

  fault::arm(fault::Site::kGuardCanary, fault::Mode::kOnce);
  const int rc =
      shalom_sgemm('N', 'N', M, N, K, 1.0f, p.a.data(), p.a.ld(),
                   p.b.data(), p.b.ld(), 0.0f, p.c.data(), p.c.ld(), 1);
  fault::disarm_all();

  EXPECT_EQ(rc, SHALOM_ERR_CORRUPTION);
  EXPECT_GT(std::strlen(shalom_last_error_message()), 0u);
  shalom_stats st;
  shalom_get_stats(&st);
  EXPECT_GE(st.arena_corruptions, 1u);
  EXPECT_GE(st.kernels_quarantined, 1u);
}

// ---------------------------------------------------------------------------
// Environment-variable plumbing (registered with ENVIRONMENT by
// tests/CMakeLists.txt; run without the wrapper they skip).
// ---------------------------------------------------------------------------

TEST(GuardEnv, ArenaModeComesFromEnvironment) {
  const char* v = std::getenv("SHALOM_GUARD");
  if (v == nullptr || std::string(v) != "canary")
    GTEST_SKIP() << "run via the GuardEnv ctest wrapper";
  EXPECT_EQ(guard::arena_mode(), guard::ArenaMode::kCanary);
  AlignedBuffer buf;
  buf.reserve(64);
  EXPECT_EQ(buf.guard_zone(), guard::kGuardZoneBytes);
  EXPECT_TRUE(buf.verify_guards());
}

TEST(GuardEnv, WatchdogPeriodComesFromEnvironment) {
  const char* v = std::getenv("SHALOM_WATCHDOG_MS");
  if (v == nullptr) GTEST_SKIP() << "run via the GuardEnv ctest wrapper";
  const int want = std::atoi(v);
  EXPECT_EQ(guard::env_watchdog_ms(), want);
  Config cfg;
  EXPECT_EQ(cfg.watchdog_ms, want);
}

}  // namespace
}  // namespace shalom
