// Self-healing recovery battery: the recovery latch and the component
// health registry built from it, per-component recovery paths (kernel
// un-quarantine, thread-pool re-expansion, half-open stream breakers),
// forced recovery racing live traffic, and the C surface
// (shalom_health_report / shalom_recover_now). Labelled `health`;
// scripts/tier1.sh re-runs this suite under ThreadSanitizer and under
// SHALOM_RECOVERY_MS wrappers (disabled / tuned / malformed), so every
// test must be race-clean and must skip-or-adapt when the env wrapper
// changes the knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "common/health.h"
#include "common/selfcheck.h"
#include "core/engine.h"
#include "core/shalom.h"
#include "core/shalom_c.h"
#include "core/threadpool.h"
#include "tests/test_util.h"

namespace shalom {
namespace {

using health::Cause;
using health::Component;
using health::State;

void sleep_ms(long ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Breaker cool-downs live inside the stream (health::expire_cooldowns
/// cannot fast-forward them), so breaker tests genuinely sleep out the
/// base cool-down. Skip them when an env wrapper makes that unaffordable.
bool breaker_wait_affordable() { return health::env_recovery_ms() <= 2000; }

/// Thread-safe tolerance check (GTest assertions are not thread-safe;
/// worker threads tally mismatches, the main thread asserts).
bool matches_reference(const testing::Problem<float>& p) {
  const double tol = testing::gemm_tolerance<float>(p.k);
  for (index_t i = 0; i < p.m; ++i)
    for (index_t j = 0; j < p.n; ++j)
      if (std::fabs(static_cast<double>(p.c(i, j)) -
                    static_cast<double>(p.c_ref(i, j))) > tol)
        return false;
  return true;
}

class HealthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm_all();
    robustness_stats_reset();
    selfcheck::reset_for_testing();
    health::reset_for_testing();
  }
  void TearDown() override {
    fault::disarm_all();
    selfcheck::set_probe_body_for_testing(nullptr);
    selfcheck::reset_for_testing();
    health::reset_for_testing();
  }
};

// ---------------------------------------------------------------------------
// Env knobs
// ---------------------------------------------------------------------------

// SHALOM_RECOVERY_MS / SHALOM_PROBATION_N parse through the warn-once
// env funnel: defaults when unset, the parsed value when well-formed,
// the fallback when malformed. The tier1 HealthEnv wrappers re-run this
// test with each of those shapes.
TEST_F(HealthTest, EnvKnobsParseWithFallback) {
  const char* raw_ms = env::raw("SHALOM_RECOVERY_MS");
  const long ms = health::env_recovery_ms();
  if (raw_ms == nullptr) {
    EXPECT_EQ(ms, 250) << "default base cool-down";
  } else if (std::strcmp(raw_ms, "77") == 0) {
    EXPECT_EQ(ms, 77) << "well-formed override must win";
  } else if (std::strcmp(raw_ms, "banana") == 0) {
    EXPECT_EQ(ms, 250) << "malformed values fall back to the default";
  }
  EXPECT_GE(ms, 0);
  EXPECT_LE(ms, 3600000);
  EXPECT_EQ(health::recovery_enabled(), ms > 0);

  const char* raw_n = env::raw("SHALOM_PROBATION_N");
  const long n = health::env_probation_n();
  if (raw_n == nullptr) {
    EXPECT_EQ(n, 3) << "default probation streak";
  } else if (std::strcmp(raw_n, "5") == 0) {
    EXPECT_EQ(n, 5);
  }
  EXPECT_GE(n, 1);
  EXPECT_LE(n, 64);
}

// ---------------------------------------------------------------------------
// Registry state machine
// ---------------------------------------------------------------------------

TEST_F(HealthTest, RegistryDegradeProbateRecover) {
  EXPECT_TRUE(health::all_healthy());
  health::report_degraded(Component::kTunedTable, Cause::kOverload);
  EXPECT_EQ(health::state(Component::kTunedTable), State::kDegraded);
  EXPECT_EQ(health::latch(Component::kTunedTable).cause(), Cause::kOverload);
  EXPECT_FALSE(health::all_healthy());

  // Degrading again does not restart the cool-down, only the cause moves.
  health::report_degraded(Component::kTunedTable, Cause::kInjected);
  EXPECT_EQ(health::state(Component::kTunedTable), State::kDegraded);
  EXPECT_EQ(health::latch(Component::kTunedTable).cause(), Cause::kInjected);

  if (!health::recovery_enabled()) {
    EXPECT_FALSE(health::latch(Component::kTunedTable).try_begin_probation())
        << "SHALOM_RECOVERY_MS=0 must keep every latch permanent";
    return;
  }
  // Cool-down still pending: probation refused.
  EXPECT_FALSE(health::latch(Component::kTunedTable).try_begin_probation());
  health::expire_cooldowns();
  EXPECT_TRUE(health::latch(Component::kTunedTable).try_begin_probation());
  EXPECT_EQ(health::state(Component::kTunedTable), State::kProbation);
  // The probation owner is exclusive.
  EXPECT_FALSE(health::latch(Component::kTunedTable).try_begin_probation());
  health::latch(Component::kTunedTable).end_probation(true);
  EXPECT_EQ(health::state(Component::kTunedTable), State::kHealthy);
  EXPECT_TRUE(health::all_healthy());
  EXPECT_GE(robustness_stats().recoveries, 1u);
}

TEST_F(HealthTest, RegistryRecoveredCountsOnlyTransitions) {
  health::report_degraded(Component::kTunedTable, Cause::kOverload);
  health::report_recovered(Component::kTunedTable);
  EXPECT_EQ(health::state(Component::kTunedTable), State::kHealthy);
  EXPECT_EQ(robustness_stats().recoveries, 1u);
  // Already healthy: the success path is idempotent and free.
  health::report_recovered(Component::kTunedTable);
  health::report_recovered(Component::kTunedTable);
  EXPECT_EQ(robustness_stats().recoveries, 1u);
}

TEST_F(HealthTest, RegistryProbationFailureDoublesBackoffCapped) {
  if (!health::recovery_enabled())
    GTEST_SKIP() << "recovery disabled (SHALOM_RECOVERY_MS=0)";
  const std::uint64_t base =
      static_cast<std::uint64_t>(health::env_recovery_ms());
  health::report_degraded(Component::kTunedTable, Cause::kOverload);
  EXPECT_EQ(health::component_report(Component::kTunedTable).backoff_ms,
            base);

  std::uint64_t want = base;
  for (int i = 0; i < 9; ++i) {
    health::expire_cooldowns();
    ASSERT_TRUE(health::latch(Component::kTunedTable).try_begin_probation());
    health::latch(Component::kTunedTable).end_probation(false);
    EXPECT_EQ(health::state(Component::kTunedTable), State::kDegraded);
    want = std::min<std::uint64_t>(want * 2, base * 64);
    EXPECT_EQ(health::component_report(Component::kTunedTable).backoff_ms,
              want)
        << "failure #" << i + 1
        << " must double the cool-down, capped at 64x base";
  }
  EXPECT_EQ(robustness_stats().probation_failures, 9u);
  // One clean probation resets the backoff to the base.
  health::expire_cooldowns();
  ASSERT_TRUE(health::latch(Component::kTunedTable).try_begin_probation());
  health::latch(Component::kTunedTable).end_probation(true);
  health::report_degraded(Component::kTunedTable, Cause::kOverload);
  EXPECT_EQ(health::component_report(Component::kTunedTable).backoff_ms,
            base);
}

TEST_F(HealthTest, RegistryQuarantineIsSticky) {
  health::latch(Component::kKernels).quarantine(Cause::kTrap);
  EXPECT_EQ(health::state(Component::kKernels), State::kQuarantined);
  health::expire_cooldowns();
  EXPECT_FALSE(health::latch(Component::kKernels).try_begin_probation())
      << "terminal evidence is never re-probed";
  health::report_recovered(Component::kKernels);
  EXPECT_EQ(health::state(Component::kKernels), State::kQuarantined);
  health::report_degraded(Component::kKernels, Cause::kMismatch);
  EXPECT_EQ(health::state(Component::kKernels), State::kQuarantined);
  EXPECT_EQ(health::latch(Component::kKernels).cause(), Cause::kTrap)
      << "quarantine evidence outranks later degradations";
}

// Under the SHALOM_RECOVERY_MS=0 wrapper every pre-recovery latch must
// behave exactly as it did before this layer existed: permanent.
TEST_F(HealthTest, RecoveryDisabledPreservesPermanentLatch) {
  if (health::recovery_enabled())
    GTEST_SKIP() << "needs the SHALOM_RECOVERY_MS=0 wrapper";
  health::report_degraded(Component::kTunedTable, Cause::kOverload);
  health::expire_cooldowns();
  EXPECT_FALSE(health::latch(Component::kTunedTable).try_begin_probation());
  EXPECT_EQ(health::recover_now(), 0)
      << "recover_now must be inert with recovery disabled";
  EXPECT_EQ(health::state(Component::kTunedTable), State::kDegraded);

  selfcheck::quarantine(selfcheck::Variant::kMainF32PackedPacked,
                        Cause::kInjected);
  EXPECT_FALSE(selfcheck::try_recover_quarantined());
  EXPECT_EQ(selfcheck::status(selfcheck::Variant::kMainF32PackedPacked),
            selfcheck::Status::kQuarantined)
      << "a quarantined kernel stays quarantined forever";
  EXPECT_EQ(shalom_recover_now(), 0);
}

// The windowed probation a stream breaker runs on, driven directly: a
// window admits exactly SHALOM_PROBATION_N trials, a trial reported
// against a window that already ended counts toward nothing, and the
// N-th clean trial of the current window closes it.
TEST_F(HealthTest, LatchWindowBoundsTrialsAndIgnoresStaleOnes) {
  if (!health::recovery_enabled())
    GTEST_SKIP() << "recovery disabled (SHALOM_RECOVERY_MS=0)";
  const long n = health::env_probation_n();
  health::Latch latch;
  health::Latch::Window first = 0;
  EXPECT_FALSE(latch.admit_trial(&first)) << "no window while HEALTHY";
  ASSERT_TRUE(latch.degrade(Cause::kOverload));
  EXPECT_FALSE(latch.try_begin_probation()) << "cool-down pending";
  latch.expire();
  ASSERT_TRUE(latch.try_begin_probation());
  EXPECT_FALSE(latch.try_begin_probation()) << "the window is open";
  for (long i = 0; i < n; ++i) ASSERT_TRUE(latch.admit_trial(&first));
  health::Latch::Window extra = 0;
  EXPECT_FALSE(latch.admit_trial(&extra)) << "window full at N";

  // One failed trial re-latches with a doubled cool-down; the window's
  // other trials are now stale.
  EXPECT_TRUE(latch.end_trial(first, false));
  EXPECT_EQ(latch.state(), State::kDegraded);
  EXPECT_EQ(latch.report().backoff_ms,
            2 * static_cast<std::uint64_t>(health::env_recovery_ms()));
  EXPECT_EQ(robustness_stats().probation_failures, 1u);
  sleep_ms(2);  // the next window opens in a later millisecond
  latch.expire();
  ASSERT_TRUE(latch.try_begin_probation());
  health::Latch::Window second = 0;
  ASSERT_TRUE(latch.admit_trial(&second));
  EXPECT_NE(second, first);
  for (long i = 0; i < n; ++i)
    EXPECT_FALSE(latch.end_trial(first, true)) << "stale trial ignored";
  EXPECT_EQ(latch.state(), State::kProbation);

  for (long i = 1; i < n; ++i) ASSERT_TRUE(latch.admit_trial(&second));
  for (long i = 0; i + 1 < n; ++i) EXPECT_FALSE(latch.end_trial(second, true));
  EXPECT_TRUE(latch.end_trial(second, true)) << "the N-th clean trial";
  EXPECT_EQ(latch.state(), State::kHealthy);
  EXPECT_EQ(latch.report().backoff_ms,
            static_cast<std::uint64_t>(health::env_recovery_ms()));
  EXPECT_EQ(robustness_stats().recoveries, 1u);
  EXPECT_FALSE(latch.end_trial(second, true)) << "window already closed";
}

TEST_F(HealthTest, RegistryNamesAreStable) {
  EXPECT_STREQ(health::component_name(Component::kKernels), "kernels");
  EXPECT_STREQ(health::component_name(Component::kStreamBreaker),
               "stream_breaker");
  EXPECT_STREQ(health::component_name(Component::kTunedTable),
               "tuned_table");
  EXPECT_STREQ(health::state_name(State::kProbation), "PROBATION");
  EXPECT_STREQ(health::cause_name(Cause::kOverload), "overload");
  for (int c = 0; c < health::kComponentCount; ++c)
    EXPECT_STRNE(health::component_name(static_cast<Component>(c)),
                 "unknown");
  // The C ids index the same rows (core/shalom_c.h).
  EXPECT_EQ(SHALOM_HEALTH_COMPONENT_COUNT, health::kComponentCount);
  EXPECT_EQ(SHALOM_HEALTH_KERNELS, static_cast<int>(Component::kKernels));
  EXPECT_EQ(SHALOM_HEALTH_THREADPOOL,
            static_cast<int>(Component::kThreadPool));
  EXPECT_EQ(SHALOM_HEALTH_STREAM_BREAKER,
            static_cast<int>(Component::kStreamBreaker));
  EXPECT_EQ(SHALOM_HEALTH_TUNED_TABLE,
            static_cast<int>(Component::kTunedTable));
}

// ---------------------------------------------------------------------------
// Kernel recovery (selfcheck quarantine <-> health registry)
// ---------------------------------------------------------------------------

TEST_F(HealthTest, KernelQuarantineRecordsCause) {
  const selfcheck::Variant v = selfcheck::Variant::kFusedNnF32;
  EXPECT_EQ(selfcheck::quarantine_cause(v), Cause::kNone);
  selfcheck::quarantine(v, Cause::kInjected);
  EXPECT_EQ(selfcheck::status(v), selfcheck::Status::kQuarantined);
  EXPECT_EQ(selfcheck::quarantine_cause(v), Cause::kInjected);
  EXPECT_EQ(health::state(Component::kKernels), State::kDegraded);
  EXPECT_EQ(health::latch(Component::kKernels).cause(), Cause::kInjected);
}

TEST_F(HealthTest, KernelInjectedQuarantineRecovers) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  if (!health::recovery_enabled())
    GTEST_SKIP() << "recovery disabled (SHALOM_RECOVERY_MS=0)";
  const selfcheck::Variant v = selfcheck::Variant::kMainF32PackedPacked;
  fault::arm(fault::Site::kSelfcheckProbe, fault::Mode::kEveryN, 1);
  EXPECT_FALSE(selfcheck::variant_ok(v));
  fault::disarm_all();
  ASSERT_EQ(selfcheck::status(v), selfcheck::Status::kQuarantined);
  ASSERT_EQ(selfcheck::quarantine_cause(v), Cause::kInjected);

  health::expire_cooldowns();
  EXPECT_TRUE(selfcheck::try_recover_quarantined());
  EXPECT_EQ(selfcheck::status(v), selfcheck::Status::kVerified)
      << "a clean probation streak must restore the variant";
  EXPECT_EQ(selfcheck::quarantine_cause(v), Cause::kNone);
  EXPECT_EQ(health::state(Component::kKernels), State::kHealthy);
  EXPECT_GE(robustness_stats().recoveries, 1u);
  EXPECT_GE(robustness_stats().probation_probes,
            static_cast<std::uint64_t>(health::env_probation_n()));
}

TEST_F(HealthTest, KernelTrapCauseIsPermanent) {
  if (!health::recovery_enabled())
    GTEST_SKIP() << "recovery disabled (SHALOM_RECOVERY_MS=0)";
  const selfcheck::Variant v = selfcheck::Variant::kMainF32PackedPacked256;
  selfcheck::quarantine(v);  // default cause: kTrap (positive evidence)
  ASSERT_EQ(selfcheck::quarantine_cause(v), Cause::kTrap);

  health::expire_cooldowns();
  EXPECT_FALSE(selfcheck::try_recover_quarantined())
      << "trap-cause variants are skipped, so the component stays down";
  EXPECT_EQ(selfcheck::status(v), selfcheck::Status::kQuarantined);
  EXPECT_EQ(health::state(Component::kKernels), State::kDegraded);
  EXPECT_GE(robustness_stats().probation_failures, 1u);
}

TEST_F(HealthTest, KernelProbeFaultRelatchesWithDoubledBackoff) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  if (!health::recovery_enabled())
    GTEST_SKIP() << "recovery disabled (SHALOM_RECOVERY_MS=0)";
  const std::uint64_t base =
      static_cast<std::uint64_t>(health::env_recovery_ms());
  const selfcheck::Variant v = selfcheck::Variant::kEdgeF64PackedPacked;
  selfcheck::quarantine(v, Cause::kInjected);

  // The recovery machinery itself is fault-injectable: an injected
  // health.probe failure behaves exactly like a genuinely failed probe.
  health::expire_cooldowns();
  fault::arm(fault::Site::kHealthProbe, fault::Mode::kEveryN, 1);
  EXPECT_FALSE(selfcheck::try_recover_quarantined());
  fault::disarm_all();
  EXPECT_EQ(selfcheck::status(v), selfcheck::Status::kQuarantined);
  EXPECT_EQ(health::state(Component::kKernels), State::kDegraded);
  EXPECT_EQ(health::component_report(Component::kKernels).backoff_ms,
            base * 2)
      << "a failed probation must double the cool-down";
  EXPECT_GE(robustness_stats().probation_failures, 1u);

  // With the fault gone the next probation restores the variant.
  health::expire_cooldowns();
  EXPECT_TRUE(selfcheck::try_recover_quarantined());
  EXPECT_EQ(selfcheck::status(v), selfcheck::Status::kVerified);
}

TEST_F(HealthTest, KernelPassiveVariantOkRecovers) {
  if (!health::recovery_enabled())
    GTEST_SKIP() << "recovery disabled (SHALOM_RECOVERY_MS=0)";
  const selfcheck::Variant v = selfcheck::Variant::kMainF64DirectDirect;
  selfcheck::quarantine(v, Cause::kMismatch);
  ASSERT_FALSE(selfcheck::variant_ok(v))
      << "cool-down still pending: dispatch keeps routing around it";

  health::expire_cooldowns();
  // No explicit recover call: dispatching the quarantined variant is
  // itself the probation trigger.
  EXPECT_TRUE(selfcheck::variant_ok(v));
  EXPECT_EQ(selfcheck::status(v), selfcheck::Status::kVerified);
  EXPECT_EQ(health::state(Component::kKernels), State::kHealthy);
}

/// A probe body that reports trap evidence against the variant it is
/// probing (as a guard rail would mid-probe) and then passes.
bool quarantine_with_trap_then_pass(selfcheck::Variant v) {
  selfcheck::quarantine(v, Cause::kTrap);
  return true;
}

// Trap evidence that lands while a recoverable quarantine is being
// re-probed is terminal: the clean streak must neither restore the
// variant nor erase the cause, and the kernels row stays out of service.
TEST_F(HealthTest, KernelTrapDuringReprobeStaysTerminal) {
  if (!health::recovery_enabled())
    GTEST_SKIP() << "recovery disabled (SHALOM_RECOVERY_MS=0)";
  const selfcheck::Variant v = selfcheck::Variant::kEdgeF32DirectPacked;
  selfcheck::quarantine(v, Cause::kMismatch);
  ASSERT_EQ(selfcheck::quarantine_cause(v), Cause::kMismatch);

  selfcheck::set_probe_body_for_testing(&quarantine_with_trap_then_pass);
  health::expire_cooldowns();
  EXPECT_FALSE(selfcheck::try_recover_quarantined());
  selfcheck::set_probe_body_for_testing(nullptr);
  EXPECT_EQ(selfcheck::status(v), selfcheck::Status::kQuarantined);
  EXPECT_EQ(selfcheck::quarantine_cause(v), Cause::kTrap);
  EXPECT_NE(health::state(Component::kKernels), State::kHealthy);

  // Terminal: a later sweep with honest probes does not re-probe it.
  health::expire_cooldowns();
  EXPECT_FALSE(selfcheck::try_recover_quarantined());
  EXPECT_EQ(selfcheck::status(v), selfcheck::Status::kQuarantined);
  EXPECT_EQ(selfcheck::quarantine_cause(v), Cause::kTrap);
}

// First dispatches whose probes all fail race a guard-rail trap
// quarantine of the same variant: the variant leaves service exactly
// once, and the trap evidence decides where it ends.
TEST_F(HealthTest, KernelFirstProbesRacingTrapQuarantineCountOnce) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  const selfcheck::Variant v = selfcheck::Variant::kFusedTnF64;
  const std::uint64_t before = robustness_stats().kernels_quarantined;
  fault::arm(fault::Site::kSelfcheckProbe, fault::Mode::kEveryN, 1);
  std::atomic<bool> go{false};
  std::atomic<int> dispatched{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t)
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      if (selfcheck::variant_ok(v)) dispatched.fetch_add(1);
    });
  threads.emplace_back([&] {
    while (!go.load()) std::this_thread::yield();
    selfcheck::quarantine(v, Cause::kTrap);
  });
  go.store(true);
  for (std::thread& t : threads) t.join();
  fault::disarm_all();

  EXPECT_EQ(robustness_stats().kernels_quarantined - before, 1u);
  EXPECT_EQ(dispatched.load(), 0);
  EXPECT_EQ(selfcheck::status(v), selfcheck::Status::kQuarantined);
  EXPECT_EQ(selfcheck::quarantine_cause(v), Cause::kTrap);
  health::expire_cooldowns();
  EXPECT_FALSE(selfcheck::try_recover_quarantined())
      << "the trap verdict is terminal";
}

// ---------------------------------------------------------------------------
// Thread-pool recovery (spawn-narrowed width re-expansion)
// ---------------------------------------------------------------------------

TEST_F(HealthTest, PoolRespawnRestoresWidth) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  fault::arm(fault::Site::kThreadpoolSpawn, fault::Mode::kFailAfter, 1);
  ThreadPool pool(4);
  fault::disarm_all();
  ASSERT_EQ(pool.max_threads(), 2)
      << "second spawn fails: slot 1 runs, slots 2-3 stay threadless";
  EXPECT_EQ(health::state(Component::kThreadPool), State::kDegraded);
  EXPECT_EQ(health::latch(Component::kThreadPool).cause(), Cause::kInjected);

  EXPECT_TRUE(pool.try_recover());
  EXPECT_EQ(pool.max_threads(), 4)
      << "recovery must re-attach threads to the allocated slots";
  // The restored width genuinely executes 4-way rounds.
  std::atomic<int> ran{0};
  pool.parallel_for(4, [&ran](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

TEST_F(HealthTest, PoolRespawnFaultKeepsNarrowWidth) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  fault::arm(fault::Site::kThreadpoolSpawn, fault::Mode::kFailAfter, 1);
  ThreadPool pool(4);
  fault::disarm_all();
  ASSERT_EQ(pool.max_threads(), 2);

  // The respawn probe itself is fault-injectable and fails closed: the
  // pool keeps the width it has, never a half-attached worker.
  fault::arm(fault::Site::kHealthRespawn, fault::Mode::kEveryN, 1);
  EXPECT_FALSE(pool.try_recover());
  fault::disarm_all();
  EXPECT_EQ(pool.max_threads(), 2);

  EXPECT_TRUE(pool.try_recover());
  EXPECT_EQ(pool.max_threads(), 4);
}

TEST_F(HealthTest, PoolGlobalHookRunsProbation) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  if (!health::recovery_enabled())
    GTEST_SKIP() << "recovery disabled (SHALOM_RECOVERY_MS=0)";
  // Narrow a pool so the component degrades, and degrade a hook-less
  // component alongside it.
  fault::arm(fault::Site::kThreadpoolSpawn, fault::Mode::kFailAfter, 1);
  ThreadPool pool(4);
  fault::disarm_all();
  ASSERT_EQ(health::state(Component::kThreadPool), State::kDegraded);
  health::report_degraded(Component::kTunedTable, Cause::kOverload);

  health::expire_cooldowns();
  EXPECT_GE(health::recover_now(), 1)
      << "the registered kThreadPool hook must run its probation";
  EXPECT_EQ(health::state(Component::kThreadPool), State::kHealthy);
  EXPECT_GE(robustness_stats().probation_probes, 1u);
  EXPECT_GE(robustness_stats().recoveries, 1u);
  // The tuned table registers no hook (its recovery is passive, on the
  // next successful load or save), so recover_now leaves it degraded.
  EXPECT_EQ(health::state(Component::kTunedTable), State::kDegraded);
}

// A spawn failure reported while another caller's kThreadPool probation
// runs is dropped by the latch, and that probation can then end HEALTHY
// over a narrow pool. Set that state up directly (narrow the global pool,
// then reset the registry): pool_run must re-report the pool so its
// probation still runs and spawns the missing workers.
TEST_F(HealthTest, NarrowPoolReadingHealthyStillReachesProbation) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  if (!health::recovery_enabled())
    GTEST_SKIP() << "recovery disabled (SHALOM_RECOVERY_MS=0)";
  ThreadPool& pool = ThreadPool::global(1);
  ASSERT_TRUE(pool.try_recover());
  const int wide = pool.max_threads() + 2;
  fault::arm(fault::Site::kThreadpoolSpawn, fault::Mode::kEveryN, 1);
  ThreadPool::global(wide);
  fault::disarm_all();
  ASSERT_LT(pool.max_threads(), wide);
  health::reset_for_testing();
  ASSERT_EQ(health::state(Component::kThreadPool), State::kHealthy);

  std::atomic<int> ran{0};
  pool_run(wide, [&ran](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), wide);
  EXPECT_EQ(health::state(Component::kThreadPool), State::kDegraded)
      << "the narrow path must report the narrowed pool";

  health::expire_cooldowns();
  ran.store(0);
  pool_run(wide, [&ran](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), wide);
  EXPECT_EQ(pool.max_threads(), wide) << "the probation re-spawned";
  EXPECT_EQ(health::state(Component::kThreadPool), State::kHealthy);
}

// ---------------------------------------------------------------------------
// Stream breaker recovery (half-open trials)
// ---------------------------------------------------------------------------

/// Latches `stream`'s breaker deterministically: breaker_threshold must
/// be 1 and retry_budget 0; one armed submit.queue failure trips it.
void latch_stream(engine::GemmStream& stream) {
  testing::Problem<float> p({Trans::N, Trans::N}, 16, 16, 16);
  fault::arm(fault::Site::kSubmitQueue, fault::Mode::kEveryN, 1);
  EXPECT_THROW(stream.submit<float>(p.mode, p.m, p.n, p.k, 1.0f,
                                    p.a.data(), p.a.ld(), p.b.data(),
                                    p.b.ld(), 0.0f, p.c.data(), p.c.ld()),
               std::bad_alloc);
  fault::disarm_all();
  ASSERT_EQ(stream.health(), engine::StreamHealth::kDegraded);
}

TEST_F(HealthTest, BreakerHalfOpenClosesAfterCleanTrials) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  if (!health::recovery_enabled())
    GTEST_SKIP() << "recovery disabled (SHALOM_RECOVERY_MS=0)";
  if (!breaker_wait_affordable())
    GTEST_SKIP() << "SHALOM_RECOVERY_MS too large to sleep out";
  const long base = health::env_recovery_ms();
  const long n = health::env_probation_n();

  engine::StreamOptions opts;
  opts.retry_budget = 0;
  opts.breaker_threshold = 1;
  engine::GemmStream stream(opts);
  latch_stream(stream);
  EXPECT_EQ(health::state(Component::kStreamBreaker), State::kDegraded);

  // Inside the cool-down the stream serves inline: degraded status, but
  // bitwise-correct work (acceptance mid-recovery must never be wrong).
  testing::Problem<float> inline_p({Trans::N, Trans::T}, 24, 18, 12);
  engine::TicketPtr inline_t = stream.submit<float>(
      inline_p.mode, inline_p.m, inline_p.n, inline_p.k, 1.0f,
      inline_p.a.data(), inline_p.a.ld(), inline_p.b.data(),
      inline_p.b.ld(), 0.0f, inline_p.c.data(), inline_p.c.ld());
  EXPECT_EQ(inline_t->wait(), SHALOM_DEGRADED);
  inline_p.run_reference(1.0f, 0.0f);
  inline_p.expect_matches("inline while latched");

  sleep_ms(base + 150);  // cool-down elapses: the breaker goes half-open
  std::vector<testing::Problem<float>> trials;
  std::vector<engine::TicketPtr> tickets;
  trials.reserve(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    trials.emplace_back(Mode{Trans::N, Trans::N}, 20, 20, 20);
    testing::Problem<float>& p = trials.back();
    tickets.push_back(stream.submit<float>(
        p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
        p.b.ld(), 0.0f, p.c.data(), p.c.ld()));
    if (i == 0 && n > 1) {
      EXPECT_EQ(stream.health(), engine::StreamHealth::kRecovering)
          << "mid-streak the stream must advertise the half-open trials";
    }
  }
  EXPECT_EQ(stream.flush(), SHALOM_OK)
      << "the clean trial streak must close the breaker";
  EXPECT_EQ(stream.health(), engine::StreamHealth::kOk);
  EXPECT_EQ(health::state(Component::kStreamBreaker), State::kHealthy);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    ASSERT_EQ(tickets[i]->wait(), SHALOM_OK)
        << "trial requests run through the real queue";
    trials[i].run_reference(1.0f, 0.0f);
    trials[i].expect_matches("half-open trial");
  }
  const RobustnessStats rs = robustness_stats();
  EXPECT_GE(rs.breaker_half_opens, 1u);
  EXPECT_GE(rs.recoveries, 1u);
  EXPECT_GE(rs.probation_probes, static_cast<std::uint64_t>(n));
}

TEST_F(HealthTest, BreakerTrialFailureReopensWithDoubledBackoff) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  if (!health::recovery_enabled())
    GTEST_SKIP() << "recovery disabled (SHALOM_RECOVERY_MS=0)";
  if (health::env_recovery_ms() > 1000)
    GTEST_SKIP() << "SHALOM_RECOVERY_MS too large to sleep out twice";
  const long base = health::env_recovery_ms();
  const long n = health::env_probation_n();

  engine::StreamOptions opts;
  opts.retry_budget = 0;
  opts.breaker_threshold = 1;
  engine::GemmStream stream(opts);
  latch_stream(stream);

  // First half-open trial hits the same transient fault: the breaker
  // re-opens, the request falls back inline with a correct result.
  sleep_ms(base + 150);
  testing::Problem<float> p({Trans::N, Trans::N}, 20, 20, 20);
  fault::arm(fault::Site::kSubmitQueue, fault::Mode::kEveryN, 1);
  engine::TicketPtr t = stream.submit<float>(
      p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
      p.b.ld(), 0.0f, p.c.data(), p.c.ld());
  fault::disarm_all();
  EXPECT_EQ(t->wait(), SHALOM_DEGRADED)
      << "a failed trial falls back to inline execution";
  p.run_reference(1.0f, 0.0f);
  p.expect_matches("failed trial served inline");
  EXPECT_EQ(stream.health(), engine::StreamHealth::kDegraded);
  EXPECT_GE(robustness_stats().probation_failures, 1u);

  // The cool-down doubled: after only the base wait the breaker must
  // still be closed to trials (submits keep running inline).
  sleep_ms(base / 2);
  testing::Problem<float> still({Trans::N, Trans::N}, 16, 16, 16);
  engine::TicketPtr ts = stream.submit<float>(
      still.mode, still.m, still.n, still.k, 1.0f, still.a.data(),
      still.a.ld(), still.b.data(), still.b.ld(), 0.0f, still.c.data(),
      still.c.ld());
  EXPECT_EQ(ts->wait(), SHALOM_DEGRADED)
      << "inside the doubled cool-down every submit stays inline";

  // After the doubled cool-down a clean streak closes the breaker.
  sleep_ms(2 * base + 200);
  std::vector<testing::Problem<float>> trials;
  std::vector<engine::TicketPtr> tickets;
  for (long i = 0; i < n; ++i) {
    trials.emplace_back(Mode{Trans::N, Trans::N}, 20, 20, 20);
    testing::Problem<float>& q = trials.back();
    tickets.push_back(stream.submit<float>(
        q.mode, q.m, q.n, q.k, 1.0f, q.a.data(), q.a.ld(), q.b.data(),
        q.b.ld(), 0.0f, q.c.data(), q.c.ld()));
  }
  EXPECT_EQ(stream.flush(), SHALOM_OK);
  EXPECT_EQ(stream.health(), engine::StreamHealth::kOk);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    ASSERT_EQ(tickets[i]->wait(), SHALOM_OK);
    trials[i].run_reference(1.0f, 0.0f);
    trials[i].expect_matches("trial after doubled cool-down");
  }
}

TEST_F(HealthTest, BreakerSynchronousStreamStaysLatched) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  if (!breaker_wait_affordable())
    GTEST_SKIP() << "SHALOM_RECOVERY_MS too large to sleep out";
  // A drainer-spawn failure has no queue to probe back into: the stream
  // is synchronous for life and never advertises RECOVERING.
  engine::StreamOptions opts;
  opts.retry_budget = 0;
  fault::arm(fault::Site::kThreadpoolSpawn, fault::Mode::kEveryN, 1);
  engine::GemmStream stream(opts);
  fault::disarm_all();
  ASSERT_EQ(stream.health(), engine::StreamHealth::kDegraded);

  sleep_ms(health::env_recovery_ms() + 150);
  testing::Problem<float> p({Trans::N, Trans::N}, 24, 24, 24);
  engine::TicketPtr t = stream.submit<float>(
      p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
      p.b.ld(), 0.0f, p.c.data(), p.c.ld());
  EXPECT_EQ(t->wait(), SHALOM_DEGRADED);
  p.run_reference(1.0f, 0.0f);
  p.expect_matches("synchronous stream after cool-down");
  EXPECT_EQ(stream.health(), engine::StreamHealth::kDegraded)
      << "no way back: a spawn-degraded stream never goes half-open";
  EXPECT_EQ(robustness_stats().breaker_half_opens, 0u);
}

// Closing a latched stream drops it out of the breaker census and clears
// the kStreamBreaker aggregate without counting a recovery: nothing was
// restored. The SHALOM_RECOVERY_MS=0 wrapper runs this too - with
// recovery disabled, no path may count one.
TEST_F(HealthTest, BreakerCloseWhileLatchedCountsNoRecovery) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  {
    engine::StreamOptions opts;
    opts.retry_budget = 0;
    opts.breaker_threshold = 1;
    engine::GemmStream stream(opts);
    latch_stream(stream);
    ASSERT_EQ(health::state(Component::kStreamBreaker), State::kDegraded);
  }
  EXPECT_EQ(health::state(Component::kStreamBreaker), State::kHealthy)
      << "the last latched stream leaving clears the aggregate";
  EXPECT_EQ(robustness_stats().recoveries, 0u)
      << "destroying a latched stream is not a recovery";
}

// M > N submitters race into one half-open window. The latch admits at
// most SHALOM_PROBATION_N trials per window and each admitted trial
// counts one probation probe, so however the admissions interleave the
// probe counter grows by at most N, one window opens, and its N clean
// trials close the breaker. Also registered under the `stress` label.
TEST_F(HealthTest, BreakerHalfOpenWindowAdmitsAtMostN) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  if (!health::recovery_enabled())
    GTEST_SKIP() << "recovery disabled (SHALOM_RECOVERY_MS=0)";
  if (!breaker_wait_affordable())
    GTEST_SKIP() << "SHALOM_RECOVERY_MS too large to sleep out";
  const long n = health::env_probation_n();
  const int submitters = static_cast<int>(std::min<long>(4 * n + 4, 24));

  engine::StreamOptions opts;
  opts.retry_budget = 0;
  opts.breaker_threshold = 1;
  engine::GemmStream stream(opts);
  latch_stream(stream);
  sleep_ms(health::env_recovery_ms() + 150);  // the window may now open
  const RobustnessStats before = robustness_stats();

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(submitters));
  for (int ti = 0; ti < submitters; ++ti) {
    threads.emplace_back([&, ti] {
      testing::Problem<float> p({Trans::N, Trans::N}, 16, 16, 8 + ti % 8);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      engine::TicketPtr t = stream.submit<float>(
          p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
          p.b.ld(), 0.0f, p.c.data(), p.c.ld());
      const int rc = t->wait();
      if (rc != SHALOM_OK && rc != SHALOM_DEGRADED) failures.fetch_add(1);
      p.run_reference(1.0f, 0.0f);
      if (!matches_reference(p)) failures.fetch_add(1);
    });
  }
  while (ready.load() < submitters) std::this_thread::yield();
  go.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stream.flush(), SHALOM_OK);

  const RobustnessStats after = robustness_stats();
  EXPECT_LE(after.probation_probes - before.probation_probes,
            static_cast<std::uint64_t>(n))
      << "one half-open window admits at most SHALOM_PROBATION_N trials";
  EXPECT_EQ(after.breaker_half_opens - before.breaker_half_opens, 1u);
  EXPECT_EQ(after.probation_failures, before.probation_failures);
  EXPECT_EQ(stream.health(), engine::StreamHealth::kOk)
      << "the window's clean trials must close the breaker";
  EXPECT_EQ(health::state(Component::kStreamBreaker), State::kHealthy);
}

// A half-open trial that admission control sheds still reports to its
// window (as a failed trial). Otherwise the window stays full, no later
// window can open, and the stream reports RECOVERING until close.
TEST_F(HealthTest, BreakerShedTrialStillReportsToItsWindow) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  if (!health::recovery_enabled())
    GTEST_SKIP() << "recovery disabled (SHALOM_RECOVERY_MS=0)";
  if (health::env_recovery_ms() > 1000)
    GTEST_SKIP() << "SHALOM_RECOVERY_MS too large to sleep out twice";
  const long base = health::env_recovery_ms();
  const long n = health::env_probation_n();
  if (n < 2) GTEST_SKIP() << "needs SHALOM_PROBATION_N >= 2";

  engine::StreamOptions opts;
  opts.threads = 1;
  opts.retry_budget = 0;
  opts.breaker_threshold = 1;
  opts.queue_cap = 1;
  opts.overload_policy =
      static_cast<int>(engine::OverloadPolicy::kShedNewest);
  engine::GemmStream stream(opts);
  latch_stream(stream);
  sleep_ms(base + 150);  // the trial window may now open

  // The first trial keeps the drainer busy for far longer than the next
  // submits take, so with a queue of one at least one later trial of
  // the same window is shed.
  testing::Problem<float> busy({Trans::N, Trans::N}, 512, 512, 512);
  engine::TicketPtr tb = stream.submit<float>(
      busy.mode, busy.m, busy.n, busy.k, 1.0f, busy.a.data(), busy.a.ld(),
      busy.b.data(), busy.b.ld(), 0.0f, busy.c.data(), busy.c.ld());
  std::vector<testing::Problem<float>> rest;
  std::vector<engine::TicketPtr> tickets;
  rest.reserve(static_cast<std::size_t>(n));
  int shed = 0;
  for (long i = 1; i < n; ++i) {
    rest.emplace_back(Mode{Trans::N, Trans::N}, 12, 12, 12);
    testing::Problem<float>& p = rest.back();
    try {
      tickets.push_back(stream.submit<float>(
          p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
          p.b.ld(), 0.0f, p.c.data(), p.c.ld()));
    } catch (const rejected_error&) {
      ++shed;
      tickets.push_back(nullptr);
    }
  }
  ASSERT_GE(shed, 1) << "the busy trial did not keep the queue full";
  EXPECT_EQ(tb->wait(), SHALOM_OK);
  busy.run_reference(1.0f, 0.0f);
  busy.expect_matches("busy trial");
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    if (tickets[i] == nullptr) continue;
    // Queued as a trial, or run inline once a shed trial re-latched.
    const int rc = tickets[i]->wait();
    EXPECT_TRUE(rc == SHALOM_OK || rc == SHALOM_DEGRADED) << rc;
    rest[i].run_reference(1.0f, 0.0f);
    rest[i].expect_matches("submit beside the busy trial");
  }
  EXPECT_GE(robustness_stats().probation_failures, 1u)
      << "the shed trial must count as a failed probation";
  EXPECT_EQ(stream.health(), engine::StreamHealth::kDegraded)
      << "a failed trial re-latches the breaker";

  // After the doubled cool-down a fresh window opens, and its clean
  // trials (one at a time, so none meets a full queue) close the breaker.
  sleep_ms(2 * base + 200);
  for (long i = 0; i < n; ++i) {
    testing::Problem<float> p({Trans::N, Trans::N}, 20, 20, 20);
    engine::TicketPtr t = stream.submit<float>(
        p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
        p.b.ld(), 0.0f, p.c.data(), p.c.ld());
    ASSERT_EQ(t->wait(), SHALOM_OK) << "trial " << i << " ran inline";
    p.run_reference(1.0f, 0.0f);
    p.expect_matches("trial in a later window");
  }
  EXPECT_EQ(stream.health(), engine::StreamHealth::kOk)
      << "the later window's clean trials must close the breaker";
  EXPECT_EQ(health::state(Component::kStreamBreaker), State::kHealthy);
}

// ---------------------------------------------------------------------------
// Forced recovery racing live traffic
// ---------------------------------------------------------------------------

// TSan target: recover_now passes racing stream submitters, a kernel
// variant being restored under the dispatching submitters, and raw
// registry churn must be clean, and every accepted result correct.
TEST_F(HealthTest, RecoverNowRacesSubmitters) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  constexpr int kRecoverers = 2;
  const selfcheck::Variant v = selfcheck::Variant::kMainF32PackedPacked;
  selfcheck::quarantine(v, Cause::kInjected);  // real work for the passes
  engine::GemmStream stream;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> recoverers;
  recoverers.reserve(kRecoverers);
  for (int i = 0; i < kRecoverers; ++i) {
    recoverers.emplace_back([&done] {
      do {
        (void)health::recover_now();
        std::this_thread::yield();
      } while (!done.load());
    });
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&stream, &failures, ti] {
      for (int i = 0; i < kPerThread; ++i) {
        testing::Problem<float> p({Trans::N, Trans::N}, 24, 24,
                                  16 + (ti + i) % 8);
        engine::TicketPtr t = stream.submit<float>(
            p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(),
            p.b.data(), p.b.ld(), 0.0f, p.c.data(), p.c.ld());
        const int rc = t->wait();
        if (rc != SHALOM_OK && rc != SHALOM_DEGRADED) failures.fetch_add(1);
        p.run_reference(1.0f, 0.0f);
        if (!matches_reference(p)) failures.fetch_add(1);
      }
    });
  }
  // Registry churn racing the recover_now sweeps.
  std::thread churn([] {
    for (int i = 0; i < 200; ++i) {
      health::report_degraded(Component::kTunedTable, Cause::kOverload);
      health::report_recovered(Component::kTunedTable);
    }
  });
  for (auto& t : threads) t.join();
  churn.join();
  done.store(true);
  for (auto& t : recoverers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stream.flush(), SHALOM_OK);
  if (health::recovery_enabled()) {
    EXPECT_EQ(selfcheck::status(v), selfcheck::Status::kVerified)
        << "the forced passes must have restored the variant";
    EXPECT_EQ(health::state(Component::kKernels), State::kHealthy);
  }
}

// ---------------------------------------------------------------------------
// C surface
// ---------------------------------------------------------------------------

TEST_F(HealthTest, CApiHealthReportReflectsRegistry) {
  EXPECT_EQ(shalom_health_report(nullptr), SHALOM_ERR_NULL_POINTER);

  shalom_health report;
  ASSERT_EQ(shalom_health_report(&report), SHALOM_OK);
  EXPECT_EQ(report.all_healthy, 1);
  for (int c = 0; c < SHALOM_HEALTH_COMPONENT_COUNT; ++c) {
    EXPECT_EQ(report.components[c].state, SHALOM_HEALTH_HEALTHY);
    EXPECT_EQ(report.components[c].cause, SHALOM_HEALTH_CAUSE_NONE);
    EXPECT_EQ(report.components[c].cooldown_remaining_ms, 0u);
  }

  health::report_degraded(Component::kTunedTable, Cause::kOverload);
  ASSERT_EQ(shalom_health_report(&report), SHALOM_OK);
  EXPECT_EQ(report.all_healthy, 0);
  const shalom_health_component& pc =
      report.components[SHALOM_HEALTH_TUNED_TABLE];
  EXPECT_EQ(pc.state, SHALOM_HEALTH_DEGRADED);
  EXPECT_EQ(pc.cause, SHALOM_HEALTH_CAUSE_OVERLOAD);
  if (health::recovery_enabled()) {
    const std::uint64_t base =
        static_cast<std::uint64_t>(health::env_recovery_ms());
    EXPECT_EQ(pc.backoff_ms, base);
    EXPECT_LE(pc.cooldown_remaining_ms, base);
    EXPECT_GT(pc.cooldown_remaining_ms, 0u);
  }

  health::report_recovered(Component::kTunedTable);
  ASSERT_EQ(shalom_health_report(&report), SHALOM_OK);
  EXPECT_EQ(report.all_healthy, 1);
}

TEST_F(HealthTest, CApiRecoverNowRunsHooks) {
  if (!health::recovery_enabled())
    GTEST_SKIP() << "covered by RecoveryDisabledPreservesPermanentLatch";
  const selfcheck::Variant v = selfcheck::Variant::kEdgeF32TransDirect;
  selfcheck::quarantine(v, Cause::kMismatch);
  ASSERT_EQ(health::state(Component::kKernels), State::kDegraded);
  EXPECT_GE(shalom_recover_now(), 1)
      << "the kernels hook must re-probe and restore the variant";
  EXPECT_EQ(selfcheck::status(v), selfcheck::Status::kVerified);
  EXPECT_EQ(health::state(Component::kKernels), State::kHealthy);
}

TEST_F(HealthTest, CApiStatsExposeRecoveryCounters) {
  health::report_degraded(Component::kTunedTable, Cause::kOverload);
  health::report_recovered(Component::kTunedTable);
  (void)health::probe_faulted();  // counts one probation probe

  shalom_stats s;
  shalom_get_stats(&s);
  EXPECT_EQ(s.recoveries, 1u);
  EXPECT_GE(s.probation_probes, 1u);
  EXPECT_EQ(s.breaker_half_opens, 0u);
  EXPECT_EQ(s.probation_failures, 0u);

  if (health::recovery_enabled()) {
    health::report_degraded(Component::kTunedTable, Cause::kOverload);
    health::expire_cooldowns();
    ASSERT_TRUE(health::latch(Component::kTunedTable).try_begin_probation());
    health::latch(Component::kTunedTable).end_probation(false);
    shalom_get_stats(&s);
    EXPECT_EQ(s.probation_failures, 1u);
  }
}

// The tier-1 recovery-chaos acceptance scenario: serve through an
// ambient fault storm (SHALOM_FAULT arms kernel-probe, worker-spawn and
// submit-enqueue failures from the environment), then disarm and require
// the process to heal itself completely - at least one recovery
// counted while healing, every component back to HEALTHY, and accepted
// work correct throughout. Run bare this test skips; scripts/tier1.sh
// runs it with the storm armed.
TEST(RecoveryChaos, DegradesUnderAmbientFaultsThenHeals) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  if (env::raw("SHALOM_FAULT") == nullptr)
    GTEST_SKIP() << "run via the tier-1 recovery-chaos stage";
  if (!health::recovery_enabled())
    GTEST_SKIP() << "recovery disabled (SHALOM_RECOVERY_MS=0)";

  selfcheck::reset_for_testing();
  health::reset_for_testing();
  robustness_stats_reset();

  // Phase A: degrade. The eager sweep probes all 29 variants with the
  // probe site firing every N, so a batch of them quarantines.
  int quarantined = selfcheck::run_all();
  if (quarantined == 0) {
    // Storm spec without selfcheck.probe: degrade a kernel by hand so
    // the healing phase always has kernel work to do.
    selfcheck::quarantine(selfcheck::Variant::kMainF32PackedPacked,
                          Cause::kInjected);
    quarantined = 1;
  }
  {
    engine::GemmStream stream;
    std::vector<testing::Problem<float>> ps;
    std::vector<engine::TicketPtr> tickets;
    ps.reserve(24);
    for (int i = 0; i < 24; ++i) {
      ps.emplace_back(Mode{Trans::N, Trans::N}, 20 + i % 5, 24, 16);
      testing::Problem<float>& p = ps.back();
      try {
        tickets.push_back(stream.submit<float>(
            p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(),
            p.b.data(), p.b.ld(), 0.0f, p.c.data(), p.c.ld()));
      } catch (const std::bad_alloc&) {
        tickets.push_back(nullptr);  // retry budget exhausted: shed
      }
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      if (tickets[i] == nullptr) continue;
      const int rc = tickets[i]->wait();
      ASSERT_TRUE(rc == SHALOM_OK || rc == SHALOM_DEGRADED)
          << "mid-storm status " << rc;
      ps[i].run_reference(1.0f, 0.0f);
      ps[i].expect_matches("accepted mid-storm");
    }
  }  // stream gone: a latched breaker leaves the census here
  EXPECT_FALSE(health::all_healthy())
      << "the storm must have degraded at least the kernels component";
  // Recoveries counted so far (a breaker closed by its mid-storm trials)
  // are not the heal this test is about: phase B must add its own.
  const std::uint64_t recoveries_before_heal =
      robustness_stats().recoveries;

  // Phase B: the storm passes; the process must heal completely.
  fault::disarm_all();
  for (int i = 0; i < 50 && !health::all_healthy(); ++i)
    (void)shalom_recover_now();
  EXPECT_TRUE(health::all_healthy())
      << "every component must return to HEALTHY once faults stop";
  shalom_health report;
  ASSERT_EQ(shalom_health_report(&report), SHALOM_OK);
  EXPECT_EQ(report.all_healthy, 1);
  EXPECT_GT(robustness_stats().recoveries, recoveries_before_heal)
      << "healing the storm's damage must count recoveries";

  // Recovered-path correctness: post-heal work is full-service and
  // matches the oracle.
  engine::GemmStream healed;
  testing::Problem<float> p({Trans::T, Trans::N}, 40, 40, 40);
  engine::TicketPtr t = healed.submit<float>(
      p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
      p.b.ld(), 0.0f, p.c.data(), p.c.ld());
  EXPECT_EQ(t->wait(), SHALOM_OK);
  p.run_reference(1.0f, 0.0f);
  p.expect_matches("post-heal full service");
}

}  // namespace
}  // namespace shalom
