// Deterministic fault injection and degradation telemetry.
//
// Production resilience work needs two things the normal test suite cannot
// provide: a way to *cause* rare resource failures on demand (allocation
// failure, worker-spawn failure, queue failure) and a way to
// *observe* that the library degraded gracefully instead of falling over.
//
// Fault sites are named checkpoints compiled into the resource-acquisition
// paths. Each site costs exactly one relaxed atomic load when disarmed
// (and nothing at all when SHALOM_FAULT_INJECTION is compiled out, see the
// SHALOM_FAULT_POINT macro below). A site fires according to a trigger
// armed either programmatically (the C++ test API here) or through the
// SHALOM_FAULT environment variable:
//
//   SHALOM_FAULT=<site>:<spec>[,<site>:<spec>...]
//   spec := once | every-<N> | fail-after-<N>
//
//   once          the next check fails, then the site disarms itself
//   every-N       every Nth check fails (every-1 = always fail)
//   fail-after-N  the first N checks succeed, every later one fails
//
// Both registries are one row list each, and everything else is generated
// from the rows:
//   SHALOM_ROBUSTNESS_COUNTERS  RobustnessStats, the Counter enum, the
//                               counter atomics, the snapshot and reset
//                               loops, and the C mirror copy with its
//                               per-row layout checks (core/shalom_c.cpp)
//   SHALOM_FAULT_SITES          the Site enum, kSiteCount and site_name()
// tools/shalom_lint reads the same rows for its registry-drift rules, so a
// new counter or site is one new row (plus its API.md / DESIGN.md entry
// and a test that moves or arms it).
//
// The telemetry half (RobustnessStats) is always compiled: the degradation
// paths are real production behaviour - injection is only one way to reach
// them - so the counters must exist even in injection-free builds.
#pragma once

#include <atomic>
#include <cstdint>

#ifndef SHALOM_FAULT_INJECTION
#define SHALOM_FAULT_INJECTION 0
#endif

namespace shalom {

// ---------------------------------------------------------------------------
// Degradation telemetry (always compiled)
// ---------------------------------------------------------------------------

/// How a robustness counter moves.
enum class CounterKind {
  kCount,    // telemetry::note adds one per event
  kPeak,     // telemetry::raise_peak keeps the largest value observed
  kDerived,  // computed by the snapshot, never stored
  kRetired,  // kept for layout stability; always reads 0
};

/// The robustness counters, X(enumerator, field, kind), one row per
/// RobustnessStats field in layout order. The C mirror (shalom_stats)
/// repeats this order and is checked against it at compile time.
#define SHALOM_ROBUSTNESS_COUNTERS(X)                                        \
  /* Executions that ran the no-pack fallback loop because the pack */       \
  /* arena could not be reserved. */                                         \
  X(kFallbackNopack, fallback_nopack, kCount)                                \
  /* Fork-join rounds that ran with fewer workers than the plan */           \
  /* wanted (down to fully serial) because the pool could not grow. */       \
  X(kThreadsDegraded, threads_degraded, kCount)                              \
  /* Retired with the plan cache: always 0. Kept so the struct layout */     \
  /* and the C mirror (shalom_stats) stay stable. */                         \
  X(kPlanCacheBypassed, plan_cache_bypassed, kRetired)                       \
  /* Faults fired by the injection framework (0 in production builds): */    \
  /* the per-site injected counters summed, minus the reset rebase. */       \
  X(kFaultsInjected, faults_injected, kDerived)                              \
  /* Micro-kernel variants quarantined after failing their selfcheck */      \
  /* probe: dispatch routes around them permanently */                       \
  /* (common/selfcheck.h). */                                                \
  X(kKernelsQuarantined, kernels_quarantined, kCount)                        \
  /* Selfcheck probes executed (lazy first-dispatch probes plus eager */     \
  /* shalom_selftest() / SHALOM_SELFTEST=1 sweeps). */                       \
  X(kSelfchecksRun, selfchecks_run, kCount)                                  \
  /* NaN/Inf anomalies observed by the opt-in numerical guard */             \
  /* (Config::check_numerics with policy kCount or kFail); one count */      \
  /* per scan that found a non-finite value. */                              \
  X(kNumericAnomalies, numeric_anomalies, kCount)                            \
  /* Hardware traps (SIGILL/SIGSEGV/SIGBUS/SIGFPE) contained by a */         \
  /* guard trap scope (common/guard.h), one per trapped probe. Every */      \
  /* trap also quarantines the variant, so kernels_quarantined moves */      \
  /* with it. */                                                             \
  X(kKernelsTrapped, kernels_trapped, kCount)                                \
  /* Thread-pool watchdog trips: parallel_for rounds whose workers */        \
  /* made no heartbeat progress for Config::watchdog_ms, recovered by */     \
  /* the round leader running the unclaimed tasks serially */                \
  /* (core/threadpool.h). */                                                 \
  X(kWatchdogTrips, watchdog_trips, kCount)                                  \
  /* Guarded pack-arena canary violations detected after kernel */           \
  /* execution (SHALOM_GUARD=canary|poison); each one quarantines the */     \
  /* dispatched variant and fails the call with */                           \
  /* SHALOM_ERR_CORRUPTION. */                                               \
  X(kArenaCorruptions, arena_corruptions, kCount)                            \
  /* High-water mark of any stream's submission-queue depth (CAS-max */      \
  /* over every depth observed at admission time; reset rebases to 0). */    \
  X(kStreamQueuePeak, stream_queue_peak, kPeak)                              \
  /* Submissions shed by admission control: queue-at-capacity under a */     \
  /* shed-* policy, the engine.shed fault site, or submit on a */            \
  /* draining/closed stream (each resolves as SHALOM_ERR_REJECTED). */       \
  X(kRequestsShed, requests_shed, kCount)                                    \
  /* Queued requests whose deadline expired before execution plus */         \
  /* block-policy submits that timed out waiting for queue space */          \
  /* (each resolves as SHALOM_ERR_TIMEOUT). */                               \
  X(kRequestsExpired, requests_expired, kCount)                              \
  /* Queued requests cancelled via shalom_future_cancel before the */        \
  /* drainer claimed them (each resolves as SHALOM_ERR_REJECTED). */         \
  X(kRequestsCancelled, requests_cancelled, kCount)                          \
  /* Transient-failure retries spent by the submit/spawn/batch */            \
  /* retry-with-backoff loops (one count per backoff sleep). */              \
  X(kSubmitRetries, submit_retries, kCount)                                  \
  /* Circuit-breaker trips: streams latched into synchronous-degraded */     \
  /* mode after N consecutive retry-exhausted failures. */                   \
  X(kBreakerTrips, breaker_trips, kCount)                                    \
  /* Tuned-table records skipped during a load because their */              \
  /* checksum, dtype/trans flags, dimensions, or blocking failed */          \
  /* validation against the kernel contracts (tuning/table.h); */            \
  /* rejected records are never published to the planner. */                 \
  X(kTableRecordsRejected, table_records_rejected, kCount)                   \
  /* Tuned-table operations that failed as a whole: unreadable/ */           \
  /* corrupt/version-skewed/fingerprint-skewed files at load (degrades */    \
  /* to a cold start) and aborted atomic saves (previous table left */       \
  /* intact). */                                                             \
  X(kTableLoadFailures, table_load_failures, kCount)                         \
  /* Degraded components restored to full service by the recovery */         \
  /* layer (common/health.h): an un-quarantined kernel variant, a */         \
  /* re-expanded thread pool, or a circuit breaker closed after a */         \
  /* clean half-open trial streak. */                                        \
  X(kRecoveries, recoveries, kCount)                                         \
  /* Probation probes attempted by the recovery layer (passive on-path */    \
  /* cool-down checks plus forced shalom_recover_now passes), */             \
  /* successful or not. */                                                   \
  X(kProbationProbes, probation_probes, kCount)                              \
  /* Probation probes that failed: the component re-latches into its */      \
  /* degraded state and its recovery cool-down doubles. */                   \
  X(kProbationFailures, probation_failures, kCount)                          \
  /* Latched circuit breakers that entered the half-open trial state */      \
  /* after their cool-down elapsed (core/engine.h); each trial streak */     \
  /* ends in either a recovery or a probation failure. */                    \
  X(kBreakerHalfOpens, breaker_half_opens, kCount)

/// Process-wide counters of graceful-degradation events, one field per
/// SHALOM_ROBUSTNESS_COUNTERS row (see the row comments). Monotonic since
/// process start (or the last robustness_stats_reset()); reads are relaxed
/// snapshots, safe from any thread.
struct RobustnessStats {
#define SHALOM_COUNTER_FIELD(id, field, kind) std::uint64_t field = 0;
  SHALOM_ROBUSTNESS_COUNTERS(SHALOM_COUNTER_FIELD)
#undef SHALOM_COUNTER_FIELD
};

/// Names one robustness counter (one enumerator per table row).
enum class Counter : int {
#define SHALOM_COUNTER_ENUM(id, field, kind) id,
  SHALOM_ROBUSTNESS_COUNTERS(SHALOM_COUNTER_ENUM)
#undef SHALOM_COUNTER_ENUM
};

#define SHALOM_PLUS_ONE(...) +1
inline constexpr int kCounterCount =
    0 SHALOM_ROBUSTNESS_COUNTERS(SHALOM_PLUS_ONE);

RobustnessStats robustness_stats() noexcept;
void robustness_stats_reset() noexcept;

namespace telemetry {
/// Adds one to a kCount counter.
void note(Counter c) noexcept;
/// CAS-max for a kPeak counter: records `value` if it exceeds the current
/// peak (relaxed; a lost race only undercounts by one concurrent
/// observation and the next larger value restores it).
void raise_peak(Counter c, std::uint64_t value) noexcept;
}  // namespace telemetry

// ---------------------------------------------------------------------------
// Fault-injection framework
// ---------------------------------------------------------------------------

/// The fault sites, X(enumerator, "name"), one row per site in dense index
/// order. The degradation each one exercises is listed in DESIGN.md.
#define SHALOM_FAULT_SITES(X)                                                \
  /* Pack-arena reservation at execution time. */                            \
  X(kAllocPackArena, "alloc.pack_arena")                                     \
  /* Spawning one pool worker thread. */                                     \
  X(kThreadpoolSpawn, "threadpool.spawn")                                    \
  /* One micro-kernel selfcheck probe (common/selfcheck.h); an */            \
  /* injected failure quarantines the probed variant. */                     \
  X(kSelfcheckProbe, "selfcheck.probe")                                      \
  /* A guard trap scope (common/guard.h); an injected failure reports */     \
  /* the scoped call as trapped (simulated SIGILL) without running it. */    \
  X(kGuardTrap, "guard.trap")                                                \
  /* A pool worker at round pickup; an injected failure wedges the */        \
  /* worker (it parks until pool shutdown), which is what the watchdog */    \
  /* must recover from. */                                                   \
  X(kThreadpoolHeartbeat, "threadpool.heartbeat")                            \
  /* The post-execution arena canary verification; an injected */            \
  /* failure reports the canaries as violated. */                            \
  X(kGuardCanary, "guard.canary")                                            \
  /* Enqueueing one async GEMM request into a stream (core/engine.h); */     \
  /* an injected failure rejects the submission with std::bad_alloc */       \
  /* before anything is queued, so the stream state is unchanged (the */     \
  /* submit path retries with exponential backoff before surfacing the */    \
  /* failure). */                                                            \
  X(kSubmitQueue, "submit.queue")                                            \
  /* The drainer's per-request deadline sweep; an injected failure */        \
  /* expires the swept request as if its deadline had passed, */             \
  /* resolving its ticket with SHALOM_ERR_TIMEOUT before gemm_batch */       \
  /* runs. */                                                                \
  X(kEngineDeadline, "engine.deadline")                                      \
  /* Stream admission control; an injected failure sheds the incoming */     \
  /* submission (rejected_error → SHALOM_ERR_REJECTED) regardless of */      \
  /* queue depth or overload policy, so shed handling is testable */         \
  /* without filling the queue. */                                           \
  X(kEngineShed, "engine.shed")                                              \
  /* Opening the tuned-table file (tuning/table.h), either side (load */     \
  /* or the temp file of a save); an injected failure reports the open */    \
  /* as failed, so load degrades to a cold start and save fails with */      \
  /* the previous table untouched. */                                        \
  X(kTableOpen, "table.open")                                                \
  /* One checked fread from the tuned-table file; an injected failure */     \
  /* truncates the load at that point (cold start, */                        \
  /* table_load_failures). */                                                \
  X(kTableRead, "table.read")                                                \
  /* One checked fwrite to the temp file of an atomic save; an */            \
  /* injected failure aborts the save before the rename, leaving the */      \
  /* previous table intact. */                                               \
  X(kTableWrite, "table.write")                                              \
  /* The rename(tmp, final) commit step of a save; an injected failure */    \
  /* discards the temp file - the previous table stays */                    \
  /* byte-identical. */                                                      \
  X(kTableRename, "table.rename")                                            \
  /* The fsync barrier before the commit rename; an injected failure */      \
  /* aborts the save (a table that might not be durable is never */          \
  /* renamed in). */                                                         \
  X(kTableFsync, "table.fsync")                                              \
  /* One recovery probation probe (common/health.h); an injected */          \
  /* failure makes the probe report the component as still unhealthy, */     \
  /* so the probation streak resets and the cool-down doubles - the */       \
  /* component stays degraded, never corrupts. */                            \
  X(kHealthProbe, "health.probe")                                            \
  /* A degraded thread pool's worker re-spawn attempt during recovery; */    \
  /* an injected failure keeps the pool at its narrowed width until */       \
  /* the next cool-down elapses (recovery itself degrades gracefully */      \
  /* back to the latched state). */                                          \
  X(kHealthRespawn, "health.respawn")

namespace fault {

/// Named fault sites: dense indices into the site table. Sites are armed
/// by name (arm_from_spec) or by enum, never by number.
enum class Site : int {
#define SHALOM_SITE_ENUM(id, name) id,
  SHALOM_FAULT_SITES(SHALOM_SITE_ENUM)
#undef SHALOM_SITE_ENUM
};
inline constexpr int kSiteCount = 0 SHALOM_FAULT_SITES(SHALOM_PLUS_ONE);
#undef SHALOM_PLUS_ONE

/// Trigger modes (see the header comment for semantics).
enum class Mode : std::uint32_t {
  kDisarmed = 0,
  kOnce = 1,
  kEveryN = 2,
  kFailAfter = 3,
};

namespace detail {

/// One armed trigger. All fields are atomics so arm/disarm/check need no
/// lock; `armed` doubles as the fast-path gate (0 = disarmed). Being
/// lock-free, this state sits outside the thread-safety-analysis
/// capabilities (common/thread_annotations.h); its discipline is the
/// explicit-memory-order rule tools/shalom_lint enforces: relaxed
/// everywhere (the counters are statistics and the trigger decision
/// tolerates races by design), with the kOnce CAS in should_fail_slow the
/// single ordering-sensitive exception.
struct SiteState {
  std::atomic<std::uint32_t> armed{0};  // Mode as integer
  std::atomic<std::uint64_t> param{0};  // N of every-N / fail-after-N
  std::atomic<std::uint64_t> calls{0};  // checks since arming
  std::atomic<std::uint64_t> injected{0};
};

extern SiteState g_sites[kSiteCount];

/// Full trigger evaluation; only reached when the site is armed.
bool should_fail_slow(SiteState& st) noexcept;

}  // namespace detail

const char* site_name(Site site) noexcept;

/// Arms `site`: the next checks fail per `mode`/`n`. Resets the site's
/// call counter; the injected counter keeps accumulating.
void arm(Site site, Mode mode, std::uint64_t n = 0) noexcept;
void disarm(Site site) noexcept;
void disarm_all() noexcept;
bool armed(Site site) noexcept;

/// Faults fired at `site` since process start.
std::uint64_t injected(Site site) noexcept;

/// Parses one SHALOM_FAULT-style spec ("site:mode[,site:mode...]") and
/// arms the named sites. Returns false if any entry is malformed (valid
/// entries before it are still armed).
bool arm_from_spec(const char* spec) noexcept;

/// The per-site check. Call through SHALOM_FAULT_POINT so disabled builds
/// compile the site away entirely.
inline bool should_fail(Site site) noexcept {
  detail::SiteState& st = detail::g_sites[static_cast<int>(site)];
  if (st.armed.load(std::memory_order_relaxed) == 0) return false;
  return detail::should_fail_slow(st);
}

}  // namespace fault
}  // namespace shalom

/// Fault checkpoint: true when the armed trigger says this acquisition
/// must fail. Compiles to `false` (zero overhead, dead-code eliminated)
/// when SHALOM_FAULT_INJECTION is off; one relaxed atomic load per check
/// when on but disarmed.
#if SHALOM_FAULT_INJECTION
#define SHALOM_FAULT_POINT(site) (::shalom::fault::should_fail(site))
#else
#define SHALOM_FAULT_POINT(site) false
#endif
