// Fork-join thread pool with overlapping rounds.
//
// LibShalom parallelizes irregular-shaped GEMM with a static partition
// (paper Section 6): each round runs fn(0) .. fn(tasks-1) with exactly one
// C sub-block per task, and the partition solver - not the scheduler - is
// responsible for balance. The pool is therefore one list of rounds and a
// claim loop:
//
//   - Every round is an independent heap-allocated record (claim slots, a
//     `next` task counter, a join counter, a refcount). Any number of
//     rounds can be in flight at once; max_overlapped_rounds_for_testing()
//     observes the high-water mark.
//   - A submitter lists its round and wakes the parked workers. A woken
//     worker takes the oldest listed round that still has undrawn tasks
//     and loops t = next++ -> claim(t) -> run until the round runs dry.
//   - The submitting thread always runs task 0 itself (fork-join
//     semantics) and, when no watchdog is armed, claim-scans the rest of
//     its round inline - a caller never blocks idle behind other rounds,
//     and rounds complete even on a pool with zero live workers.
//
// Exactly-once execution rests on the per-task claim alone: whoever wins
// a task's claim runs it, everyone else backs off. `next` only spreads the
// workers over the tasks; a task the leader claimed first is skipped by
// the worker that drew it.
//
// Watchdog (robustness layer, common/guard.h): a round armed with
// watchdog_ms > 0 runs in diagnostic mode - the leader runs task 0 only,
// then waits in watchdog_ms slices watching the pool's heartbeat counter
// (workers tick it at round pickup and at every task completion). No
// progress for a full period trips the watchdog: the pool is marked
// degraded (pool_run then narrows later rounds to serial), the trip is
// counted (RobustnessStats::watchdog_trips), and the leader claims and
// runs every still-unclaimed task inline so the round completes with
// correct results. A worker wedged BEFORE claiming a task is fully
// recovered; one wedged MID-task cannot be (its output may be
// half-written), so the leader keeps waiting on it. Diagnostic mode
// deliberately withholds the leader's inline help until the trip: eager
// help would complete the round before a wedge could ever be observed.
//
// Growth and recovery (common/health.h): global() is one process-wide
// pool that grows in place - a wider request spawns more workers into the
// same pool. A failed spawn leaves the live width below the requested one
// and reports the kThreadPool component DEGRADED; a watchdog trip does the
// same. Later calls at the same width do not spawn again: after
// SHALOM_RECOVERY_MS of cool-down the recovery probe (try_recover(),
// driven passively by pool_run on the degraded path and on demand by
// shalom_recover_now) spawns toward the requested width (through the
// `health.respawn` fault site) and re-arms the watchdog by clearing
// degraded() - if the wedge persists, the next diagnostic round trips
// again and the cool-down doubles (capped), so a genuinely wedged pool
// converges to near-zero probe traffic. A worker parked by a past wedge
// never returns, but the healthy workers draw its share from `next`.
// SHALOM_RECOVERY_MS=0 restores the pre-recovery permanent-latch
// behaviour exactly.
//
// Concurrency contract: parallel_for may be called from any number of
// threads at once and the rounds genuinely overlap. Calling parallel_for
// from inside a pool task (nesting) remains forbidden.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/health.h"
#include "common/thread_annotations.h"

namespace shalom {

class ThreadPool {
 public:
  /// Creates a pool usable for up to `max_threads`-way parallel_for calls
  /// (spawns max_threads - 1 workers). Spawning is best-effort: if the OS
  /// refuses a worker thread (std::system_error / bad_alloc), the pool
  /// keeps the workers it got, max_threads() reports the reduced width and
  /// the kThreadPool component is reported degraded - construction never
  /// throws for resource exhaustion, only for the max_threads < 1 contract
  /// violation.
  explicit ThreadPool(int max_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(0) .. fn(tasks-1), blocking until every task has finished.
  /// `tasks` must lie in [1, max_threads()]: the paper's scheme assigns
  /// exactly one C sub-block per thread, so oversubscribing a round is a
  /// contract violation (shalom::invalid_argument), not a queueing
  /// request - callers that may face a degraded pool should go through
  /// pool_run() instead. Safe to call from several threads concurrently;
  /// the rounds overlap. Must not be re-entered from inside a task.
  ///
  /// watchdog_ms arms the stall monitor for this round: > 0 is the
  /// no-heartbeat-progress period in milliseconds before the leader trips
  /// and recovers (see the header comment), 0 disables it (the leader
  /// then helps eagerly instead of waiting), and -1 (the default) uses
  /// guard::env_watchdog_ms() (SHALOM_WATCHDOG_MS).
  ///
  /// If fn throws on the leader thread, the first exception is rethrown
  /// after the round joins (tasks the workers run must not throw - GEMM
  /// drivers already wrap worker bodies in their own catch).
  void parallel_for(int tasks, const std::function<void(int)>& fn,
                    int watchdog_ms = -1);

  /// Live width: 1 + the workers spawned so far. Never narrows (a wedged
  /// worker still counts); below the requested width after a failed
  /// spawn until try_recover() succeeds.
  int max_threads() const {
    return max_threads_.load(std::memory_order_acquire);
  }

  /// True while a watchdog trip has this pool narrowed to serial rounds
  /// (pool_run's check). Sticky when recovery is disabled
  /// (SHALOM_RECOVERY_MS=0); otherwise try_recover() re-arms the
  /// watchdog after the component's cool-down so later rounds probe the
  /// pool at full width again.
  bool degraded() const noexcept {
    return degraded_.load(std::memory_order_acquire);
  }

  /// One recovery attempt on this pool: spawns workers up to the widest
  /// width ever requested - each spawn runs the `health.respawn` fault
  /// site first - and, when every spawn succeeded, clears degraded() so
  /// the watchdog re-arms. Returns false when the pool is shutting down
  /// or a spawn failed (the pool keeps the workers it got; degraded() is
  /// left latched). Thread-safe; called under the kThreadPool probation
  /// protocol by recover_global_for_health().
  bool try_recover() noexcept;

  /// Reports kThreadPool DEGRADED when the component reads HEALTHY but
  /// the live width is below the requested one. A failed spawn's report
  /// is dropped while another caller's probation runs, and that probation
  /// can then end HEALTHY over a narrow pool; pool_run calls this on its
  /// narrow path so the probation still comes round. Takes mu_ only
  /// while the component reads HEALTHY.
  void report_if_narrowed() noexcept;

  /// The kThreadPool recovery hook (health::set_recover_hook): runs one
  /// health::run_probation cycle whose probe is the `health.probe` fault
  /// site, then try_recover() on the global pool. Returns true when the
  /// component ended up HEALTHY. Also the passive on-path check pool_run
  /// makes before narrowing a round; cheap no-op while the component is
  /// healthy or its cool-down is pending.
  static bool recover_global_for_health() noexcept;

  /// High-water mark of rounds observed in flight simultaneously on this
  /// pool. >= 2 proves two callers' rounds genuinely overlapped.
  int max_overlapped_rounds_for_testing() const noexcept {
    return max_active_rounds_.load(std::memory_order_acquire);
  }

  /// The process-wide pool, grown in place to at least `threads` (the
  /// same object on every call). A call no wider than any earlier request
  /// is one atomic load and spawns nothing - including after a failed
  /// spawn, which only the kThreadPool probation retries. Best-effort like
  /// the constructor: under spawn failure the pool may be narrower than
  /// `threads` (check max_threads()).
  static ThreadPool& global(int threads);

 private:
  struct Round;  // one in-flight parallel_for (threadpool.cpp)

  void worker_loop();
  /// Draws one task from the oldest listed round that still has undrawn
  /// tasks, unlinking rounds that have none. Returns that round with a
  /// reference taken for the caller (task index in `task`), or null.
  Round* draw_locked(int& task) SHALOM_REQUIRES(mu_);
  /// Claim-then-run for the submitting thread; first exception captured.
  void run_leader_task(Round& r, int task, std::exception_ptr& caught);
  /// Diagnostic-mode join: watchdog slices, trip -> degrade + recover.
  void watchdog_wait(Round& r, int watchdog_ms, std::exception_ptr& caught);
  /// Raises the requested width to `threads` and spawns toward it, unless
  /// an earlier spawn failure still has the pool narrowed.
  void grow(int threads);
  /// Spawns workers until the live width reaches requested_, checking
  /// `site` before each spawn. Stops at the first failure and returns its
  /// cause; kNone when the width reached the request.
  health::Cause spawn_locked(fault::Site site) SHALOM_REQUIRES(mu_);

  /// Lock-free state (outside the capability annotations; explicit
  /// memory orders per the shalom_lint discipline). max_threads_ and
  /// requested_ are only written under mu_; max_threads_'s release store
  /// publishes a freshly spawned worker to parallel_for's width check,
  /// requested_'s lets global() skip the lock when the pool is wide
  /// enough.
  std::atomic<int> max_threads_{1};
  std::atomic<int> requested_;
  /// Ticked by workers at round pickup and task completion; the watchdog
  /// reads its movement.
  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> degraded_{false};
  /// Rounds currently in flight, and the high-water mark thereof.
  std::atomic<int> active_rounds_{0};
  std::atomic<int> max_active_rounds_{0};

  /// Guards the round list, the worker threads and worker parking. Never
  /// held while running a task.
  Mutex mu_;
  std::condition_variable_any start_cv_;
  /// Rounds with possibly-undrawn tasks, oldest first. Entries own one
  /// reference on their round; the submitter (at join) or a worker that
  /// finds the round drawn dry unlinks and releases.
  std::vector<Round*> rounds_ SHALOM_GUARDED_BY(mu_);
  bool shutdown_ SHALOM_GUARDED_BY(mu_) = false;
  /// Declared after everything the workers use; ~ThreadPool joins them.
  std::vector<std::thread> threads_ SHALOM_GUARDED_BY(mu_);
};

/// Degradation-tolerant fork-join: runs fn(0) .. fn(tasks-1) on the global
/// pool grown for `tasks`, chunking tasks over fewer workers (down to a
/// serial loop) when the pool could not grow that wide or has been marked
/// degraded by its watchdog. This is the entry point every GEMM driver
/// uses - parallel_for's strict contract is for callers that own an
/// exactly-sized pool. Records threads_degraded telemetry whenever a
/// round runs below its requested width. watchdog_ms follows
/// parallel_for's convention (-1 = SHALOM_WATCHDOG_MS default).
void pool_run(int tasks, const std::function<void(int)>& fn,
              int watchdog_ms = -1);

}  // namespace shalom
