// Work-stealing thread pool with overlapping fork-join rounds.
//
// LibShalom parallelizes irregular-shaped GEMM with a static partition
// (paper Section 6): each round runs fn(0) .. fn(tasks-1) with exactly one
// C sub-block per task, and the partition solver - not the scheduler - is
// responsible for balance. Through PR 5 the pool enforced that shape with
// a single job slot guarded by a run mutex, which also meant independent
// callers (a server thread per client) serialized on round admission even
// when their GEMMs were tiny. This pool removes that serialization point:
//
//   - Every round is an independent heap-allocated record (claims, join
//     counter, refcount). Any number of rounds can be in flight at once;
//     max_overlapped_rounds_for_testing() observes the high-water mark.
//   - Each worker owns a Chase-Lev-style deque of task references. A
//     submitter publishes its round on a shared injection list; workers
//     that run dry distribute the round's tasks into their own deque
//     (running the first directly) and idle workers steal from the
//     bottom-most victims' deques top-end-first.
//   - The submitting thread always runs task 0 itself (fork-join
//     semantics) and, when no watchdog is armed, claim-scans the rest of
//     its round inline - a caller never blocks idle behind other rounds,
//     and rounds complete even on a pool with zero live workers.
//
// Exactly-once execution carries over from PR 5 unchanged: every task slot
// is a generation-tagged CAS claim and deque/injection entries are only
// *hints* - whoever wins the claim runs the task, everyone else backs off.
// A stale hint (task already executed, round already gone from the list)
// is harmless because entries hold a reference on the round record.
//
// Watchdog (robustness layer, common/guard.h): a round armed with
// watchdog_ms > 0 runs in diagnostic mode - the leader runs task 0 only,
// then waits in watchdog_ms slices watching the worker heartbeat sum
// (workers tick at task pickup and completion). No progress for a full
// period trips the watchdog: the pool is marked degraded (pool_run then
// narrows later rounds to serial), the trip is counted
// (RobustnessStats::watchdog_trips), and the leader claims and runs every
// still-unclaimed task inline so the round completes with correct
// results. A worker wedged BEFORE claiming a task is fully recovered; one
// wedged MID-task cannot be (its output may be half-written), so the
// leader keeps waiting on it. Diagnostic mode deliberately withholds the
// leader's inline help until the trip: eager help would complete the
// round before a wedge could ever be observed.
//
// Recovery (common/health.h): through PR 9 both degradations above were
// permanent - a watchdog trip pinned the pool serial forever, and a
// spawn-narrowed pool never tried to widen again. Both now heal through
// the kThreadPool health-registry slot. A trip or spawn-failure reports
// the component DEGRADED; after SHALOM_RECOVERY_MS of cool-down the
// recovery probe (try_recover(), driven passively by pool_run on the
// degraded path and on demand by shalom_recover_now) re-spawns threads
// for allocated-but-threadless worker slots (through the
// `health.respawn` fault site) and re-arms the watchdog by clearing
// degraded() - if the wedge persists, the next diagnostic round trips
// again and the cool-down doubles (capped), so a genuinely wedged pool
// converges to near-zero probe traffic. A worker parked by a past wedge
// never returns (its deque has exactly one owner), but the healthy
// workers absorb its share through stealing. SHALOM_RECOVERY_MS=0
// restores the pre-recovery permanent-latch behaviour exactly.
//
// Concurrency contract: parallel_for may be called from any number of
// threads at once and the rounds genuinely overlap. Calling parallel_for
// from inside a pool task (nesting) remains forbidden. Compatibility
// escape hatch: SHALOM_SERIALIZE_ROUNDS=1 (or the programmatic override
// below) restores the PR 5 one-round-at-a-time admission - the baseline
// that bench/abl_engine measures the overlap win against.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace shalom {

class ThreadPool {
 public:
  /// Creates a pool usable for up to `max_threads`-way parallel_for calls
  /// (spawns max_threads - 1 workers, each with its own steal deque).
  /// Spawning is best-effort: if the OS refuses a worker thread
  /// (std::system_error / bad_alloc), the pool keeps the workers it got
  /// and max_threads() reports the reduced width - construction never
  /// throws for resource exhaustion, only for the max_threads < 1
  /// contract violation.
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
  /// the rounds overlap (unless SHALOM_SERIALIZE_ROUNDS is set). Must not
  /// be re-entered from inside a task.
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

  /// One recovery attempt on this pool: re-spawns worker threads for
  /// slots the constructor (or an earlier probe) left threadless - each
  /// spawn runs the `health.respawn` fault site first - and, when every
  /// respawn succeeded, clears degraded() so the watchdog re-arms.
  /// Returns false when the pool is shutting down or a respawn failed
  /// (the pool keeps the workers it got; degraded() is left latched).
  /// Slots whose Worker record itself failed to allocate at construction
  /// stay permanently absent - there is no deque to give a new thread.
  /// Thread-safe; called under the kThreadPool probation protocol by
  /// recover_global_for_health().
  bool try_recover() noexcept;

  /// The kThreadPool recovery hook (health::set_recover_hook): runs one
  /// health::run_probation cycle whose probe is the `health.probe` fault
  /// site, then try_recover() on the registry's newest pool (the one
  /// pool_run uses; retirees are superseded and not probed). Returns true
  /// when the component ended up HEALTHY. Also the passive on-path check
  /// pool_run makes before narrowing a round; cheap no-op while the
  /// component is healthy or its cool-down is pending.
  static bool recover_global_for_health() noexcept;

  /// High-water mark of rounds observed in flight simultaneously on this
  /// pool. >= 2 proves two callers' rounds genuinely overlapped.
  int max_overlapped_rounds_for_testing() const noexcept {
    return max_active_rounds_.load(std::memory_order_acquire);
  }

  /// Process-wide round-admission compatibility switch. When true,
  /// parallel_for serializes rounds on an internal run mutex exactly like
  /// the PR 5 pool (and the leader never helps beyond task 0 outside a
  /// watchdog trip). Reads SHALOM_SERIALIZE_ROUNDS unless overridden;
  /// the setters exist for A/B benching and tests.
  static bool serialize_rounds() noexcept;
  static void set_serialize_rounds_for_testing(bool on) noexcept;
  static void clear_serialize_rounds_override() noexcept;

  /// Process-wide pool, grown on demand to at least `threads`. Growing
  /// retires the smaller pool instead of destroying it, so a reference
  /// returned earlier (possibly mid-parallel_for on another thread) stays
  /// valid - until the retired list outgrows its small cap, at which
  /// point quiesced unpinned retirees are reaped. Callers that hold the
  /// reference across other global()/Handle activity must pin it with a
  /// Handle; transient callers (use, then drop before anything else can
  /// grow the registry) may use the bare reference. Best-effort like the
  /// constructor: under spawn failure the returned pool may be narrower
  /// than `threads` (check max_threads()).
  static ThreadPool& global(int threads);

  /// Pinned reference to the global pool sized for `threads`. While any
  /// Handle points at a pool, the registry's reaper will not destroy it;
  /// constructing a Handle also runs the reap pass that bounds the
  /// retired-pool list. This is what pool_run uses.
  class Handle {
   public:
    explicit Handle(int threads);
    ~Handle();

    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    ThreadPool& pool() const noexcept { return *pool_; }

   private:
    ThreadPool* pool_;
  };

  /// Number of retired (outgrown) pools currently kept alive in the
  /// global registry. Test-only observability for the reaping bound.
  static int retired_pool_count_for_testing();

 private:
  struct Round;     // one in-flight parallel_for (threadpool.cpp)
  struct TaskSlot;  // {round, task index} - what deques carry
  class Deque;      // Chase-Lev-style per-worker deque
  struct Worker;    // per-worker state (the deque, cache-line padded)

  void worker_loop(int worker_id);
  void run_round(int tasks, const std::function<void(int)>& fn,
                 int watchdog_ms, bool leader_helps);
  /// Claim-then-run for the submitting thread; first exception captured.
  void run_leader_task(Round& r, int task, std::exception_ptr& caught);
  /// Diagnostic-mode join: watchdog slices, trip -> degrade + recover.
  void watchdog_wait(Round& r, int watchdog_ms, std::exception_ptr& caught);
  /// Steals one task hint from some other worker's deque.
  TaskSlot* steal_task(int thief_id) noexcept;
  /// Pulls undistributed tasks of the oldest listed round into worker
  /// `worker_id`'s deque; returns one hint to run immediately (or null).
  TaskSlot* claim_from_injection(int worker_id);
  /// Claim -> run -> join-count for one task hint; drops the hint's
  /// round reference. Worker-side only (task fns must not throw there).
  void execute_task(TaskSlot* slot);

  /// Sum of all worker heartbeat epochs (relaxed snapshot). Progress
  /// between two snapshots means some worker picked up or finished work.
  std::uint64_t heartbeat_sum() const noexcept;

  /// Current usable width. Narrowed by the ctor under spawn failure,
  /// re-widened by try_recover() when a respawn succeeds - hence atomic
  /// (readers race recovery probes; acquire pairs with the release store
  /// that publishes a freshly spawned worker).
  std::atomic<int> max_threads_;
  std::vector<std::thread> threads_;
  /// Per-worker deques, indexed by worker id 1..max_threads_-1 (slot 0 is
  /// the submitters' side and has no deque). Entries past a failed spawn
  /// stay null.
  std::vector<std::unique_ptr<Worker>> workers_;

  /// Lock-free state (outside the capability annotations; explicit
  /// memory orders per the shalom_lint discipline). heartbeats_ is sized
  /// for the requested width before the spawn loop can shrink
  /// max_threads_.
  std::vector<std::atomic<std::uint64_t>> heartbeats_;
  std::atomic<bool> degraded_{false};
  /// Handles currently pinning this pool (registry reap guard).
  std::atomic<int> pins_{0};
  /// Round generation source; claims are tagged with it (never 0).
  std::atomic<std::uint64_t> round_gen_{0};
  /// Rounds currently in flight, and the high-water mark thereof.
  std::atomic<int> active_rounds_{0};
  std::atomic<int> max_active_rounds_{0};

  /// Held for the whole round ONLY in serialize_rounds() compatibility
  /// mode; untouched on the overlapping path. Ordered strictly before
  /// mu_ (never acquired under mu_).
  Mutex run_mu_;
  /// Guards the injection list and worker parking. Never held while
  /// running a task.
  Mutex mu_;
  std::condition_variable_any start_cv_;
  /// Rounds with possibly-undistributed tasks, oldest first. Entries own
  /// one reference on their round; the submitter (at join) or a
  /// distributing worker (on exhaustion) unlinks and releases.
  std::vector<Round*> injection_ SHALOM_GUARDED_BY(mu_);
  /// Bumped on every publication that parked workers should look at.
  std::uint64_t submit_seq_ SHALOM_GUARDED_BY(mu_) = 0;
  bool shutdown_ SHALOM_GUARDED_BY(mu_) = false;

  /// Erases quiesced (unpinned, no round in flight) retired pools while
  /// the retired count exceeds the registry cap. Caller holds the
  /// registry mutex.
  static void reap_retired_locked(
      std::vector<std::unique_ptr<ThreadPool>>& pools);
};

/// Degradation-tolerant fork-join: runs fn(0) .. fn(tasks-1) on the global
/// pool sized for `tasks`, chunking tasks over fewer workers (down to a
/// serial loop) when the pool could not grow that wide or has been marked
/// degraded by its watchdog. This is the entry point every GEMM driver
/// uses - parallel_for's strict contract is for callers that own an
/// exactly-sized pool. Records threads_degraded telemetry whenever a
/// round runs below its requested width. watchdog_ms follows
/// parallel_for's convention (-1 = SHALOM_WATCHDOG_MS default).
void pool_run(int tasks, const std::function<void(int)>& fn,
              int watchdog_ms = -1);

}  // namespace shalom
