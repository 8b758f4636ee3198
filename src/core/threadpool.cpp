#include "core/threadpool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <new>
#include <system_error>

#include "common/error.h"
#include "common/guard.h"

namespace shalom {

namespace {

/// One spin-wait hint to the core.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Scoped lock for the submitter's round-list updates: tries the lock a
/// few dozen times before blocking. Those critical sections are a handful
/// of instructions, but with more callers than cores (many clients each
/// issuing small parallel rounds) blocking at once on a briefly held lock
/// starts a convoy - every later acquisition then pays a futex sleep and
/// wake-up, which cost 8 clients x 4-task rounds about a quarter of their
/// throughput on a 4-vCPU x86 host.
class SHALOM_SCOPED_CAPABILITY SpinMutexLock {
 public:
  explicit SpinMutexLock(Mutex& mu) SHALOM_ACQUIRE(mu) : mu_(mu) {
    for (int i = 0; i < 64; ++i) {
      if (mu_.try_lock()) return;
      cpu_relax();
    }
    mu_.lock();
  }
  ~SpinMutexLock() SHALOM_RELEASE() { mu_.unlock(); }

  SpinMutexLock(const SpinMutexLock&) = delete;
  SpinMutexLock& operator=(const SpinMutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Round: one in-flight parallel_for
// ---------------------------------------------------------------------------

/// Heap-allocated record of one fork-join round. Lifetime is managed by an
/// intrusive refcount: the submitter holds one reference for the duration
/// of parallel_for, the round list holds one while the round is listed,
/// and every worker drawing from it holds one. A worker may still hold
/// the round after it joined (it draws past the end, then lets go), which
/// is safe because workers only call `fn` after winning a claim - and a
/// won claim proves the task has not run, hence the round has not joined,
/// hence `fn` (which points into the submitter's frame) is still alive.
struct ThreadPool::Round {
  const std::function<void(int)>* fn;
  int tasks;

  /// Per-task claim slots. Exactly one exchange wins per slot, which is
  /// the exactly-once execution guarantee (`next` is only a hint).
  std::vector<std::atomic<bool>> claims;
  /// Next task index a worker draws. Task 0 is the submitter's (fork-join
  /// semantics), so drawing starts at 1.
  std::atomic<int> next{1};
  /// Tasks not yet executed; the last finisher signals the join.
  std::atomic<int> remaining;
  std::atomic<int> refs{1};  // submitter's reference

  Mutex mu;
  std::condition_variable_any cv;
  bool done SHALOM_GUARDED_BY(mu) = false;

  Round(const std::function<void(int)>* f, int t)
      : fn(f), tasks(t), claims(static_cast<std::size_t>(t)), remaining(t) {}

  void retain() noexcept { refs.fetch_add(1, std::memory_order_relaxed); }
  void release() noexcept {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

  /// Claims `task` for execution; true for exactly one caller.
  bool claim(int task) noexcept {
    return !claims[static_cast<std::size_t>(task)].exchange(
        true, std::memory_order_acq_rel);
  }

  /// Retires one executed task; the last one marks the round done.
  void finish() noexcept {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      MutexLock lock(mu);
      done = true;
      cv.notify_all();
    }
  }

  void wait_done() {
    MutexLock lock(mu);
    while (!done) cv.wait(lock);
  }
};

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

ThreadPool::ThreadPool(int max_threads) : requested_(max_threads) {
  SHALOM_REQUIRE(max_threads >= 1, " max_threads=", max_threads);
  health::Cause cause = health::Cause::kNone;
  {
    MutexLock lock(mu_);
    cause = spawn_locked(fault::Site::kThreadpoolSpawn);
  }
  // A narrowed pool is recoverable: arm the health registry so a
  // probation probe retries the spawn after the cool-down.
  if (cause != health::Cause::kNone)
    health::report_degraded(health::Component::kThreadPool, cause);
}

ThreadPool::~ThreadPool() {
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    threads.swap(threads_);
  }
  // Wakes parked workers too (a watchdog-abandoned worker parks on
  // start_cv_ until shutdown), so the joins below always complete.
  start_cv_.notify_all();
  for (auto& t : threads) t.join();
  MutexLock lock(mu_);
  for (Round* r : rounds_) r->release();
  rounds_.clear();
}

health::Cause ThreadPool::spawn_locked([[maybe_unused]] fault::Site site) {
  const int target = requested_.load(std::memory_order_relaxed);
  for (int width = max_threads_.load(std::memory_order_relaxed);
       width < target; ++width) {
    try {
      if (SHALOM_FAULT_POINT(site)) return health::Cause::kInjected;
      threads_.emplace_back([this] { worker_loop(); });
    } catch (const std::system_error&) {
      return health::Cause::kOverload;
    } catch (const std::bad_alloc&) {
      return health::Cause::kOverload;
    }
    // Publishes the new worker to parallel_for's width check.
    max_threads_.store(width + 1, std::memory_order_release);
  }
  return health::Cause::kNone;
}

void ThreadPool::grow(int threads) {
  // Lock-free fast path: the pool was already asked for this width. If
  // that growth failed, only the kThreadPool probation spawns again.
  if (threads <= requested_.load(std::memory_order_acquire)) return;
  health::Cause cause = health::Cause::kNone;
  {
    MutexLock lock(mu_);
    const int requested = requested_.load(std::memory_order_relaxed);
    if (shutdown_ || threads <= requested) return;
    // A pool still narrowed by an earlier failure only records the wider
    // request; the probation spawns toward it.
    const bool narrowed =
        max_threads_.load(std::memory_order_relaxed) < requested;
    requested_.store(threads, std::memory_order_release);
    if (!narrowed) cause = spawn_locked(fault::Site::kThreadpoolSpawn);
  }
  if (cause != health::Cause::kNone)
    health::report_degraded(health::Component::kThreadPool, cause);
}

bool ThreadPool::try_recover() noexcept {
  int respawned = 0;
  {
    MutexLock lock(mu_);
    if (shutdown_) return false;
    const int before = max_threads_.load(std::memory_order_relaxed);
    const health::Cause cause = spawn_locked(fault::Site::kHealthRespawn);
    if (cause != health::Cause::kNone)
      return false;  // probe failed; keep the width we have
    respawned = max_threads_.load(std::memory_order_relaxed) - before;
  }
  // Re-arm the watchdog: the next diagnostic round probes the pool at
  // full width and re-trips (re-degrading the component with a doubled
  // cool-down) if the wedge is still there.
  const bool was_degraded = degraded_.exchange(false,
                                               std::memory_order_acq_rel);
  if (respawned > 0 || was_degraded) {
    std::fprintf(stderr,
                 "shalom: threadpool: recovery probe re-spawned %d "
                 "worker(s), width now %d%s\n",
                 respawned, max_threads_.load(std::memory_order_acquire),
                 was_degraded ? "; watchdog re-armed" : "");
  }
  return true;
}

void ThreadPool::report_if_narrowed() noexcept {
  if (health::state(health::Component::kThreadPool) !=
      health::State::kHealthy)
    return;  // already reported; keep the recorded cause
  bool narrowed = false;
  {
    // Under mu_ a growth in flight has finished: a width still below the
    // request is a failed spawn, not one about to land.
    MutexLock lock(mu_);
    narrowed = !shutdown_ && max_threads_.load(std::memory_order_relaxed) <
                                 requested_.load(std::memory_order_relaxed);
  }
  if (narrowed)
    health::report_degraded(health::Component::kThreadPool,
                            health::Cause::kOverload);
}

void ThreadPool::parallel_for(int tasks, const std::function<void(int)>& fn,
                              int watchdog_ms) {
  const int width = max_threads_.load(std::memory_order_acquire);
  SHALOM_REQUIRE(tasks >= 1 && tasks <= width,
                 ": tasks must be in [1, max_threads]; tasks=", tasks,
                 " max_threads=", width,
                 " (use pool_run for width-tolerant execution)");
  if (tasks == 1) {
    fn(0);
    return;
  }
  if (watchdog_ms < 0) watchdog_ms = guard::env_watchdog_ms();

  Round* r = new Round(&fn, tasks);
  const int act = active_rounds_.fetch_add(1, std::memory_order_acq_rel) + 1;
  int hw = max_active_rounds_.load(std::memory_order_relaxed);
  while (act > hw &&
         !max_active_rounds_.compare_exchange_weak(
             hw, act, std::memory_order_acq_rel, std::memory_order_relaxed)) {
  }
  {
    SpinMutexLock lock(mu_);
    r->retain();  // the round list's reference
    rounds_.push_back(r);
  }
  start_cv_.notify_all();

  std::exception_ptr caught;
  run_leader_task(*r, 0, caught);  // fork-join: the caller takes task 0
  if (watchdog_ms > 0) {
    // Diagnostic mode: no eager help - inline help would complete the
    // round before a wedged worker could ever be observed (the leader
    // still recovers everything on a trip).
    watchdog_wait(*r, watchdog_ms, caught);
  } else {
    // Caller-inline help: claim-scan every task no worker claimed yet,
    // so the round completes even on a pool with zero live workers and
    // the submitting thread never blocks idle.
    for (int t = 1; t < tasks; ++t) run_leader_task(*r, t, caught);
    r->wait_done();  // join worker-claimed stragglers
  }
  {
    // Unlink the round so the list stays short; a worker may already
    // have unlinked it for us.
    SpinMutexLock lock(mu_);
    auto it = std::find(rounds_.begin(), rounds_.end(), r);
    if (it != rounds_.end()) {
      rounds_.erase(it);
      r->release();
    }
  }
  r->release();  // the submitter's reference
  active_rounds_.fetch_sub(1, std::memory_order_acq_rel);
  if (caught) std::rethrow_exception(caught);
}

void ThreadPool::run_leader_task(Round& r, int task,
                                 std::exception_ptr& caught) {
  if (!r.claim(task)) return;
  try {
    (*r.fn)(task);
  } catch (...) {
    // Deferred: the round must join before the exception can propagate
    // (workers may still be executing sibling tasks of this round).
    if (!caught) caught = std::current_exception();
  }
  r.finish();
}

void ThreadPool::watchdog_wait(Round& r, int watchdog_ms,
                               std::exception_ptr& caught) {
  std::uint64_t baseline = heartbeat_.load(std::memory_order_relaxed);
  bool tripped = false;
  MutexLock lock(r.mu);
  while (!r.done) {
    if (tripped) {
      // Whatever is still outstanding was claimed by a live-or-wedged
      // worker; only it can finish the task (a mid-task wedge may hold
      // half-written output). No further trips this round.
      while (!r.done) r.cv.wait(lock);
      break;
    }
    r.cv.wait_for(lock, std::chrono::milliseconds(watchdog_ms));
    if (r.done) break;
    const std::uint64_t now = heartbeat_.load(std::memory_order_relaxed);
    if (now != baseline) {
      baseline = now;  // workers are making progress; re-arm
      continue;
    }
    // Trip: a full period elapsed with zero heartbeat movement. Mark
    // the pool degraded (recoverable after the kThreadPool cool-down,
    // permanent when SHALOM_RECOVERY_MS=0), count it, and recover every
    // task no worker has claimed by running it on this thread.
    tripped = true;
    degraded_.store(true, std::memory_order_release);
    telemetry::note(Counter::kWatchdogTrips);
    health::report_degraded(health::Component::kThreadPool,
                            health::Cause::kOverload);
    std::fprintf(stderr,
                 "shalom: threadpool: watchdog tripped after %d ms with "
                 "no worker heartbeat progress (%d-task round); pool "
                 "degraded, leader recovering unclaimed tasks serially\n",
                 watchdog_ms, r.tasks);
    for (int t = 1; t < r.tasks; ++t) {
      lock.unlock();
      run_leader_task(r, t, caught);
      lock.lock();
    }
  }
}

ThreadPool::Round* ThreadPool::draw_locked(int& task) {
  while (!rounds_.empty()) {
    Round* r = rounds_.front();
    task = r->next.fetch_add(1, std::memory_order_acq_rel);
    if (task < r->tasks) {
      r->retain();  // the drawing worker's reference
      return r;
    }
    // Drawn dry: its remaining tasks are claimed or being claimed.
    rounds_.erase(rounds_.begin());
    r->release();
  }
  return nullptr;
}

void ThreadPool::worker_loop() {
  for (;;) {
    Round* r = nullptr;
    int t = 0;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && (r = draw_locked(t)) == nullptr)
        start_cv_.wait(lock);
      if (r == nullptr) return;  // shutting down
    }
    // Pickup heartbeat: the watchdog reads it to tell a slow round from
    // a wedged one.
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
    if (SHALOM_FAULT_POINT(fault::Site::kThreadpoolHeartbeat)) {
      // Simulated wedge: drop the drawn task unclaimed (so only the
      // watchdog leader can recover it) and park until pool shutdown -
      // exactly the observable behaviour of a worker the OS stopped
      // scheduling. The round's undrawn tasks stay with the live workers.
      r->release();
      MutexLock lock(mu_);
      while (!shutdown_) start_cv_.wait(lock);
      return;
    }
    do {
      if (r->claim(t)) {
        (*r->fn)(t);
        r->finish();
        heartbeat_.fetch_add(1, std::memory_order_relaxed);  // completion
      }
      t = r->next.fetch_add(1, std::memory_order_acq_rel);
    } while (t < r->tasks);
    r->release();
  }
}

// ---------------------------------------------------------------------------
// The global pool
// ---------------------------------------------------------------------------

ThreadPool& ThreadPool::global(int threads) {
  static ThreadPool pool(1);
  pool.grow(threads);
  return pool;
}

bool ThreadPool::recover_global_for_health() noexcept {
  return health::run_probation(health::Component::kThreadPool, []() noexcept {
    if (health::probe_faulted())
      return false;  // injected probe failure: treat exactly like a real one
    return global(1).try_recover();
  });
}

namespace {

/// Wires the global pool's recovery probe into the health layer at
/// static-init time, so recover_now() drives thread-pool recovery without
/// core ever being special-cased in common/health.cpp.
struct PoolHealthHookInit {
  PoolHealthHookInit() noexcept {
    health::set_recover_hook(health::Component::kThreadPool,
                             &ThreadPool::recover_global_for_health);
  }
};
PoolHealthHookInit g_pool_health_hook_init;

}  // namespace

void pool_run(int tasks, const std::function<void(int)>& fn,
              int watchdog_ms) {
  SHALOM_REQUIRE(tasks >= 1, " tasks=", tasks);
  if (tasks == 1) {
    fn(0);
    return;
  }
  ThreadPool& pool = ThreadPool::global(tasks);
  // Passive recovery check: when the kThreadPool component is degraded
  // and its cool-down has elapsed, run one probation probe before
  // narrowing this round. One atomic load while healthy; this path
  // alone recovers the pool without a forced recover_now(). A narrow pool
  // whose failure report the latch dropped is reported again first.
  if (pool.max_threads() < tasks) pool.report_if_narrowed();
  if (pool.degraded() || pool.max_threads() < tasks)
    (void)ThreadPool::recover_global_for_health();
  // A watchdog-degraded pool has at least one wedged worker: every
  // parallel round on it would trip again and be recovered by the
  // leader, so skip straight to the serial loop.
  const bool degraded = pool.degraded();
  const int avail = degraded ? 1 : pool.max_threads();
  if (avail >= tasks) {
    pool.parallel_for(tasks, fn, watchdog_ms);
    return;
  }
  // Degraded round: fewer workers than tasks. Chunk tasks over the width
  // we have; with a single-thread (or watchdog-degraded) pool that
  // collapses to a serial loop.
  telemetry::note(Counter::kThreadsDegraded);
  if (avail <= 1) {
    for (int id = 0; id < tasks; ++id) fn(id);
    return;
  }
  pool.parallel_for(
      avail,
      [&](int w) {
        for (int id = w; id < tasks; id += avail) fn(id);
      },
      watchdog_ms);
}

}  // namespace shalom
