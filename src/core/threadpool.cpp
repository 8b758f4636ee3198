#include "core/threadpool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <new>
#include <system_error>

#include "common/error.h"
#include "common/fault.h"
#include "common/guard.h"
#include "common/health.h"
#include "common/thread_annotations.h"

namespace shalom {

namespace {

/// Retired pools kept alive beyond the newest one. Small on purpose: each
/// retiree only exists because a wider pool superseded it, and thread
/// counts grow a handful of times per process, but an adversarial
/// grow-loop must not leak pools without bound.
constexpr std::size_t kMaxRetiredPools = 4;

/// The global-pool registry. Outgrown pools are retired to the list, not
/// destroyed mid-run: a reference handed out by an earlier call may still
/// be inside parallel_for on another thread, and ~ThreadPool under it
/// would free the mutex/condvars it is blocked on. Reaping (bounding the
/// list) therefore only touches retirees that are provably quiescent:
/// zero Handle pins and zero rounds in flight.
struct PoolRegistry {
  Mutex mu;
  std::vector<std::unique_ptr<ThreadPool>> pools SHALOM_GUARDED_BY(mu);
};

PoolRegistry& registry() {
  static PoolRegistry r;
  return r;
}

/// Round-admission override: -1 follows SHALOM_SERIALIZE_ROUNDS, 0/1 is
/// forced by a bench or test (ThreadPool::set_serialize_rounds_for_testing).
std::atomic<int> g_serialize_override{-1};

/// Smallest power of two >= n (used for the deque ring capacity).
std::size_t pow2_at_least(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

/// What the deques carry: a (round, task index) hint. Hints are advisory;
/// only a claim CAS win makes the holder run the task.
struct ThreadPool::TaskSlot {
  Round* round;
  int task;
};

// ---------------------------------------------------------------------------
// Round: one in-flight parallel_for
// ---------------------------------------------------------------------------

/// Heap-allocated record of one fork-join round. Lifetime is managed by an
/// intrusive refcount: the submitter holds one reference for the duration
/// of run_round, the injection list holds one while the round is linked,
/// and every task hint handed to a deque (or carried by a worker) holds
/// one. Hints may outlive the round's completion (a stale deque entry),
/// which is safe because they only ever touch `claims` - and a successful
/// claim proves the task has not run, hence the round has not joined,
/// hence `fn` (which points into the submitter's frame) is still alive.
struct ThreadPool::Round {
  const std::function<void(int)>* fn;
  int tasks;
  std::uint64_t gen;  // generation tag stored into won claim slots

  /// Per-task claim slots: 0 = unclaimed, `gen` = claimed. Exactly one
  /// CAS wins per slot, which is the exactly-once execution guarantee
  /// (deque entries and the injection list are only hints).
  std::vector<std::atomic<std::uint64_t>> claims;
  std::vector<TaskSlot> slots;
  /// Next task index not yet handed to any deque. Task 0 is the
  /// submitter's (fork-join semantics), so distribution starts at 1.
  std::atomic<int> next_undist{1};
  /// Tasks not yet executed; the last finisher signals the join.
  std::atomic<int> remaining;
  std::atomic<int> refs{1};  // submitter's reference

  Mutex mu;
  std::condition_variable_any cv;
  bool done SHALOM_GUARDED_BY(mu) = false;

  Round(const std::function<void(int)>* f, int t, std::uint64_t g)
      : fn(f), tasks(t), gen(g),
        claims(static_cast<std::size_t>(t)),
        slots(static_cast<std::size_t>(t)),
        remaining(t) {
    for (int i = 0; i < t; ++i)
      slots[static_cast<std::size_t>(i)] = TaskSlot{this, i};
  }

  void retain() noexcept { refs.fetch_add(1, std::memory_order_relaxed); }
  void release() noexcept {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

  /// Claims `task` for execution; true for exactly one caller.
  bool claim(int task) noexcept {
    std::uint64_t expected = 0;
    return claims[static_cast<std::size_t>(task)].compare_exchange_strong(
        expected, gen, std::memory_order_acq_rel, std::memory_order_acquire);
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
// Deque: Chase-Lev-style per-worker work queue
// ---------------------------------------------------------------------------

/// Fixed-capacity single-owner deque: the owning worker pushes and pops at
/// the bottom, thieves CAS-increment the top. Entries are TaskSlot hints -
/// losing one to a race or overflow is a load-balance event, never a
/// correctness event (the claim protocol is the ground truth). The classic
/// formulation (Le et al., "Correct and efficient work-stealing for weak
/// memory models") uses standalone fences; TSan does not model those, so
/// the fences are expressed as seq_cst operations on top_/bottom_ instead,
/// per the explicit-memory-order lint discipline.
class ThreadPool::Deque {
 public:
  explicit Deque(std::size_t capacity_pow2)
      : buf_(capacity_pow2), mask_(capacity_pow2 - 1) {}

  /// Owner only. False when full; the caller runs the task inline then.
  bool push(TaskSlot* s) noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= static_cast<std::int64_t>(buf_.size())) return false;
    buf_[static_cast<std::size_t>(b) & mask_].store(
        s, std::memory_order_relaxed);
    // Release-publishes the slot write to thieves that acquire bottom_.
    bottom_.store(b + 1, std::memory_order_release);
    return true;
  }

  /// Owner only. Null when empty (or the last element was stolen).
  TaskSlot* pop() noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    // The bottom_ reservation must be globally ordered before the top_
    // read (seq_cst store/load pair), or the owner and a thief could
    // both take the last element.
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t <= b) {
      TaskSlot* s = buf_[static_cast<std::size_t>(b) & mask_].load(
          std::memory_order_relaxed);
      if (t == b) {
        // Last element: race the thieves for it on top_.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
          s = nullptr;  // a thief won
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
      return s;
    }
    bottom_.store(b + 1, std::memory_order_relaxed);  // was empty
    return nullptr;
  }

  /// Any thread. Null when empty or the CAS race was lost.
  TaskSlot* steal() noexcept {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    TaskSlot* s = buf_[static_cast<std::size_t>(t) & mask_].load(
        std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return nullptr;  // lost to the owner or another thief
    // The CAS win proves no one consumed index t before us, and the
    // bottom_ acquire above made the producing slot write visible, so
    // `s` is the entry pushed at index t.
    return s;
  }

 private:
  std::vector<std::atomic<TaskSlot*>> buf_;
  std::size_t mask_;
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
};

struct ThreadPool::Worker {
  Deque deque;
  explicit Worker(std::size_t cap) : deque(cap) {}
};

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

ThreadPool::ThreadPool(int max_threads)
    : max_threads_(max_threads),
      workers_(max_threads >= 1 ? static_cast<std::size_t>(max_threads) : 1),
      heartbeats_(max_threads >= 1 ? static_cast<std::size_t>(max_threads)
                                   : 1) {
  SHALOM_REQUIRE(max_threads >= 1, " max_threads=", max_threads);
  const std::size_t deque_cap = pow2_at_least(
      std::max<std::size_t>(64, static_cast<std::size_t>(max_threads) * 4));
  // Every Worker slot is written BEFORE the first thread spawns: a
  // spawned worker immediately scans all of workers_[*] as steal
  // victims, so the slot stores must happen-before the spawn (the
  // thread-creation edge), never race with it. A slot that fails to
  // allocate stays null; spawning stops at the first gap.
  try {
    for (int w = 1; w < max_threads; ++w)
      workers_[static_cast<std::size_t>(w)] =
          std::make_unique<Worker>(deque_cap);
  } catch (const std::bad_alloc&) {
    // Keep the slots that did allocate; width narrows below.
  }
  threads_.reserve(static_cast<std::size_t>(max_threads - 1));
  health::Cause cause = health::Cause::kNone;
  for (int w = 1; w < max_threads; ++w) {
    if (workers_[static_cast<std::size_t>(w)] == nullptr) {
      // Alloc-gap narrowing: the slot itself is missing, so there is
      // nothing a later respawn probe could attach a thread to. Narrow
      // without reporting the health component degraded.
      max_threads_.store(w, std::memory_order_release);
      break;
    }
    try {
      if (SHALOM_FAULT_POINT(fault::Site::kThreadpoolSpawn)) {
        cause = health::Cause::kInjected;
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again));
      }
      threads_.emplace_back([this, w] { worker_loop(w); });
    } catch (const std::system_error&) {
      // Workers 1..w-1 already run and support w-way rounds; keep them.
      // workers_[w] stays allocated but threadless: its deque is forever
      // empty, so victims scans skip past it harmlessly - and
      // try_recover() can attach a thread to it later.
      if (cause == health::Cause::kNone) cause = health::Cause::kOverload;
      max_threads_.store(w, std::memory_order_release);
      break;
    } catch (const std::bad_alloc&) {
      cause = health::Cause::kOverload;
      max_threads_.store(w, std::memory_order_release);
      break;
    }
  }
  // Spawn-failure narrowing is recoverable (the slot kept its Worker):
  // arm the health registry so a probation probe retries the spawn after
  // the cool-down.
  if (cause != health::Cause::kNone)
    health::report_degraded(health::Component::kThreadPool, cause);
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  // Wakes parked workers too (a watchdog-abandoned worker parks on
  // start_cv_ until shutdown), so the joins below always complete.
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
  // Workers are gone; drop the stale hints their deques still hold (they
  // only pin round memory - every completed round's claims are all won).
  for (auto& w : workers_) {
    if (w == nullptr) continue;
    while (TaskSlot* s = w->deque.pop()) s->round->release();
  }
  MutexLock lock(mu_);
  for (Round* r : injection_) r->release();
  injection_.clear();
}

bool ThreadPool::serialize_rounds() noexcept {
  const int forced = g_serialize_override.load(std::memory_order_acquire);
  if (forced >= 0) return forced != 0;
  static const bool from_env =
      env::get_long("SHALOM_SERIALIZE_ROUNDS", 0, 0, 1) != 0;
  return from_env;
}

void ThreadPool::set_serialize_rounds_for_testing(bool on) noexcept {
  g_serialize_override.store(on ? 1 : 0, std::memory_order_release);
}

void ThreadPool::clear_serialize_rounds_override() noexcept {
  g_serialize_override.store(-1, std::memory_order_release);
}

std::uint64_t ThreadPool::heartbeat_sum() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& hb : heartbeats_)
    sum += hb.load(std::memory_order_relaxed);
  return sum;
}

bool ThreadPool::try_recover() noexcept {
  int respawned = 0;
  {
    MutexLock lock(mu_);
    if (shutdown_) return false;
    // Re-attach threads to spawn-narrowed slots. Only slots whose Worker
    // record exists are candidates: the slot stores all happened in the
    // constructor (before any thread ran), so a thief scanning workers_
    // never races these reads, and a slot that is threadless has a
    // provably empty deque with no owner - a fresh thread can take it.
    const int requested = static_cast<int>(workers_.size());
    int width = max_threads_.load(std::memory_order_acquire);
    while (width < requested) {
      if (workers_[static_cast<std::size_t>(width)] == nullptr)
        break;  // alloc-gap slot: nothing to attach a thread to
      const int id = width;
      try {
        if (SHALOM_FAULT_POINT(fault::Site::kHealthRespawn))
          throw std::system_error(
              std::make_error_code(std::errc::resource_unavailable_try_again));
        threads_.emplace_back([this, id] { worker_loop(id); });
      } catch (const std::system_error&) {
        return false;  // probe failed; keep the width we have
      } catch (const std::bad_alloc&) {
        return false;
      }
      ++width;
      // Publishes the new worker to parallel_for's width check.
      max_threads_.store(width, std::memory_order_release);
      ++respawned;
    }
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
  if (serialize_rounds()) {
    // Compatibility mode: one round at a time, workers do all the
    // non-leader work (the PR 5 admission discipline, and the baseline
    // bench/abl_engine measures overlap against).
    MutexLock run_lock(run_mu_);
    run_round(tasks, fn, watchdog_ms, /*leader_helps=*/false);
    return;
  }
  // Overlapping mode. With a watchdog armed the leader must NOT help
  // eagerly: inline help would complete the round before a wedged worker
  // could ever be observed, and the whole point of the diagnostic round
  // is to observe it (the leader still recovers everything on a trip).
  run_round(tasks, fn, watchdog_ms, /*leader_helps=*/watchdog_ms <= 0);
}

void ThreadPool::run_round(int tasks, const std::function<void(int)>& fn,
                           int watchdog_ms, bool leader_helps) {
  const int act = active_rounds_.fetch_add(1, std::memory_order_acq_rel) + 1;
  int hw = max_active_rounds_.load(std::memory_order_relaxed);
  while (act > hw &&
         !max_active_rounds_.compare_exchange_weak(
             hw, act, std::memory_order_acq_rel, std::memory_order_relaxed)) {
  }

  Round* r = new Round(&fn, tasks,
                       round_gen_.fetch_add(1, std::memory_order_relaxed) + 1);
  {
    MutexLock lock(mu_);
    r->retain();  // the injection list's reference
    injection_.push_back(r);
    ++submit_seq_;
  }
  start_cv_.notify_all();

  std::exception_ptr caught;
  run_leader_task(*r, 0, caught);  // fork-join: the caller takes task 0
  if (leader_helps) {
    // Caller-inline help: claim-scan every task no worker picked up yet,
    // so the round completes even on a pool with zero live workers and
    // the submitting thread never blocks idle.
    for (int t = 1; t < tasks; ++t) run_leader_task(*r, t, caught);
    r->wait_done();  // join worker-claimed stragglers
  } else if (watchdog_ms <= 0) {
    r->wait_done();
  } else {
    watchdog_wait(*r, watchdog_ms, caught);
  }
  {
    // Unlink the (likely exhausted) round so the list stays short; a
    // worker may already have unlinked it for us.
    MutexLock lock(mu_);
    auto it = std::find(injection_.begin(), injection_.end(), r);
    if (it != injection_.end()) {
      injection_.erase(it);
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
  std::uint64_t baseline = heartbeat_sum();
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
    const std::uint64_t now = heartbeat_sum();
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
    telemetry::note_watchdog_trip();
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

ThreadPool::TaskSlot* ThreadPool::steal_task(int thief_id) noexcept {
  const int n = static_cast<int>(workers_.size());
  if (n <= 2) return nullptr;  // no other worker to rob
  for (int k = 1; k < n - 1; ++k) {
    // Deterministic round-robin starting after the thief: spreads
    // contention without a randomness source (lint: nondeterminism).
    const int victim = 1 + (thief_id - 1 + k) % (n - 1);
    Worker* w = workers_[static_cast<std::size_t>(victim)].get();
    if (w == nullptr) continue;
    if (SHALOM_FAULT_POINT(fault::Site::kThreadpoolSteal))
      continue;  // injected degradation: treat this victim as empty
    if (TaskSlot* s = w->deque.steal()) return s;
  }
  return nullptr;
}

ThreadPool::TaskSlot* ThreadPool::claim_from_injection(int worker_id) {
  Round* r = nullptr;
  {
    MutexLock lock(mu_);
    while (!injection_.empty()) {
      Round* cand = injection_.front();
      if (cand->next_undist.load(std::memory_order_acquire) >= cand->tasks) {
        // Fully distributed: unlink so the list stays short (its tasks
        // live on as deque hints or claims now).
        injection_.erase(injection_.begin());
        cand->release();
        continue;
      }
      r = cand;
      r->retain();  // working reference for the distribution below
      break;
    }
  }
  if (r == nullptr) return nullptr;
  // Pull every still-undistributed task: run the first ourselves, queue
  // the rest in our own deque for thieves to share.
  TaskSlot* mine = nullptr;
  int pushed = 0;
  Worker& self = *workers_[static_cast<std::size_t>(worker_id)];
  for (;;) {
    const int i = r->next_undist.fetch_add(1, std::memory_order_acq_rel);
    if (i >= r->tasks) break;
    TaskSlot* s = &r->slots[static_cast<std::size_t>(i)];
    r->retain();  // the hint's reference (released by its consumer)
    if (mine == nullptr) {
      mine = s;
      continue;
    }
    if (self.deque.push(s)) {
      ++pushed;
    } else {
      execute_task(s);  // deque full: run it here and now
    }
  }
  if (pushed > 0) {
    {
      MutexLock lock(mu_);
      ++submit_seq_;
    }
    start_cv_.notify_all();
  }
  r->release();
  return mine;
}

void ThreadPool::execute_task(TaskSlot* slot) {
  Round* r = slot->round;
  if (r->claim(slot->task)) {
    (*r->fn)(slot->task);
    r->finish();
  }
  r->release();
}

void ThreadPool::worker_loop(int worker_id) {
  Worker& self = *workers_[static_cast<std::size_t>(worker_id)];
  std::atomic<std::uint64_t>& beat =
      heartbeats_[static_cast<std::size_t>(worker_id)];
  for (;;) {
    // Capture the wakeup sequence BEFORE hunting, so a publication that
    // races the hunt re-runs it instead of being slept through.
    std::uint64_t seen_seq = 0;
    {
      MutexLock lock(mu_);
      if (shutdown_) return;
      seen_seq = submit_seq_;
    }
    TaskSlot* slot = self.deque.pop();
    if (slot == nullptr) slot = steal_task(worker_id);
    if (slot == nullptr) slot = claim_from_injection(worker_id);
    if (slot != nullptr) {
      // Pickup heartbeat: the watchdog reads these sums to tell a slow
      // round from a wedged one.
      beat.fetch_add(1, std::memory_order_relaxed);
      if (SHALOM_FAULT_POINT(fault::Site::kThreadpoolHeartbeat)) {
        // Simulated wedge: drop the hint unclaimed (so the watchdog
        // leader can recover the task) and park until pool shutdown -
        // exactly the observable behaviour of a worker the OS stopped
        // scheduling. Anything already queued in our deque stays
        // stealable by the healthy workers.
        slot->round->release();
        MutexLock lock(mu_);
        while (!shutdown_) start_cv_.wait(lock);
        return;
      }
      execute_task(slot);
      beat.fetch_add(1, std::memory_order_relaxed);  // completion
      continue;
    }
    MutexLock lock(mu_);
    while (!shutdown_ && submit_seq_ == seen_seq) start_cv_.wait(lock);
    if (shutdown_) return;
  }
}

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

namespace {

/// Grows the registry to at least `threads` wide. Caller holds r.mu.
void ensure_width_locked(PoolRegistry& r, int threads) SHALOM_REQUIRES(r.mu) {
  if (r.pools.empty() || r.pools.back()->max_threads() < threads) {
    auto pool = std::make_unique<ThreadPool>(threads);
    // Under spawn failure the new pool may come back no wider than the one
    // we already have; keep the old one rather than churning out a retired
    // pool per call while the OS stays resource-starved.
    if (r.pools.empty() ||
        pool->max_threads() > r.pools.back()->max_threads())
      r.pools.push_back(std::move(pool));
  }
}

}  // namespace

void ThreadPool::reap_retired_locked(
    std::vector<std::unique_ptr<ThreadPool>>& pools) {
  // The newest pool (back) is never reaped. A retiree is quiescent when
  // no Handle pins it and no round is in flight; only quiescent retirees
  // go, and only while the list is over cap. Oldest first: the oldest
  // retirees are the least likely to still be referenced by a transient
  // global() caller.
  std::size_t i = 0;
  while (pools.size() > kMaxRetiredPools + 1 && i + 1 < pools.size()) {
    ThreadPool& p = *pools[i];
    if (p.pins_.load(std::memory_order_acquire) == 0 &&
        p.active_rounds_.load(std::memory_order_acquire) == 0) {
      pools.erase(pools.begin() +
                  static_cast<std::vector<
                      std::unique_ptr<ThreadPool>>::difference_type>(i));
    } else {
      ++i;
    }
  }
}

ThreadPool& ThreadPool::global(int threads) {
  PoolRegistry& preg = registry();
  MutexLock lock(preg.mu);
  ensure_width_locked(preg, threads);
  return *preg.pools.back();
}

ThreadPool::Handle::Handle(int threads) {
  PoolRegistry& preg = registry();
  MutexLock lock(preg.mu);
  ensure_width_locked(preg, threads);
  pool_ = preg.pools.back().get();
  pool_->pins_.fetch_add(1, std::memory_order_acq_rel);
  // Piggyback the reap pass on acquisition: the registry only grows on
  // acquisition too, so this bounds the retired list without a dedicated
  // maintenance thread.
  reap_retired_locked(preg.pools);
}

ThreadPool::Handle::~Handle() {
  pool_->pins_.fetch_sub(1, std::memory_order_acq_rel);
}

int ThreadPool::retired_pool_count_for_testing() {
  PoolRegistry& preg = registry();
  MutexLock lock(preg.mu);
  return preg.pools.empty() ? 0 : static_cast<int>(preg.pools.size()) - 1;
}

bool ThreadPool::recover_global_for_health() noexcept {
  return health::run_probation(health::Component::kThreadPool, []() noexcept {
    if (health::probe_faulted())
      return false;  // injected probe failure: treat exactly like a real one
    // Probe the newest pool only: it is the one pool_run routes every
    // round through, and retirees are kept solely for references already
    // handed out. Pin it like a Handle would so the reaper cannot free it
    // while the probe runs outside the registry lock.
    ThreadPool* pool = nullptr;
    {
      PoolRegistry& preg = registry();
      MutexLock lock(preg.mu);
      if (preg.pools.empty())
        return true;  // every pool was reaped; nothing left to be degraded
      pool = preg.pools.back().get();
      pool->pins_.fetch_add(1, std::memory_order_acq_rel);
    }
    const bool ok = pool->try_recover();
    pool->pins_.fetch_sub(1, std::memory_order_acq_rel);
    return ok;
  });
}

namespace {

/// Wires the pool registry's recovery probe into the health layer at
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
  ThreadPool::Handle handle(tasks);
  ThreadPool& pool = handle.pool();
  // Passive recovery check: when the kThreadPool component is degraded
  // and its cool-down has elapsed, run one probation probe before
  // narrowing this round. One atomic load while healthy; this path
  // alone recovers the pool without a forced recover_now().
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
  telemetry::note_threads_degraded();
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
