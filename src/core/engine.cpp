#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <new>
#include <system_error>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "common/health.h"
#include "core/batch.h"
#include "core/parallel.h"
#include "core/plan.h"

namespace shalom {
namespace engine {

// ---------------------------------------------------------------------------
// Ticket
// ---------------------------------------------------------------------------

void Ticket::complete(int status, std::string message) {
  MutexLock lock(mu_);
  status_ = status;
  message_ = std::move(message);
  done_ = true;
  cv_.notify_all();
}

int Ticket::wait() {
  MutexLock lock(mu_);
  while (!done_) cv_.wait(lock);
  return status_;
}

bool Ticket::wait_for(long ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(ms > 0 ? ms : 0);
  MutexLock lock(mu_);
  while (!done_) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout)
      return done_;
  }
  return true;
}

bool Ticket::done() const {
  MutexLock lock(mu_);
  return done_;
}

int Ticket::status() const {
  MutexLock lock(mu_);
  return status_;
}

const std::string& Ticket::message() const {
  MutexLock lock(mu_);
  return message_;
}

bool Ticket::try_claim() {
  std::uint32_t expected = 0;
  return claim_.compare_exchange_strong(expected, 1,
                                        std::memory_order_acq_rel);
}

bool Ticket::revoke(int status, std::string message) {
  std::uint32_t expected = 0;
  if (!claim_.compare_exchange_strong(expected, 2,
                                      std::memory_order_acq_rel))
    return false;
  complete(status, std::move(message));
  return true;
}

// ---------------------------------------------------------------------------
// Env knobs (parsed once per process, PR 3 hardening discipline)
// ---------------------------------------------------------------------------

long env_queue_cap() noexcept {
  // lo = 1: a cap of zero would reject every submission, which is never
  // what an operator meant - it warns and falls back to unbounded.
  static const long cap =
      env::get_long("SHALOM_QUEUE_CAP", 0, 1, 1L << 30);
  return cap;
}

OverloadPolicy env_overload_policy() noexcept {
  static const char* const kNames[] = {"block", "shed-newest",
                                       "shed-oldest"};
  static const int policy =
      env::get_enum("SHALOM_OVERLOAD_POLICY", 0, kNames, 3);
  return static_cast<OverloadPolicy>(policy);
}

long env_retry_budget() noexcept {
  static const long budget =
      env::get_long("SHALOM_RETRY_BUDGET", 3, 0, 16);
  return budget;
}

// ---------------------------------------------------------------------------
// GemmStream
// ---------------------------------------------------------------------------

namespace {

/// One queued request, type-erased so float and double submissions share
/// the pending vector. alpha/beta are stored widened to double; a float
/// payload round-trips exactly through the widening cast.
struct Request {
  char dtype = 's';  // 's' or 'd'
  Mode mode{};
  index_t m = 0, n = 0, k = 0, lda = 0, ldb = 0, ldc = 0;
  double alpha = 0.0, beta = 0.0;
  const void* a = nullptr;
  const void* b = nullptr;
  void* c = nullptr;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  TicketPtr ticket;
};

/// Maps the in-flight exception (catch(...) context) to its
/// shalom_status, mirroring the synchronous C boundary's translation.
/// Deliberately does NOT touch the C API's thread-local last-error slot:
/// completion runs on the drainer thread, and shalom_wait re-surfaces
/// the status on the waiting thread.
int status_of_current_exception(std::string& message) {
  try {
    throw;
  } catch (const shalom::invalid_argument& e) {
    message = e.what();
    return SHALOM_ERR_INVALID_ARGUMENT;
  } catch (const shalom::numeric_error& e) {
    message = e.what();
    return SHALOM_ERR_NUMERIC;
  } catch (const shalom::corruption_error& e) {
    message = e.what();
    return SHALOM_ERR_CORRUPTION;
  } catch (const shalom::kernel_trap_error& e) {
    message = e.what();
    return SHALOM_ERR_KERNEL_TRAP;
  } catch (const shalom::rejected_error& e) {
    message = e.what();
    return SHALOM_ERR_REJECTED;
  } catch (const shalom::timeout_error& e) {
    message = e.what();
    return SHALOM_ERR_TIMEOUT;
  } catch (const std::bad_alloc& e) {
    message = e.what();
    return SHALOM_ERR_ALLOC;
  } catch (const std::exception& e) {
    message = e.what();
    return SHALOM_ERR_INTERNAL;
  } catch (...) {
    return SHALOM_ERR_INTERNAL;
  }
}

/// One exponential-backoff pause between transient-failure retries:
/// 1/2/4/8 ms, capped so a deep budget cannot stall a submitter for
/// seconds.
void backoff_sleep(long attempt) {
  const long shift = attempt < 3 ? attempt : 3;
  std::this_thread::sleep_for(std::chrono::milliseconds(1L << shift));
}

/// Streams currently latched, for the process-wide health registry's
/// kStreamBreaker aggregate (each stream keeps its own breaker latch).
/// Relaxed: a census with no ordering ties to the per-stream state it
/// summarizes.
std::atomic<int> g_latched_streams{0};

}  // namespace

struct GemmStream::Impl {
  StreamOptions opts;  // fully resolved in the ctor (no negatives left)

  mutable Mutex mu;
  std::condition_variable_any submit_cv;   // submitters -> drainer
  std::condition_variable_any drained_cv;  // drainer -> flush waiters
  std::condition_variable_any space_cv;    // drainer -> blocked submitters
  std::vector<Request> pending SHALOM_GUARDED_BY(mu);
  bool stop SHALOM_GUARDED_BY(mu) = false;
  /// True while the drainer is executing a swapped-out batch; flush()
  /// waits on (pending empty && !executing).
  bool executing SHALOM_GUARDED_BY(mu) = false;
  /// Stream lifecycle: running → draining → closed. Leaving kRunning is
  /// one-way; submits on a non-running stream are rejected.
  enum Lifecycle { kRunning, kDraining, kClosed };
  Lifecycle lifecycle SHALOM_GUARDED_BY(mu) = kRunning;
  StreamStats counters SHALOM_GUARDED_BY(mu);

  /// Drainer-thread spawn failed: submit() executes inline instead.
  bool synchronous = false;  // set once in the ctor, then read-only
  /// Circuit breaker: latched (DEGRADED) after breaker_threshold
  /// consecutive retry-exhausted submit failures; a latched stream
  /// executes inline like a spawn-degraded one. Once the recovery
  /// cool-down elapses the latch goes half-open (PROBATION) and admits
  /// SHALOM_PROBATION_N trial submissions through the real enqueue path;
  /// as many clean trials close it, one failed trial re-latches it with a
  /// doubled cool-down. With SHALOM_RECOVERY_MS=0 the latch is permanent,
  /// the pre-recovery behaviour.
  health::Latch breaker;
  std::atomic<int> consecutive_failures{0};
  std::atomic<std::uint64_t> retry_count{0};
  std::thread drainer;

  bool degraded() const noexcept {
    return synchronous || breaker.state() != health::State::kHealthy;
  }

  void count_retry() noexcept {
    retry_count.fetch_add(1, std::memory_order_relaxed);
    telemetry::note_submit_retry();
  }

  /// The latch transition (exactly once per healthy->latched cycle):
  /// arms the recovery cool-down and registers the stream in the
  /// process-wide breaker census.
  void latch_breaker() noexcept {
    if (!breaker.degrade(health::Cause::kOverload)) return;
    telemetry::note_breaker_trip();
    g_latched_streams.fetch_add(1, std::memory_order_relaxed);
    health::report_degraded(health::Component::kStreamBreaker,
                            health::Cause::kOverload);
  }

  /// The stream's breaker left the latched state (its trial streak
  /// closed it, or the stream closed while latched): it drops out of the
  /// census, and the last one out clears the kStreamBreaker aggregate.
  /// Counts no recovery - a closed trial streak was counted by the
  /// stream's own latch, and a closing stream restored nothing.
  void leave_census() noexcept {
    consecutive_failures.store(0, std::memory_order_relaxed);
    if (g_latched_streams.fetch_sub(1, std::memory_order_relaxed) == 1)
      (void)health::latch(health::Component::kStreamBreaker).recover();
  }

  /// Decides whether this submit runs as a half-open trial through the
  /// real enqueue path: opens the trial window once the cool-down has
  /// elapsed, then asks the latch for one of its SHALOM_PROBATION_N
  /// admissions. Each admitted trial counts a probation probe and honours
  /// the health.probe fault site (an injected failure re-latches the
  /// breaker at once and the request falls back to inline execution).
  bool breaker_trial_admission(health::Latch::Window* window) noexcept {
    if (synchronous) return false;  // no drainer to return to
    if (breaker.try_begin_probation()) telemetry::note_breaker_half_open();
    if (!breaker.admit_trial(window)) return false;  // closed or full
    if (health::probe_faulted()) {
      breaker.end_trial(*window, false);
      return false;
    }
    return true;
  }

  /// Reports a trial's outcome; the SHALOM_PROBATION_N-th clean trial
  /// closes the breaker.
  void breaker_trial_done(health::Latch::Window window, bool clean) noexcept {
    if (breaker.end_trial(window, clean) && clean) leave_census();
  }

  /// Executes one shape bucket (equal dtype + mode, shape-ordered) as a
  /// single coalesced gemm_batch call and resolves every ticket.
  /// `ok_status` is what a successful entry resolves to: SHALOM_OK on the
  /// drainer path, SHALOM_DEGRADED on the inline degraded path.
  template <typename T>
  void run_bucket(Mode mode, const std::vector<Request*>& bucket,
                  int ok_status) {
    Config cfg;
    cfg.threads = opts.threads;
    bool coalesced = true;
    int batch_status = SHALOM_OK;
    std::string batch_message;
    try {
      std::vector<BatchEntry<T>> entries;
      entries.reserve(bucket.size());
      for (const Request* r : bucket) {
        BatchEntry<T> e;
        e.m = r->m;
        e.n = r->n;
        e.k = r->k;
        e.alpha = static_cast<T>(r->alpha);
        e.a = static_cast<const T*>(r->a);
        e.lda = r->lda;
        e.b = static_cast<const T*>(r->b);
        e.ldb = r->ldb;
        e.beta = static_cast<T>(r->beta);
        e.c = static_cast<T*>(r->c);
        e.ldc = r->ldc;
        entries.push_back(e);
      }
      gemm_batch<T>(mode, entries, cfg);
    } catch (...) {
      coalesced = false;
      batch_status = status_of_current_exception(batch_message);
    }
    if (coalesced) {
      for (const Request* r : bucket)
        r->ticket->complete(ok_status, std::string());
      return;
    }
    // The coalesced run failed and gemm_batch gives no per-entry verdict:
    // some entries may already have written C. Retry individually ONLY
    // the idempotent ones (beta == 0 overwrites C, so a re-run of an
    // already-executed entry is harmless); beta != 0 entries accumulate
    // and a blind re-run could apply them twice, so they inherit the
    // batch failure instead. Transient SHALOM_ERR_ALLOC per-entry
    // failures get the stream's backoff retry budget before resolving.
    for (const Request* r : bucket) {
      if (static_cast<T>(r->beta) != T{0}) {
        r->ticket->complete(batch_status, batch_message);
        continue;
      }
      int status = SHALOM_OK;
      std::string message;
      for (long attempt = 0;; ++attempt) {
        status = SHALOM_OK;
        message.clear();
        try {
          gemm_parallel<T>(mode, r->m, r->n, r->k, static_cast<T>(r->alpha),
                           static_cast<const T*>(r->a), r->lda,
                           static_cast<const T*>(r->b), r->ldb,
                           static_cast<T>(r->beta), static_cast<T*>(r->c),
                           r->ldc, cfg);
        } catch (...) {
          status = status_of_current_exception(message);
        }
        if (status != SHALOM_ERR_ALLOC || attempt >= opts.retry_budget)
          break;
        count_retry();
        backoff_sleep(attempt);
      }
      r->ticket->complete(status, std::move(message));
    }
  }

  /// Inline degraded execution of one request on the submitting thread
  /// (the latched / spawn-degraded path, and the fallback for a failed
  /// half-open trial). Claims first so a concurrent cancel of the (not
  /// yet returned) ticket can never double-resolve it, and counts it
  /// executed before completion so a waiter that sees the ticket resolve
  /// never reads stats() missing it.
  template <typename T>
  void run_inline(Mode mode, Request& r, const TicketPtr& ticket) {
    {
      MutexLock lock(mu);
      if (lifecycle != kRunning) {
        ++counters.shed;
        telemetry::note_request_shed();
        throw rejected_error("shalom: submit on a draining/closed stream");
      }
      ++counters.submitted;
    }
    ticket->try_claim();
    {
      MutexLock lock(mu);
      ++counters.executed;
      ++counters.batches;
    }
    const std::vector<Request*> one{&r};
    run_bucket<T>(mode, one, SHALOM_DEGRADED);
  }

  /// Shape-buckets one swapped-out batch and runs each bucket coalesced.
  /// Returns the number of gemm_batch calls issued.
  std::uint64_t execute_batch(std::vector<Request>& batch) {
    std::vector<Request*> order;
    order.reserve(batch.size());
    for (Request& r : batch) order.push_back(&r);
    // Group by (dtype, mode) for the coalesced calls, then order by
    // shape inside the group so identical shapes run back-to-back on
    // warm operands and pack arenas.
    const auto key = [](const Request* r) {
      return std::make_tuple(r->dtype, static_cast<int>(r->mode.a),
                             static_cast<int>(r->mode.b), r->m, r->n, r->k,
                             r->lda, r->ldb, r->ldc);
    };
    std::sort(order.begin(), order.end(),
              [&key](const Request* x, const Request* y) {
                return key(x) < key(y);
              });
    std::uint64_t calls = 0;
    std::size_t i = 0;
    while (i < order.size()) {
      std::size_t j = i;
      while (j < order.size() && order[j]->dtype == order[i]->dtype &&
             order[j]->mode.a == order[i]->mode.a &&
             order[j]->mode.b == order[i]->mode.b)
        ++j;
      const std::vector<Request*> bucket(order.begin() + static_cast<std::ptrdiff_t>(i),
                                         order.begin() + static_cast<std::ptrdiff_t>(j));
      if (order[i]->dtype == 's') {
        run_bucket<float>(order[i]->mode, bucket, SHALOM_OK);
      } else {
        run_bucket<double>(order[i]->mode, bucket, SHALOM_OK);
      }
      ++calls;
      i = j;
    }
    return calls;
  }

  void drain_loop() {
    for (;;) {
      std::vector<Request> batch;
      std::vector<Request> run;
      {
        MutexLock lock(mu);
        while (!stop && pending.empty()) submit_cv.wait(lock);
        if (pending.empty()) {
          if (stop) return;  // shutdown with nothing left to run
          continue;
        }
        batch.swap(pending);
        executing = true;
        space_cv.notify_all();  // queue just emptied: admit blockers
        // Claim-or-drop sweep, BEFORE anything reaches gemm_batch:
        // expire overdue deadlines (monotonic clock, plus the
        // engine.deadline fault site) and drop requests whose ticket was
        // revoked while queued (cancel / shed-oldest) - the claim
        // handshake guarantees the buffers of a revoked request are
        // never touched. The sweep runs under mu so the expired/executed
        // counters are already up to date when a waiter observes any of
        // these tickets resolve and then reads stats().
        const auto now = std::chrono::steady_clock::now();
        run.reserve(batch.size());
        for (Request& r : batch) {
          const bool overdue =
              (r.has_deadline && now >= r.deadline) ||
              SHALOM_FAULT_POINT(fault::Site::kEngineDeadline);
          if (overdue) {
            if (r.ticket->revoke(SHALOM_ERR_TIMEOUT,
                                 "shalom: request deadline expired before "
                                 "execution")) {
              telemetry::note_request_expired();
              ++counters.expired;
            }
            continue;
          }
          if (!r.ticket->try_claim()) continue;  // revoked while queued
          run.push_back(std::move(r));
        }
        counters.executed += run.size();  // claimed == will run
      }
      const std::uint64_t calls = execute_batch(run);
      {
        MutexLock lock(mu);
        executing = false;
        counters.batches += calls;
        drained_cv.notify_all();
      }
    }
  }
};

GemmStream::GemmStream(StreamOptions opts)
    : impl_(std::make_unique<Impl>()) {
  if (opts.queue_cap < 0) opts.queue_cap = env_queue_cap();
  if (opts.overload_policy < 0)
    opts.overload_policy = static_cast<int>(env_overload_policy());
  if (opts.retry_budget < 0) opts.retry_budget = env_retry_budget();
  if (opts.breaker_threshold < 1) opts.breaker_threshold = 1;
  impl_->opts = opts;
  // Spawn the drainer with the same transient-failure retry budget the
  // submit path gets; only a persistent failure degrades the stream to
  // synchronous execution (it still never fails construction).
  for (long attempt = 0;; ++attempt) {
    try {
      if (SHALOM_FAULT_POINT(fault::Site::kThreadpoolSpawn))
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again),
            "injected drainer-spawn failure");
      Impl* impl = impl_.get();
      impl_->drainer = std::thread([impl] { impl->drain_loop(); });
      return;
    } catch (const std::system_error&) {
    } catch (const std::bad_alloc&) {
    }
    if (attempt >= opts.retry_budget) break;
    impl_->count_retry();
    backoff_sleep(attempt);
  }
  // Degrade to synchronous execution rather than failing construction:
  // submit() then runs each request inline before returning.
  impl_->synchronous = true;
}

GemmStream::~GemmStream() { close(); }

template <typename T>
TicketPtr GemmStream::submit(Mode mode, index_t m, index_t n, index_t k,
                             T alpha, const T* a, index_t lda, const T* b,
                             index_t ldb, T beta, T* c, index_t ldc,
                             long deadline_ms) {
  // Validate on the submitting thread: contract violations belong to the
  // caller, not to a ticket resolved later on the drainer.
  detail::check_gemm_args(mode, m, n, k, a, lda, b, ldb, c, ldc);
  if (SHALOM_FAULT_POINT(fault::Site::kEngineShed)) {
    telemetry::note_request_shed();
    MutexLock lock(impl_->mu);
    ++impl_->counters.shed;
    throw rejected_error(
        "shalom: submission shed (engine.shed fault site)");
  }
  auto ticket = std::make_shared<Ticket>();
  Request r;
  r.dtype = std::is_same<T, float>::value ? 's' : 'd';
  r.mode = mode;
  r.m = m;
  r.n = n;
  r.k = k;
  r.lda = lda;
  r.ldb = ldb;
  r.ldc = ldc;
  r.alpha = static_cast<double>(alpha);
  r.beta = static_cast<double>(beta);
  r.a = a;
  r.b = b;
  r.c = c;
  if (deadline_ms > 0) {
    r.has_deadline = true;
    r.deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(deadline_ms);
  }
  r.ticket = ticket;
  bool trial = false;
  health::Latch::Window window = 0;
  if (impl_->degraded()) {
    // Passive on-path recovery: a latched breaker whose cool-down has
    // elapsed admits this submit as a half-open trial through the real
    // enqueue path below; everything else stays on the inline path.
    trial = impl_->breaker_trial_admission(&window);
    if (!trial) {
      impl_->run_inline<T>(mode, r, ticket);
      return ticket;
    }
  }
  const std::size_t cap =
      impl_->opts.queue_cap > 0
          ? static_cast<std::size_t>(impl_->opts.queue_cap)
          : 0;
  for (long attempt = 0;; ++attempt) {
    try {
      MutexLock lock(impl_->mu);
      if (impl_->lifecycle != Impl::kRunning) {
        ++impl_->counters.shed;
        telemetry::note_request_shed();
        throw rejected_error("shalom: submit on a draining/closed stream");
      }
      if (cap > 0 && impl_->pending.size() >= cap) {
        switch (static_cast<OverloadPolicy>(impl_->opts.overload_policy)) {
          case OverloadPolicy::kShedNewest:
            ++impl_->counters.shed;
            telemetry::note_request_shed();
            throw rejected_error(
                "shalom: queue at capacity (shed-newest policy)");
          case OverloadPolicy::kShedOldest: {
            // Revoke the oldest queued request in favor of the new one.
            // An entry already revoked by a racing cancel just frees its
            // slot (its ticket was resolved by the canceller).
            auto oldest = impl_->pending.begin();
            if (oldest->ticket->revoke(
                    SHALOM_ERR_REJECTED,
                    "shalom: shed (oldest) under overload")) {
              ++impl_->counters.shed;
              telemetry::note_request_shed();
            }
            impl_->pending.erase(oldest);
            break;
          }
          case OverloadPolicy::kBlock: {
            if (!r.has_deadline) {
              while (impl_->lifecycle == Impl::kRunning &&
                     impl_->pending.size() >= cap)
                impl_->space_cv.wait(lock);
            } else {
              while (impl_->lifecycle == Impl::kRunning &&
                     impl_->pending.size() >= cap) {
                if (impl_->space_cv.wait_until(lock, r.deadline) ==
                        std::cv_status::timeout &&
                    impl_->lifecycle == Impl::kRunning &&
                    impl_->pending.size() >= cap) {
                  ++impl_->counters.expired;
                  telemetry::note_request_expired();
                  throw timeout_error(
                      "shalom: deadline expired waiting for queue space");
                }
              }
            }
            if (impl_->lifecycle != Impl::kRunning) {
              ++impl_->counters.shed;
              telemetry::note_request_shed();
              throw rejected_error(
                  "shalom: stream drained away while blocked on admission");
            }
            break;
          }
        }
      }
      if (SHALOM_FAULT_POINT(fault::Site::kSubmitQueue))
        throw std::bad_alloc();
      impl_->pending.push_back(std::move(r));  // strong: throws, queue intact
      ++impl_->counters.submitted;
      const std::uint64_t depth = impl_->pending.size();
      if (depth > impl_->counters.queue_peak)
        impl_->counters.queue_peak = depth;
      telemetry::note_queue_depth(depth);
      impl_->consecutive_failures.store(0, std::memory_order_relaxed);
      break;
    } catch (const std::bad_alloc&) {
      if (attempt < impl_->opts.retry_budget) {
        impl_->count_retry();
        backoff_sleep(attempt);
        continue;
      }
      if (trial) {
        // The half-open trial hit the same transient failure: re-open
        // the breaker with a doubled cool-down, and serve THIS request
        // inline-degraded rather than surfacing the failure - work
        // accepted mid-recovery keeps flowing.
        impl_->breaker_trial_done(window, false);
        impl_->run_inline<T>(mode, r, ticket);
        return ticket;
      }
      // Retry budget exhausted: feed the circuit breaker. Enough
      // consecutive exhausted submits latch the stream into
      // synchronous-degraded mode so later traffic keeps flowing
      // (inline, skipping the failing enqueue path) instead of burning
      // retry time per request; the recovery cool-down armed by the
      // latch gives it a way back.
      const int fails =
          impl_->consecutive_failures.fetch_add(
              1, std::memory_order_relaxed) +
          1;
      if (fails >= impl_->opts.breaker_threshold)
        impl_->latch_breaker();
      throw;
    } catch (...) {
      // Shed, closed, drained away or expired while blocked: a trial
      // leaving here still reports to its window, or the window would
      // stay full and the stream RECOVERING until close.
      if (trial) impl_->breaker_trial_done(window, false);
      throw;
    }
  }
  if (trial) impl_->breaker_trial_done(window, true);
  impl_->submit_cv.notify_one();
  return ticket;
}

template TicketPtr GemmStream::submit<float>(Mode, index_t, index_t, index_t,
                                             float, const float*, index_t,
                                             const float*, index_t, float,
                                             float*, index_t, long);
template TicketPtr GemmStream::submit<double>(Mode, index_t, index_t,
                                              index_t, double, const double*,
                                              index_t, const double*, index_t,
                                              double, double*, index_t, long);

int GemmStream::flush() {
  MutexLock lock(impl_->mu);
  while (!impl_->pending.empty() || impl_->executing)
    impl_->drained_cv.wait(lock);
  return impl_->degraded() ? SHALOM_DEGRADED : SHALOM_OK;
}

int GemmStream::flush_for(long ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(ms > 0 ? ms : 0);
  MutexLock lock(impl_->mu);
  while (!impl_->pending.empty() || impl_->executing) {
    if (impl_->drained_cv.wait_until(lock, deadline) !=
        std::cv_status::timeout)
      continue;
    if (!impl_->pending.empty() || impl_->executing)
      return SHALOM_ERR_TIMEOUT;
  }
  return impl_->degraded() ? SHALOM_DEGRADED : SHALOM_OK;
}

int GemmStream::close() {
  {
    MutexLock lock(impl_->mu);
    if (impl_->lifecycle == Impl::kRunning)
      impl_->lifecycle = Impl::kDraining;
  }
  // Blocked submitters re-check the lifecycle and bail out rejected.
  impl_->space_cv.notify_all();
  const int rc = flush();  // every accepted request resolves
  {
    MutexLock lock(impl_->mu);
    impl_->lifecycle = Impl::kClosed;
    impl_->stop = true;
  }
  impl_->submit_cv.notify_all();
  if (impl_->drainer.joinable()) impl_->drainer.join();
  // A latched stream leaving service is removed from the process-wide
  // breaker census (not a recovery - nothing was restored).
  if (impl_->breaker.recover()) impl_->leave_census();
  return rc;
}

StreamHealth GemmStream::health() const {
  MutexLock lock(impl_->mu);
  if (impl_->lifecycle != Impl::kRunning) return StreamHealth::kDraining;
  if (impl_->degraded()) {
    // RECOVERING only while the breaker is actually half-open; a
    // spawn-degraded (synchronous) stream has no way back and stays
    // DEGRADED. Precedence: DRAINING > DEGRADED > RECOVERING >
    // SHEDDING > OK.
    if (!impl_->synchronous &&
        impl_->breaker.state() == health::State::kProbation)
      return StreamHealth::kRecovering;
    return StreamHealth::kDegraded;
  }
  if (impl_->opts.queue_cap > 0 &&
      impl_->pending.size() >=
          static_cast<std::size_t>(impl_->opts.queue_cap))
    return StreamHealth::kShedding;
  return StreamHealth::kOk;
}

StreamStats GemmStream::stats() const {
  MutexLock lock(impl_->mu);
  StreamStats s = impl_->counters;
  s.retries = impl_->retry_count.load(std::memory_order_relaxed);
  return s;
}

}  // namespace engine
}  // namespace shalom
