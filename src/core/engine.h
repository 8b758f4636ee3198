// Asynchronous GEMM submission engine (the concurrent-server front-end).
//
// A server loop feeding LibShalom one blocking gemm() at a time pays the
// full call latency per request even when thousands of independent small
// products are pending. GemmStream decouples submission from execution:
// submit() validates the arguments, enqueues the request and returns a
// Ticket immediately; a dedicated drainer thread swaps out the pending
// queue, SHAPE-BUCKETS it (requests are grouped by transpose mode and
// ordered by (m, n, k), so identical shapes run back-to-back on warm
// operands and pack arenas) and coalesces each bucket into one gemm_batch()
// call over the work-stealing pool (core/threadpool.h). Head-of-line
// blocking disappears: submitters never wait on other requests' execution.
//
// Admission control: the pending queue is bounded (StreamOptions::
// queue_cap / SHALOM_QUEUE_CAP). At capacity, the overload policy decides
// what gives: `block` parks the submitter until the drainer frees space
// (bounded by the request's deadline when it has one), `shed-newest`
// rejects the incoming request (shalom::rejected_error →
// SHALOM_ERR_REJECTED), `shed-oldest` revokes the oldest queued request
// in its favor. Each request may carry a deadline; the drainer sweeps the
// monotonic clock when it claims a batch and expires overdue tickets
// (SHALOM_ERR_TIMEOUT) before they ever reach gemm_batch. Queued tickets
// can also be revoked by the caller (shalom_future_cancel); a
// claim-or-revoke handshake on the ticket guarantees the drainer never
// touches the buffers of a cancelled request.
//
// Failure containment: a batch that throws is retried entry-by-entry so
// the failure lands on the ticket(s) that actually caused it, mapped to
// the same shalom_status codes the synchronous C API uses; unrelated
// tickets in the batch still complete. Transient failures from the
// fault-injectable acquisition sites (`submit.queue`, `threadpool.spawn`,
// and per-entry SHALOM_ERR_ALLOC batch failures) get a bounded
// exponential-backoff retry budget (StreamOptions::retry_budget /
// SHALOM_RETRY_BUDGET) before they surface; a circuit breaker latches the
// stream into synchronous-degraded mode after breaker_threshold
// consecutive retry-exhausted submits. If the drainer thread itself
// cannot be spawned (the `threadpool.spawn` site, or a real resource
// failure), the stream likewise degrades to synchronous execution inside
// submit() rather than failing construction. Work executed on a degraded
// stream still produces bitwise-correct results; its tickets resolve with
// SHALOM_DEGRADED (not an error) so callers can see the path taken.
//
// Lifecycle: running → draining → closed. close() (or destruction) stops
// admission (submits are rejected), drains everything already accepted,
// and joins the drainer; in-flight tickets ALWAYS resolve - to OK,
// SHALOM_DEGRADED, SHALOM_ERR_REJECTED, SHALOM_ERR_TIMEOUT, or an
// execution failure - never hang. shalom_stream_health() reports
// OK / DEGRADED / SHEDDING / DRAINING / RECOVERING for load-balancer
// style probes.
//
// Recovery (common/health.h): a latched breaker is no longer permanent.
// After SHALOM_RECOVERY_MS of cool-down the breaker goes HALF-OPEN and
// admits SHALOM_PROBATION_N trial submissions through the real enqueue
// path (excess submissions keep executing inline-degraded); a clean
// trial streak closes the breaker and the stream returns to full
// asynchronous service, while any trial failure re-opens it with a
// doubled cool-down (capped). SHALOM_RECOVERY_MS=0 restores the
// pre-recovery permanent latch exactly. Drainer-spawn degradation
// (`synchronous`) stays permanent - there is no drainer to return to.
//
// Data ownership: the caller's A/B/C buffers must stay alive and
// unmodified (C: un-read) until the request's ticket completes, exactly
// like a still-running synchronous call. Requests on one stream execute
// correctly in any interleaving only if their outputs do not alias.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <string>

#include "common/thread_annotations.h"
#include "core/types.h"

namespace shalom {
namespace engine {

/// Completion handle for one submitted GEMM. shared_ptr-held: the stream
/// keeps its own reference until the request executes, so dropping a
/// ticket before (or without ever) waiting is always safe.
class Ticket {
 public:
  Ticket() = default;
  Ticket(const Ticket&) = delete;
  Ticket& operator=(const Ticket&) = delete;

  /// Blocks until the request has executed; returns its shalom_status.
  /// Idempotent - later calls return the same status immediately.
  int wait();

  /// Bounded wait: true when the ticket resolved within `ms`
  /// milliseconds (status() is then final), false on timeout (the ticket
  /// is untouched and still in flight - wait again or cancel).
  bool wait_for(long ms);

  /// Nonblocking completion probe.
  bool done() const;

  /// Status so far: SHALOM_OK before completion, the final status after
  /// (prefer wait() unless done() already returned true).
  int status() const;

  /// Detail message for a failed request ("" on success or while
  /// pending). Stable after done(); the reference lives as long as the
  /// ticket.
  const std::string& message() const;

  /// Internal: resolves the ticket (called once, by the owning stream's
  /// executor). Public only because the stream's out-of-line Impl cannot
  /// be befriended before it is defined.
  void complete(int status, std::string message);

  /// Internal claim handshake deciding who resolves a queued ticket.
  /// Exactly one of these ever succeeds per ticket:
  ///   try_claim()  - the drainer takes the request for execution (it
  ///                  will call complete() when done);
  ///   revoke()     - cancel / deadline-expiry / shed-oldest resolves the
  ///                  ticket WITHOUT executing, so the drainer never
  ///                  touches the request's buffers afterwards.
  /// Both return false when the other side already won.
  bool try_claim();
  bool revoke(int status, std::string message);

 private:
  /// 0 = queued, 1 = claimed by the executor, 2 = revoked. Lock-free so
  /// cancel/expire can race the drainer's claim without taking mu_; the
  /// CAS is the single arbiter (acq_rel: the winner's side publishes).
  std::atomic<std::uint32_t> claim_{0};

  mutable Mutex mu_;
  mutable std::condition_variable_any cv_;
  bool done_ SHALOM_GUARDED_BY(mu_) = false;
  int status_ SHALOM_GUARDED_BY(mu_) = 0;  // SHALOM_OK
  std::string message_ SHALOM_GUARDED_BY(mu_);
};

using TicketPtr = std::shared_ptr<Ticket>;

/// What submit() does when the pending queue is at queue_cap.
enum class OverloadPolicy : int {
  kBlock = 0,      ///< park the submitter until space frees (deadline-aware)
  kShedNewest = 1, ///< reject the incoming request (SHALOM_ERR_REJECTED)
  kShedOldest = 2, ///< revoke the oldest queued request in its favor
};

/// Coarse stream condition for load-balancer style probes
/// (shalom_stream_health at the C boundary). Precedence when several
/// apply: DRAINING > DEGRADED > RECOVERING > SHEDDING > OK.
enum class StreamHealth : int {
  kOk = 0,
  kDegraded = 1,   ///< latched synchronous (breaker or drainer-spawn failure)
  kShedding = 2,   ///< queue at capacity right now
  kDraining = 3,   ///< lifecycle left running (draining or closed)
  kRecovering = 4, ///< breaker half-open: trial requests probing the queue
};

/// SHALOM_QUEUE_CAP: per-stream pending-queue capacity; 0 = unbounded
/// (the default). Zero/negative/malformed values warn once and fall back
/// (a cap of 0 rejecting everything is never what an operator meant).
/// Parsed once per process via env::get_long.
long env_queue_cap() noexcept;

/// SHALOM_OVERLOAD_POLICY: block | shed-newest | shed-oldest (default
/// block). Parsed once per process via env::get_enum.
OverloadPolicy env_overload_policy() noexcept;

/// SHALOM_RETRY_BUDGET: transient-failure retries per acquisition (0
/// disables retry; default 3). Parsed once per process via env::get_long.
long env_retry_budget() noexcept;

struct StreamOptions {
  /// Execution width for the coalesced gemm_batch calls (0 = default
  /// resolution, like Config::threads).
  int threads = 0;
  /// Pending-queue capacity; 0 = unbounded, negative = use
  /// SHALOM_QUEUE_CAP (which defaults to unbounded).
  long queue_cap = -1;
  /// OverloadPolicy as int; negative = use SHALOM_OVERLOAD_POLICY
  /// (which defaults to block).
  int overload_policy = -1;
  /// Exponential-backoff retries for transient failures; negative = use
  /// SHALOM_RETRY_BUDGET (which defaults to 3).
  long retry_budget = -1;
  /// Consecutive retry-exhausted submit failures that latch the stream
  /// into synchronous-degraded mode (the circuit breaker). Must be >= 1.
  int breaker_threshold = 3;
};

struct StreamStats {
  std::uint64_t submitted = 0;   ///< requests accepted by submit()
  std::uint64_t executed = 0;    ///< requests claimed and run (excludes
                                 ///< expired / revoked-while-queued ones)
  std::uint64_t batches = 0;     ///< gemm_batch calls issued by the drainer
  std::uint64_t shed = 0;        ///< rejected by admission control
  std::uint64_t expired = 0;     ///< deadline expiries (queued or blocked)
  std::uint64_t retries = 0;     ///< backoff retries spent
  std::uint64_t queue_peak = 0;  ///< high-water pending-queue depth
};

/// One asynchronous submission queue + its drainer thread. Thread-safe:
/// any number of threads may submit()/flush() concurrently. Destruction
/// drains (every accepted request executes or is revoked, and completes
/// its ticket) and joins the drainer.
class GemmStream {
 public:
  explicit GemmStream(StreamOptions opts = {});
  ~GemmStream();

  GemmStream(const GemmStream&) = delete;
  GemmStream& operator=(const GemmStream&) = delete;

  /// Enqueues C = alpha*op(A)*op(B) + beta*C and returns its ticket.
  /// Argument validation happens HERE, on the submitting thread
  /// (shalom::invalid_argument propagates and nothing is queued); the
  /// returned ticket only ever carries execution-time failures.
  /// `deadline_ms` > 0 bounds the request's whole queued life: if the
  /// drainer has not claimed it within that many milliseconds of
  /// submission, its ticket resolves with SHALOM_ERR_TIMEOUT instead of
  /// executing (0 = no deadline). Throws shalom::rejected_error when
  /// admission control sheds the request (queue at capacity under a
  /// shed-* policy, the `engine.shed` fault site, or the stream is
  /// draining/closed), shalom::timeout_error when a block-policy wait for
  /// queue space outlives the deadline, and std::bad_alloc when the
  /// request cannot be queued after the retry budget is spent (including
  /// the armed `submit.queue` fault site) - the queue is unchanged in
  /// every throwing case.
  template <typename T>
  TicketPtr submit(Mode mode, index_t m, index_t n, index_t k, T alpha,
                   const T* a, index_t lda, const T* b, index_t ldb, T beta,
                   T* c, index_t ldc, long deadline_ms = 0);

  /// Blocks until every request submitted before this call has resolved.
  /// Returns SHALOM_OK, or SHALOM_DEGRADED when the stream is executing
  /// on a degraded synchronous path (drainer-spawn failure or a latched
  /// circuit breaker) - the distinct signal callers need to stop routing
  /// load here even though all work completed correctly.
  int flush();

  /// flush() bounded by `ms` milliseconds: additionally returns
  /// SHALOM_ERR_TIMEOUT when the queue had not drained in time (the
  /// stream keeps draining in the background; flush again to re-wait).
  int flush_for(long ms);

  /// Graceful shutdown: running → draining (admission stops, submits are
  /// rejected) → drain everything accepted → closed. Returns like
  /// flush(). Idempotent; the destructor calls it implicitly.
  int close();

  /// Current coarse condition (see StreamHealth).
  StreamHealth health() const;

  StreamStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace engine
}  // namespace shalom
