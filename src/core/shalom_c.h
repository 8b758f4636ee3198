/* LibShalom public C API.
 *
 * BLAS-style entry points over the C++ core. Matrices are ROW-MAJOR
 * (unlike Fortran BLAS); transpose flags are 'N'/'n' or 'T'/'t'.
 * `threads` <= 0 selects all cores, 1 is serial.
 *
 * Every entry point returns a shalom_status code (common/error.h is the
 * single source of truth shared with the C++ core):
 *   0  SHALOM_OK                    success
 *   1  SHALOM_ERR_BAD_FLAG         unknown dtype or transpose flag
 *   2  SHALOM_ERR_INVALID_ARGUMENT bad dimensions/strides or size overflow
 *   3  SHALOM_ERR_NULL_POINTER     null handle or output pointer
 *   4  SHALOM_ERR_DTYPE_MISMATCH   plan dtype != execute entry point
 *   5  SHALOM_ERR_ALLOC            allocation failure (not degradable)
 *   6  SHALOM_ERR_INTERNAL         unexpected internal error
 *   7  SHALOM_ERR_NUMERIC          NaN/Inf caught by the numerical guard
 *                                  (only with SHALOM_CHECK_NUMERICS=fail)
 *   8  SHALOM_ERR_KERNEL_TRAP      kernel crashed inside a trap-contained
 *                                  probe (variant quarantined)
 *   9  SHALOM_ERR_CORRUPTION       guarded pack-arena canary violated
 *                                  (only with SHALOM_GUARD=canary|poison)
 *  10  SHALOM_ERR_REJECTED         request shed by stream admission control
 *                                  (queue at capacity / stream draining) or
 *                                  cancelled before execution
 *  11  SHALOM_ERR_TIMEOUT          request deadline expired before
 *                                  execution, or a timed wait ran out
 *  12  SHALOM_DEGRADED             not an error: the work completed with
 *                                  correct results on a degraded synchronous
 *                                  path (see shalom_stream_health)
 *  13  SHALOM_ERR_TABLE            persistent tuned-table operation failed
 *                                  (corrupt/skewed/unreadable file, or an
 *                                  aborted atomic save); the process runs
 *                                  cold and any previous on-disk table is
 *                                  untouched
 * No exception ever crosses this boundary. shalom_strerror() names a
 * code; shalom_last_error_message() returns the calling thread's detail
 * message for its most recent failed call.
 *
 * Degradation guarantees (see DESIGN.md for the full matrix): recoverable
 * resource exhaustion inside a GEMM - pack-buffer allocation failure,
 * worker-thread spawn failure - never fails the call. The library falls
 * back to unpacked kernels or fewer threads (down to serial), returns
 * SHALOM_OK with the exact same numerical result, and counts the event
 * in shalom_stats.
 */
#pragma once

#include <stddef.h>
#include <stdint.h>

#include "common/error.h" /* shalom_status codes */

#ifdef __cplusplus
extern "C" {
#endif

int shalom_sgemm(char trans_a, char trans_b, ptrdiff_t m, ptrdiff_t n,
                 ptrdiff_t k, float alpha, const float* a, ptrdiff_t lda,
                 const float* b, ptrdiff_t ldb, float beta, float* c,
                 ptrdiff_t ldc, int threads);

int shalom_dgemm(char trans_a, char trans_b, ptrdiff_t m, ptrdiff_t n,
                 ptrdiff_t k, double alpha, const double* a, ptrdiff_t lda,
                 const double* b, ptrdiff_t ldb, double beta, double* c,
                 ptrdiff_t ldc, int threads);

/* ------------------------------------------------------------------------
 * Error reporting.
 * ---------------------------------------------------------------------- */

/* Static description of a shalom_status code; never NULL. */
const char* shalom_strerror(int code);

/* Detail message for the calling thread's most recent failed shalom_*
 * call ("" if none since the last successful call). The buffer is
 * thread-local and overwritten by the next failure; copy it if needed. */
const char* shalom_last_error_message(void);

/* ------------------------------------------------------------------------
 * Degradation telemetry: process-wide counters of graceful-degradation
 * events (see the header comment). All zero in a healthy process.
 * ---------------------------------------------------------------------- */

typedef struct shalom_stats {
  uint64_t fallback_nopack;    /* executions using the no-pack fallback */
  uint64_t threads_degraded;   /* fork-join rounds below requested width */
  uint64_t plan_cache_bypassed;/* retired with the plan cache: always 0 */
  uint64_t faults_injected;    /* injected faults (testing builds only) */
  uint64_t kernels_quarantined;/* kernel variants failing their selfcheck */
  uint64_t selfchecks_run;     /* selfcheck probes executed */
  uint64_t numeric_anomalies;  /* NaN/Inf hits seen by the numerical guard */
  uint64_t kernels_trapped;    /* hardware traps contained by a probe scope */
  uint64_t watchdog_trips;     /* thread-pool watchdog stall recoveries */
  uint64_t arena_corruptions;  /* guarded pack-arena canary violations */
  uint64_t stream_queue_peak;  /* high-water stream submission-queue depth */
  uint64_t requests_shed;      /* submissions rejected by admission control */
  uint64_t requests_expired;   /* requests whose deadline expired unexecuted */
  uint64_t requests_cancelled; /* requests cancelled before execution */
  uint64_t submit_retries;     /* transient-failure backoff retries spent */
  uint64_t breaker_trips;      /* streams latched synchronous-degraded */
  uint64_t table_records_rejected; /* tuned-table records skipped by
                                      checksum/contract validation */
  uint64_t table_load_failures;    /* tuned-table files rejected as a whole
                                      plus aborted atomic saves */
  uint64_t recoveries;         /* components restored to full service */
  uint64_t probation_probes;   /* recovery probes run against degraded
                                  components (incl. breaker trials) */
  uint64_t probation_failures; /* probes that failed: the component
                                  re-latched with a doubled cool-down */
  uint64_t breaker_half_opens; /* stream breakers that entered half-open
                                  trial admission after their cool-down */
} shalom_stats;

/* Snapshot of the counters; `out` may not be NULL. */
void shalom_get_stats(shalom_stats* out);

/* Resets all counters to zero (testing/monitoring epochs). */
void shalom_reset_stats(void);

/* ------------------------------------------------------------------------
 * Kernel self-verification. Every micro-kernel variant the dispatcher can
 * select is also probed lazily the first time it would run; this entry
 * point forces the whole sweep eagerly (e.g. at process start, or set
 * SHALOM_SELFTEST=1 to run it during library initialization). A variant
 * whose probe output diverges from the scalar reference is permanently
 * quarantined: dispatch reroutes to the next-best verified kernel
 * (ultimately the scalar reference), results stay correct, and the event
 * is counted in shalom_stats.kernels_quarantined.
 * ---------------------------------------------------------------------- */

/* Probes every registered kernel variant against the scalar reference.
 * Returns the number of quarantined variants (0 = all verified). */
int shalom_selftest(void);

/* ------------------------------------------------------------------------
 * Execution-plan API: create a plan once for a (dtype, transposes, shape,
 * threads) combination, execute it many times, destroy it when done. The
 * plan snapshots every shape-dependent decision, so repeated executions
 * skip the per-call analytic models entirely. Executing one plan from
 * several threads at once is safe; parallel (threads > 1) plans run
 * their fork-join rounds on the library's shared fork-join pool,
 * where rounds from independent callers overlap.
 * ---------------------------------------------------------------------- */

typedef struct shalom_plan shalom_plan;

/* dtype is 's' (float) or 'd' (double); threads <= 0 selects all cores.
 * On success *out_plan owns the plan; free it with shalom_plan_destroy. */
int shalom_plan_create(shalom_plan** out_plan, char dtype, char trans_a,
                       char trans_b, ptrdiff_t m, ptrdiff_t n, ptrdiff_t k,
                       int threads);

/* C = alpha * op(A) . op(B) + beta * C with the plan's shape; strides are
 * validated against the plan on every call. */
int shalom_plan_execute_s(const shalom_plan* plan, float alpha,
                          const float* a, ptrdiff_t lda, const float* b,
                          ptrdiff_t ldb, float beta, float* c,
                          ptrdiff_t ldc);
int shalom_plan_execute_d(const shalom_plan* plan, double alpha,
                          const double* a, ptrdiff_t lda, const double* b,
                          ptrdiff_t ldb, double beta, double* c,
                          ptrdiff_t ldc);

/* Safe on NULL. */
void shalom_plan_destroy(shalom_plan* plan);

/* ------------------------------------------------------------------------
 * Asynchronous submission API: a stream decouples submitting a GEMM from
 * executing it. shalom_submit_* validates the arguments, enqueues the
 * request and returns immediately with a future; a drainer thread behind
 * the stream shape-buckets pending requests and coalesces each bucket
 * into one batched execution over the fork-join pool, so submitters
 * never wait on other requests and repeated shapes share warm plans.
 *
 * The caller's A/B/C buffers must stay alive and unmodified (C: un-read)
 * until that request's future completes - exactly like a still-running
 * synchronous call. Outputs of requests in flight on one stream must not
 * alias each other.
 *
 * Execution-time failures surface on the FUTURE, not the submit call:
 * shalom_submit_* only fails for contract violations (bad flags, bad
 * dimensions, NULL pointers), when admission control sheds the request
 * (SHALOM_ERR_REJECTED: queue at capacity under a shed-* policy, or the
 * stream is draining/closed), when a block-policy wait for queue space
 * outlives the request's deadline (SHALOM_ERR_TIMEOUT), or when the
 * request cannot be queued after the retry budget is spent
 * (SHALOM_ERR_ALLOC). The queue is unchanged in every failing case.
 * shalom_wait returns the request's final status and installs a
 * failure's detail message as the waiting thread's last-error message.
 *
 * Admission control and QoS (see DESIGN.md "Stream lifecycle"): the
 * pending queue is bounded by SHALOM_QUEUE_CAP (0/unset = unbounded) and
 * SHALOM_OVERLOAD_POLICY picks what happens at capacity:
 *   block        park the submitter until space frees (bounded by the
 *                request's deadline when it has one)     [default]
 *   shed-newest  reject the incoming request (SHALOM_ERR_REJECTED)
 *   shed-oldest  revoke the oldest queued request in its favor (its
 *                future resolves SHALOM_ERR_REJECTED)
 * SHALOM_RETRY_BUDGET bounds exponential-backoff retries for transient
 * queue/spawn failures (default 3); a circuit breaker latches a stream
 * whose submits keep failing into synchronous-degraded mode, where
 * requests still execute correctly (futures resolve SHALOM_DEGRADED).
 * ---------------------------------------------------------------------- */

typedef struct shalom_stream shalom_stream;
typedef struct shalom_future shalom_future;

/* threads <= 0 selects the default execution width (all cores). On
 * success *out_stream owns the stream; free it with
 * shalom_stream_destroy. If the internal drainer thread cannot be
 * spawned the stream still works, executing each request synchronously
 * inside shalom_submit_*. */
int shalom_stream_create(shalom_stream** out_stream, int threads);

/* Graceful shutdown: stops admission (later submits on the stream return
 * SHALOM_ERR_REJECTED), resolves every request already accepted, then
 * releases the stream. Outstanding futures stay valid (they share
 * ownership of their completion state). Safe on NULL. */
void shalom_stream_destroy(shalom_stream* stream);

/* Blocks until every request submitted before this call has resolved.
 * Returns SHALOM_OK, or SHALOM_DEGRADED when the stream is executing on
 * a degraded synchronous path (drainer-spawn failure or a latched
 * circuit breaker) - work completed correctly, but callers should stop
 * routing load here. Per-request verdicts are on the futures. */
int shalom_stream_flush(shalom_stream* stream);

/* shalom_stream_flush bounded by `ms` milliseconds: additionally returns
 * SHALOM_ERR_TIMEOUT when the queue had not drained in time (the stream
 * keeps draining in the background; flush again to re-wait). */
int shalom_stream_flush_for(shalom_stream* stream, long ms);

/* Coarse stream condition for load-balancer style probes. Precedence
 * when several apply: DRAINING > DEGRADED > RECOVERING > SHEDDING > OK. */
typedef enum shalom_stream_health_state {
  SHALOM_STREAM_HEALTH_OK = 0,
  SHALOM_STREAM_HEALTH_DEGRADED = 1, /* latched synchronous execution */
  SHALOM_STREAM_HEALTH_SHEDDING = 2, /* queue at capacity right now */
  SHALOM_STREAM_HEALTH_DRAINING = 3, /* shutdown in progress (or closed) */
  SHALOM_STREAM_HEALTH_RECOVERING = 4, /* breaker half-open: trial
                                          submissions probing the queue */
} shalom_stream_health_state;

/* Returns the stream's shalom_stream_health_state, or -1 when stream is
 * NULL. Not a status code. */
int shalom_stream_health(const shalom_stream* stream);

/* Enqueue C = alpha * op(A) . op(B) + beta * C (row-major, like
 * shalom_sgemm). On success *out_future owns a future for the request;
 * free it with shalom_future_destroy (before or after completion -
 * dropping a future never cancels the request). out_future may be NULL
 * for fire-and-forget submission; shalom_stream_flush still covers the
 * request. */
int shalom_submit_s(shalom_stream* stream, char trans_a, char trans_b,
                    ptrdiff_t m, ptrdiff_t n, ptrdiff_t k, float alpha,
                    const float* a, ptrdiff_t lda, const float* b,
                    ptrdiff_t ldb, float beta, float* c, ptrdiff_t ldc,
                    shalom_future** out_future);
int shalom_submit_d(shalom_stream* stream, char trans_a, char trans_b,
                    ptrdiff_t m, ptrdiff_t n, ptrdiff_t k, double alpha,
                    const double* a, ptrdiff_t lda, const double* b,
                    ptrdiff_t ldb, double beta, double* c, ptrdiff_t ldc,
                    shalom_future** out_future);

/* shalom_submit_* with a per-request deadline: if the request has not
 * started executing within `deadline_ms` milliseconds of submission its
 * future resolves with SHALOM_ERR_TIMEOUT instead (the output buffer is
 * untouched). deadline_ms <= 0 means no deadline. Under the block
 * overload policy the deadline also bounds the wait for queue space. */
int shalom_submit_timed_s(shalom_stream* stream, char trans_a, char trans_b,
                          ptrdiff_t m, ptrdiff_t n, ptrdiff_t k, float alpha,
                          const float* a, ptrdiff_t lda, const float* b,
                          ptrdiff_t ldb, float beta, float* c, ptrdiff_t ldc,
                          long deadline_ms, shalom_future** out_future);
int shalom_submit_timed_d(shalom_stream* stream, char trans_a, char trans_b,
                          ptrdiff_t m, ptrdiff_t n, ptrdiff_t k,
                          double alpha, const double* a, ptrdiff_t lda,
                          const double* b, ptrdiff_t ldb, double beta,
                          double* c, ptrdiff_t ldc, long deadline_ms,
                          shalom_future** out_future);

/* Blocks until the request has executed and returns its shalom_status;
 * a failure's detail message becomes this thread's last-error message
 * (SHALOM_DEGRADED is not a failure and leaves it untouched).
 * Idempotent: calling again returns the same status immediately. */
int shalom_wait(shalom_future* future);

/* shalom_wait bounded by `ms` milliseconds: returns SHALOM_ERR_TIMEOUT
 * when the request had not resolved in time. The future is untouched by
 * a timed-out wait - the request keeps running; wait again or cancel. */
int shalom_wait_for(shalom_future* future, long ms);

/* Cancels a request that is still queued: its future resolves with
 * SHALOM_ERR_REJECTED and its buffers are guaranteed never to be
 * touched. Returns 1 when this call cancelled the request, 0 when it
 * was too late (already executing or resolved) or future is NULL; never
 * blocks. Safe to race with the stream's drainer and with destruction
 * of the stream. */
int shalom_future_cancel(shalom_future* future);

/* Nonzero once the request has executed (then shalom_wait will not
 * block); 0 while pending or when future is NULL. Not a status code. */
int shalom_future_done(const shalom_future* future);

/* Safe on NULL and safe before completion: the request keeps running and
 * its buffers must still outlive it (use shalom_stream_flush or
 * shalom_stream_destroy to rendezvous). */
void shalom_future_destroy(shalom_future* future);

/* ------------------------------------------------------------------------
 * Self-healing recovery (common/health.h). Every degradable component -
 * kernel variants, the thread pool, stream circuit breakers, the tuned
 * table - is tracked through an explicit state machine
 * (HEALTHY -> DEGRADED -> PROBATION -> HEALTHY, or QUARANTINED on
 * terminal evidence) with exponential-backoff cool-downs between
 * recovery probes. SHALOM_RECOVERY_MS sets the base cool-down (0
 * disables recovery: every degradation latches permanently, the pre-PR-10
 * behaviour); SHALOM_PROBATION_N sets the clean-probe streak required to
 * restore a component. Recovery events are counted in shalom_stats
 * (recoveries, probation_probes, probation_failures, breaker_half_opens).
 * ---------------------------------------------------------------------- */

typedef enum shalom_health_state {
  SHALOM_HEALTH_HEALTHY = 0,
  SHALOM_HEALTH_DEGRADED = 1,    /* cool-down before the next probe */
  SHALOM_HEALTH_PROBATION = 2,   /* a recovery probe is in flight */
  SHALOM_HEALTH_QUARANTINED = 3, /* terminal evidence; never re-probed */
} shalom_health_state;

typedef enum shalom_health_cause {
  SHALOM_HEALTH_CAUSE_NONE = 0,
  SHALOM_HEALTH_CAUSE_MISMATCH = 1, /* diverged from the scalar oracle */
  SHALOM_HEALTH_CAUSE_TRAP = 2,     /* hardware trap contained by a guard */
  SHALOM_HEALTH_CAUSE_INJECTED = 3, /* fault-injection framework */
  SHALOM_HEALTH_CAUSE_OVERLOAD = 4, /* alloc/spawn/queue exhaustion */
} shalom_health_cause;

/* Index into shalom_health.components. */
typedef enum shalom_health_component_id {
  SHALOM_HEALTH_KERNELS = 0,
  SHALOM_HEALTH_THREADPOOL = 1,
  SHALOM_HEALTH_STREAM_BREAKER = 2,
  SHALOM_HEALTH_TUNED_TABLE = 3,
  SHALOM_HEALTH_COMPONENT_COUNT = 4,
} shalom_health_component_id;

typedef struct shalom_health_component {
  int state; /* shalom_health_state */
  int cause; /* shalom_health_cause: why it last left HEALTHY */
  uint64_t backoff_ms;    /* current cool-down width (doubles per failed
                             probation, capped) */
  uint64_t cooldown_remaining_ms; /* ms until the next probe may run; 0
                                     when none is pending */
} shalom_health_component;

typedef struct shalom_health {
  shalom_health_component components[SHALOM_HEALTH_COMPONENT_COUNT];
  int all_healthy; /* 1 when every component is HEALTHY */
} shalom_health;

/* Snapshot of the recovery registry. Returns SHALOM_OK, or
 * SHALOM_ERR_NULL_POINTER when out is NULL. */
int shalom_health_report(shalom_health* out);

/* One forced recovery tick: expires every pending cool-down and runs
 * each degraded component's recovery probe immediately (what the
 * passive on-path checks would do after the cool-down). Returns the
 * number of components restored to HEALTHY by this call (>= 0); with
 * SHALOM_RECOVERY_MS=0 recovery stays disabled and the call returns 0
 * without probing. Never a status code. */
int shalom_recover_now(void);

/* ------------------------------------------------------------------------
 * Persistent tuned-table store (tuning/table.h). These entry points live
 * in the shalom_tuning library - link it (in addition to the core) to
 * use them. Setting SHALOM_TUNED_TABLE=<path> in the environment loads
 * the table automatically at startup in binaries linking the store.
 * ---------------------------------------------------------------------- */

/* Loads a tuned-table file and publishes every record that passes
 * checksum + kernel-contract validation as a blocking override: later
 * default-config calls of that exact shape use it. Invalid
 * records are skipped (shalom_stats.table_records_rejected); a missing,
 * truncated, corrupt or version/fingerprint-skewed file returns
 * SHALOM_ERR_TABLE (shalom_stats.table_load_failures) and the process
 * simply stays cold. Never crashes on any input. */
int shalom_table_load(const char* path);

/* Atomically saves the registered tuned records to `path` (write temp
 * file, fsync, rename). On failure - including armed table.* fault
 * sites - returns SHALOM_ERR_TABLE and a previous table at `path` is
 * left byte-identical. */
int shalom_table_save(const char* path);

typedef struct shalom_table_stats {
  uint64_t records_loaded;   /* records validated + seeded by loads */
  uint64_t records_rejected; /* records skipped by validation */
  uint64_t load_failures;    /* whole-file load failures + aborted saves */
  uint64_t saves;            /* atomic commits completed */
  uint64_t save_failures;    /* saves aborted (previous table kept) */
  uint64_t size;             /* records currently registered in memory */
} shalom_table_stats;

/* Snapshot of the table counters; `out` may not be NULL. */
int shalom_table_get_stats(shalom_table_stats* out);

#ifdef __cplusplus
}
#endif
