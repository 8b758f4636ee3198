#include "core/shalom_c.h"

#include <memory>
#include <new>

#include "common/fault.h"
#include "common/health.h"
#include "common/selfcheck.h"
#include "core/engine.h"
#include "core/plan.h"
#include "core/shalom.h"

/* Opaque plan handle: one GemmPlan per element type, selected by dtype. */
struct shalom_plan {
  char dtype = 0;  // 's' or 'd'
  shalom::GemmPlan<float> fplan;
  shalom::GemmPlan<double> dplan;
};

/* Opaque stream handle: the C++ engine object, nothing more. */
struct shalom_stream {
  shalom::engine::GemmStream impl;
  explicit shalom_stream(shalom::engine::StreamOptions opts) : impl(opts) {}
};

/* Opaque future handle: shares ownership of the ticket with the stream,
 * so destroying the future before completion (or the stream) is safe. */
struct shalom_future {
  shalom::engine::TicketPtr ticket;
};

namespace {

using shalom::detail::clear_last_error;
using shalom::detail::set_last_error;

/// Records the thread-local error context and returns the code, so every
/// error path reads `return fail(CODE, ...)`.
int fail(int code, const char* message = nullptr) {
  set_last_error(code, message);
  return code;
}

/// Maps an in-flight exception (from a catch(...) context) to its status
/// code, recording the exception message as the last-error detail.
int fail_current_exception() {
  try {
    throw;
  } catch (const shalom::invalid_argument& e) {
    return fail(SHALOM_ERR_INVALID_ARGUMENT, e.what());
  } catch (const shalom::numeric_error& e) {
    return fail(SHALOM_ERR_NUMERIC, e.what());
  } catch (const shalom::corruption_error& e) {
    return fail(SHALOM_ERR_CORRUPTION, e.what());
  } catch (const shalom::kernel_trap_error& e) {
    return fail(SHALOM_ERR_KERNEL_TRAP, e.what());
  } catch (const shalom::rejected_error& e) {
    return fail(SHALOM_ERR_REJECTED, e.what());
  } catch (const shalom::timeout_error& e) {
    return fail(SHALOM_ERR_TIMEOUT, e.what());
  } catch (const std::bad_alloc& e) {
    return fail(SHALOM_ERR_ALLOC, e.what());
  } catch (const std::exception& e) {
    // E.g. std::system_error from worker-thread spawn: never let an
    // exception cross the extern "C" boundary.
    return fail(SHALOM_ERR_INTERNAL, e.what());
  } catch (...) {
    return fail(SHALOM_ERR_INTERNAL);
  }
}

bool parse_trans(char c, shalom::Trans& out) {
  switch (c) {
    case 'N':
    case 'n':
      out = shalom::Trans::N;
      return true;
    case 'T':
    case 't':
      out = shalom::Trans::T;
      return true;
    default:
      return false;
  }
}

template <typename T>
int gemm_c(char trans_a, char trans_b, ptrdiff_t m, ptrdiff_t n, ptrdiff_t k,
           T alpha, const T* a, ptrdiff_t lda, const T* b, ptrdiff_t ldb,
           T beta, T* c, ptrdiff_t ldc, int threads) {
  clear_last_error();
  shalom::Trans ta, tb;
  if (!parse_trans(trans_a, ta) || !parse_trans(trans_b, tb))
    return fail(SHALOM_ERR_BAD_FLAG, "transpose flag must be 'N' or 'T'");
  shalom::Config cfg;
  cfg.threads = threads <= 0 ? 0 : threads;
  try {
    shalom::gemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, cfg);
  } catch (...) {
    return fail_current_exception();
  }
  return SHALOM_OK;
}

}  // namespace

extern "C" int shalom_sgemm(char trans_a, char trans_b, ptrdiff_t m,
                            ptrdiff_t n, ptrdiff_t k, float alpha,
                            const float* a, ptrdiff_t lda, const float* b,
                            ptrdiff_t ldb, float beta, float* c,
                            ptrdiff_t ldc, int threads) {
  return gemm_c(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c,
                ldc, threads);
}

extern "C" int shalom_dgemm(char trans_a, char trans_b, ptrdiff_t m,
                            ptrdiff_t n, ptrdiff_t k, double alpha,
                            const double* a, ptrdiff_t lda, const double* b,
                            ptrdiff_t ldb, double beta, double* c,
                            ptrdiff_t ldc, int threads) {
  return gemm_c(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c,
                ldc, threads);
}

extern "C" const char* shalom_strerror(int code) {
  return shalom::status_string(code);
}

extern "C" const char* shalom_last_error_message(void) {
  return shalom::detail::last_error_message();
}

extern "C" void shalom_get_stats(shalom_stats* out) {
  if (out == nullptr) return;
  const shalom::RobustnessStats s = shalom::robustness_stats();
  out->fallback_nopack = s.fallback_nopack;
  out->threads_degraded = s.threads_degraded;
  out->plan_cache_bypassed = s.plan_cache_bypassed;
  out->faults_injected = s.faults_injected;
  out->kernels_quarantined = s.kernels_quarantined;
  out->selfchecks_run = s.selfchecks_run;
  out->numeric_anomalies = s.numeric_anomalies;
  out->kernels_trapped = s.kernels_trapped;
  out->watchdog_trips = s.watchdog_trips;
  out->arena_corruptions = s.arena_corruptions;
  out->stream_queue_peak = s.stream_queue_peak;
  out->requests_shed = s.requests_shed;
  out->requests_expired = s.requests_expired;
  out->requests_cancelled = s.requests_cancelled;
  out->submit_retries = s.submit_retries;
  out->breaker_trips = s.breaker_trips;
  out->table_records_rejected = s.table_records_rejected;
  out->table_load_failures = s.table_load_failures;
  out->recoveries = s.recoveries;
  out->probation_probes = s.probation_probes;
  out->probation_failures = s.probation_failures;
  out->breaker_half_opens = s.breaker_half_opens;
}

extern "C" void shalom_reset_stats(void) { shalom::robustness_stats_reset(); }

// selfcheck::run_all() is noexcept (probe failures become quarantine
// verdicts, never exceptions), so no translator is needed here.
// shalom-lint: allow(capi-exception-boundary)
extern "C" int shalom_selftest(void) { return shalom::selfcheck::run_all(); }

extern "C" int shalom_health_report(shalom_health* out) {
  clear_last_error();
  if (out == nullptr) return fail(SHALOM_ERR_NULL_POINTER, "out is NULL");
  int healthy = 1;
  try {
    for (int c = 0; c < SHALOM_HEALTH_COMPONENT_COUNT; ++c) {
      const shalom::health::ComponentReport r =
          shalom::health::component_report(
              static_cast<shalom::health::Component>(c));
      shalom_health_component& dst = out->components[c];
      dst.state = static_cast<int>(r.state);
      dst.cause = static_cast<int>(r.cause);
      dst.backoff_ms = r.backoff_ms;
      dst.cooldown_remaining_ms = r.cooldown_remaining_ms;
      if (r.state != shalom::health::State::kHealthy) healthy = 0;
    }
  } catch (...) {
    return fail_current_exception();
  }
  out->all_healthy = healthy;
  return SHALOM_OK;
}

// health::recover_now() is noexcept (hook failures become probation
// verdicts, never exceptions), and the return is a recovery count, not a
// status code.
// shalom-lint: allow(capi-exception-boundary)
extern "C" int shalom_recover_now(void) {
  return shalom::health::recover_now();
}

extern "C" int shalom_plan_create(shalom_plan** out_plan, char dtype,
                                  char trans_a, char trans_b, ptrdiff_t m,
                                  ptrdiff_t n, ptrdiff_t k, int threads) {
  clear_last_error();
  if (out_plan == nullptr)
    return fail(SHALOM_ERR_NULL_POINTER, "out_plan is NULL");
  *out_plan = nullptr;
  if (dtype != 's' && dtype != 'S' && dtype != 'd' && dtype != 'D')
    return fail(SHALOM_ERR_BAD_FLAG, "dtype must be 's' or 'd'");
  shalom::Trans ta, tb;
  if (!parse_trans(trans_a, ta) || !parse_trans(trans_b, tb))
    return fail(SHALOM_ERR_BAD_FLAG, "transpose flag must be 'N' or 'T'");

  shalom::Config cfg;
  cfg.threads = threads <= 0 ? 0 : threads;
  const shalom::Mode mode{ta, tb};
  try {
    auto plan = std::make_unique<shalom_plan>();
    if (dtype == 's' || dtype == 'S') {
      plan->dtype = 's';
      plan->fplan = shalom::plan_create<float>(mode, m, n, k, cfg);
    } else {
      plan->dtype = 'd';
      plan->dplan = shalom::plan_create<double>(mode, m, n, k, cfg);
    }
    *out_plan = plan.release();
  } catch (...) {
    return fail_current_exception();
  }
  return SHALOM_OK;
}

namespace {

template <typename T>
int plan_execute_c(const shalom::GemmPlan<T>& plan, T alpha, const T* a,
                   ptrdiff_t lda, const T* b, ptrdiff_t ldb, T beta, T* c,
                   ptrdiff_t ldc) {
  try {
    shalom::plan_execute(plan, alpha, a, lda, b, ldb, beta, c, ldc);
  } catch (...) {
    return fail_current_exception();
  }
  return SHALOM_OK;
}

}  // namespace

extern "C" int shalom_plan_execute_s(const shalom_plan* plan, float alpha,
                                     const float* a, ptrdiff_t lda,
                                     const float* b, ptrdiff_t ldb,
                                     float beta, float* c, ptrdiff_t ldc) {
  clear_last_error();
  if (plan == nullptr) return fail(SHALOM_ERR_NULL_POINTER, "plan is NULL");
  if (plan->dtype != 's')
    return fail(SHALOM_ERR_DTYPE_MISMATCH,
                "plan was created for double, executed as float");
  return plan_execute_c(plan->fplan, alpha, a, lda, b, ldb, beta, c, ldc);
}

extern "C" int shalom_plan_execute_d(const shalom_plan* plan, double alpha,
                                     const double* a, ptrdiff_t lda,
                                     const double* b, ptrdiff_t ldb,
                                     double beta, double* c, ptrdiff_t ldc) {
  clear_last_error();
  if (plan == nullptr) return fail(SHALOM_ERR_NULL_POINTER, "plan is NULL");
  if (plan->dtype != 'd')
    return fail(SHALOM_ERR_DTYPE_MISMATCH,
                "plan was created for float, executed as double");
  return plan_execute_c(plan->dplan, alpha, a, lda, b, ldb, beta, c, ldc);
}

extern "C" void shalom_plan_destroy(shalom_plan* plan) { delete plan; }

/* ------------------------------------------------------------------------
 * Asynchronous submission API (core/engine.h).
 * ---------------------------------------------------------------------- */

extern "C" int shalom_stream_create(shalom_stream** out_stream, int threads) {
  clear_last_error();
  if (out_stream == nullptr)
    return fail(SHALOM_ERR_NULL_POINTER, "out_stream is NULL");
  *out_stream = nullptr;
  shalom::engine::StreamOptions opts;
  opts.threads = threads <= 0 ? 0 : threads;
  try {
    *out_stream = new shalom_stream(opts);
  } catch (...) {
    return fail_current_exception();
  }
  return SHALOM_OK;
}

extern "C" void shalom_stream_destroy(shalom_stream* stream) {
  delete stream;  // ~GemmStream drains every pending request first
}

extern "C" int shalom_stream_flush(shalom_stream* stream) {
  clear_last_error();
  if (stream == nullptr)
    return fail(SHALOM_ERR_NULL_POINTER, "stream is NULL");
  try {
    // SHALOM_DEGRADED passes through without touching the last-error
    // slot: the work completed correctly, the code is a routing signal.
    return stream->impl.flush();
  } catch (...) {
    return fail_current_exception();
  }
}

extern "C" int shalom_stream_flush_for(shalom_stream* stream, long ms) {
  clear_last_error();
  if (stream == nullptr)
    return fail(SHALOM_ERR_NULL_POINTER, "stream is NULL");
  try {
    const int status = stream->impl.flush_for(ms);
    if (status == SHALOM_ERR_TIMEOUT)
      return fail(status, "stream did not drain within the flush deadline");
    return status;  // SHALOM_OK or SHALOM_DEGRADED
  } catch (...) {
    return fail_current_exception();
  }
}

// Health probe, documented as returning an enum value (or -1 on NULL)
// rather than a status code; GemmStream::health() only takes the stream
// mutex and cannot throw anything but allocation-free lock errors, which
// the catch still contains.
extern "C" int shalom_stream_health(const shalom_stream* stream) {
  if (stream == nullptr) return -1;
  try {
    return static_cast<int>(stream->impl.health());
  } catch (...) {  // shalom-lint: allow(capi-exception-boundary)
    return -1;
  }
}

namespace {

template <typename T>
int submit_c(shalom_stream* stream, char trans_a, char trans_b, ptrdiff_t m,
             ptrdiff_t n, ptrdiff_t k, T alpha, const T* a, ptrdiff_t lda,
             const T* b, ptrdiff_t ldb, T beta, T* c, ptrdiff_t ldc,
             long deadline_ms, shalom_future** out_future) {
  clear_last_error();
  if (out_future != nullptr) *out_future = nullptr;
  if (stream == nullptr)
    return fail(SHALOM_ERR_NULL_POINTER, "stream is NULL");
  shalom::Trans ta, tb;
  if (!parse_trans(trans_a, ta) || !parse_trans(trans_b, tb))
    return fail(SHALOM_ERR_BAD_FLAG, "transpose flag must be 'N' or 'T'");
  try {
    auto future = std::make_unique<shalom_future>();
    future->ticket = stream->impl.submit<T>(shalom::Mode{ta, tb}, m, n, k,
                                            alpha, a, lda, b, ldb, beta, c,
                                            ldc, deadline_ms);
    if (out_future != nullptr) *out_future = future.release();
    // With out_future NULL the ticket is dropped here (fire-and-forget);
    // the stream's own reference keeps the request alive.
  } catch (...) {
    return fail_current_exception();
  }
  return SHALOM_OK;
}

}  // namespace

extern "C" int shalom_submit_s(shalom_stream* stream, char trans_a,
                               char trans_b, ptrdiff_t m, ptrdiff_t n,
                               ptrdiff_t k, float alpha, const float* a,
                               ptrdiff_t lda, const float* b, ptrdiff_t ldb,
                               float beta, float* c, ptrdiff_t ldc,
                               shalom_future** out_future) {
  return submit_c(stream, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                  beta, c, ldc, 0, out_future);
}

extern "C" int shalom_submit_d(shalom_stream* stream, char trans_a,
                               char trans_b, ptrdiff_t m, ptrdiff_t n,
                               ptrdiff_t k, double alpha, const double* a,
                               ptrdiff_t lda, const double* b, ptrdiff_t ldb,
                               double beta, double* c, ptrdiff_t ldc,
                               shalom_future** out_future) {
  return submit_c(stream, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                  beta, c, ldc, 0, out_future);
}

extern "C" int shalom_submit_timed_s(shalom_stream* stream, char trans_a,
                                     char trans_b, ptrdiff_t m, ptrdiff_t n,
                                     ptrdiff_t k, float alpha, const float* a,
                                     ptrdiff_t lda, const float* b,
                                     ptrdiff_t ldb, float beta, float* c,
                                     ptrdiff_t ldc, long deadline_ms,
                                     shalom_future** out_future) {
  return submit_c(stream, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                  beta, c, ldc, deadline_ms, out_future);
}

extern "C" int shalom_submit_timed_d(shalom_stream* stream, char trans_a,
                                     char trans_b, ptrdiff_t m, ptrdiff_t n,
                                     ptrdiff_t k, double alpha,
                                     const double* a, ptrdiff_t lda,
                                     const double* b, ptrdiff_t ldb,
                                     double beta, double* c, ptrdiff_t ldc,
                                     long deadline_ms,
                                     shalom_future** out_future) {
  return submit_c(stream, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                  beta, c, ldc, deadline_ms, out_future);
}

extern "C" int shalom_wait(shalom_future* future) {
  clear_last_error();
  if (future == nullptr)
    return fail(SHALOM_ERR_NULL_POINTER, "future is NULL");
  try {
    const int status = future->ticket->wait();
    if (status != SHALOM_OK && status != SHALOM_DEGRADED)
      // Re-surface the drainer-side failure as THIS thread's last error,
      // mirroring what a synchronous call would have set. SHALOM_DEGRADED
      // is not a failure (the results are correct) and passes through
      // without touching the slot.
      return fail(status, future->ticket->message().c_str());
    return status;
  } catch (...) {
    return fail_current_exception();
  }
}

extern "C" int shalom_wait_for(shalom_future* future, long ms) {
  clear_last_error();
  if (future == nullptr)
    return fail(SHALOM_ERR_NULL_POINTER, "future is NULL");
  try {
    if (!future->ticket->wait_for(ms))
      // The request itself is untouched: only this wait timed out.
      return fail(SHALOM_ERR_TIMEOUT,
                  "request did not resolve within the wait deadline");
    const int status = future->ticket->status();
    if (status != SHALOM_OK && status != SHALOM_DEGRADED)
      return fail(status, future->ticket->message().c_str());
    return status;
  } catch (...) {
    return fail_current_exception();
  }
}

// Returns 1/0 rather than a status code. The only throwing point is the
// message-string construction, which happens BEFORE the revoke CAS: a
// contained failure means nothing was cancelled (return 0), never a
// revoked-but-unresolved ticket.
// shalom-lint: allow(capi-exception-boundary)
extern "C" int shalom_future_cancel(shalom_future* future) {
  if (future == nullptr) return 0;
  try {
    if (!future->ticket->revoke(SHALOM_ERR_REJECTED,
                                "cancelled by shalom_future_cancel"))
      return 0;
  } catch (...) {
    return 0;
  }
  shalom::telemetry::note_request_cancelled();
  return 1;
}

// Completion probe, documented as returning 0/1 rather than a status
// code; Ticket::done() cannot throw.
// shalom-lint: allow(capi-exception-boundary)
extern "C" int shalom_future_done(const shalom_future* future) {
  if (future == nullptr) return 0;
  return future->ticket->done() ? 1 : 0;
}

extern "C" void shalom_future_destroy(shalom_future* future) {
  delete future;  // the stream's reference keeps an unfinished request alive
}

