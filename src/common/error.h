/* Error handling shared by every module - the single source of truth for
 * the library's status codes.
 *
 * The first section is plain C so the public C header (core/shalom_c.h)
 * can include it: the shalom_status enum IS the C API's return-code
 * contract, and the C++ core maps its exceptions onto the same values at
 * the ABI boundary (no exception ever crosses it).
 *
 * The C++ section keeps the contract-checking convention: programming
 * errors (bad dimensions, null pointers, invalid enum values) raise
 * shalom::invalid_argument with a formatted message; they are never
 * silently clamped. Hot paths use SHALOM_ASSERT, which compiles away in
 * release builds.
 */
#pragma once

/* ------------------------------------------------------------------------
 * C-compatible status codes (returned by every shalom_* C entry point).
 * shalom_strerror(code) gives the static description;
 * shalom_last_error_message() the call-specific detail (both declared in
 * core/shalom_c.h).
 * ---------------------------------------------------------------------- */
typedef enum shalom_status {
  SHALOM_OK = 0,                   /* success */
  SHALOM_ERR_BAD_FLAG = 1,         /* unknown dtype or transpose flag */
  SHALOM_ERR_INVALID_ARGUMENT = 2, /* bad dimensions, strides, overflow */
  SHALOM_ERR_NULL_POINTER = 3,     /* null handle or output pointer */
  SHALOM_ERR_DTYPE_MISMATCH = 4,   /* plan dtype != execute entry point */
  SHALOM_ERR_ALLOC = 5,            /* allocation failure (not degradable) */
  SHALOM_ERR_INTERNAL = 6,         /* unexpected internal error */
  SHALOM_ERR_NUMERIC = 7,          /* NaN/Inf caught by the numerical guard
                                      (Config::check_numerics = kFail) */
  SHALOM_ERR_KERNEL_TRAP = 8,      /* kernel crashed (SIGILL/SIGSEGV/...)
                                      inside a trap-contained probe */
  SHALOM_ERR_CORRUPTION = 9,       /* guarded pack-arena canary violated
                                      after kernel execution (SHALOM_GUARD) */
  SHALOM_ERR_REJECTED = 10,        /* request shed by stream admission
                                      control (queue at capacity / stream
                                      draining) or cancelled by the caller
                                      before execution */
  SHALOM_ERR_TIMEOUT = 11,         /* request deadline expired before
                                      execution, or a timed wait ran out
                                      before completion */
  SHALOM_DEGRADED = 12,            /* NOT an error: the work completed with
                                      correct results but on a degraded
                                      path (stream latched synchronous by
                                      its circuit breaker or drainer-spawn
                                      failure) */
  SHALOM_ERR_TABLE = 13,           /* persistent tuned-table operation
                                      failed (unreadable, corrupt, or
                                      version/fingerprint-skewed file; I/O
                                      failure during an atomic save) - the
                                      process degrades to a cold start and
                                      the previous on-disk table, if any,
                                      is untouched */
} shalom_status;

#ifdef __cplusplus

#include <sstream>
#include <stdexcept>
#include <string>

namespace shalom {

/// Thrown for API contract violations (invalid sizes, strides, modes).
class invalid_argument : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when the opt-in numerical guard (Config::check_numerics with
/// policy kFail) finds a NaN or Inf in an operand or in the result. Maps
/// to SHALOM_ERR_NUMERIC at the C boundary.
class numeric_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a guard-rail check (common/guard.h) proves memory was
/// corrupted: a canary word bracketing a guarded pack arena changed after
/// kernel execution. The offending kernel variant is quarantined before
/// the throw; the result in C must be considered garbage. Maps to
/// SHALOM_ERR_CORRUPTION at the C boundary.
class corruption_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a hardware trap (SIGILL/SIGSEGV/SIGBUS/SIGFPE) is contained
/// by a guard trap scope in a context that cannot degrade further. Trap
/// containment around selfcheck probes never throws this - a trapped probe
/// becomes a quarantine verdict - so it only reaches callers through
/// explicit guard::run_trapped users. Maps to SHALOM_ERR_KERNEL_TRAP at
/// the C boundary.
class kernel_trap_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when stream admission control sheds a submission (queue at
/// capacity under a shed-* overload policy, the `engine.shed` fault site,
/// or a submit on a draining/closed stream). Nothing was queued; the
/// stream is unchanged. Maps to SHALOM_ERR_REJECTED at the C boundary.
class rejected_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a request's deadline expires before it could be admitted
/// (a `block`-policy submit that ran out of time waiting for queue
/// space). Queued requests whose deadline expires resolve their ticket
/// with SHALOM_ERR_TIMEOUT instead of throwing. Maps to
/// SHALOM_ERR_TIMEOUT at the C boundary.
class timeout_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Static description of a shalom_status value ("invalid argument", ...).
/// Never returns NULL; unknown codes map to a fixed sentinel string.
const char* status_string(int code) noexcept;

namespace detail {
template <typename... Args>
[[noreturn]] void throw_invalid(const char* expr, Args&&... context) {
  std::ostringstream os;
  os << "shalom: requirement violated: " << expr;
  ((os << context), ...);
  throw invalid_argument(os.str());
}

/// Thread-local last-error slot backing shalom_last_error_message().
/// Fixed-size storage: recording an error must never allocate (the error
/// being recorded may BE an allocation failure). Messages are truncated
/// to the slot size.
void set_last_error(int code, const char* message) noexcept;
void clear_last_error() noexcept;
const char* last_error_message() noexcept;  // "" when no error recorded
int last_error_code() noexcept;             // SHALOM_OK when none
}  // namespace detail

/// Hardened SHALOM_* environment-variable parsing. Configuration read
/// from the environment must never turn a typo into silent behaviour
/// changes: every malformed value produces a one-time stderr diagnostic
/// naming the variable and the documented default that applies instead.
namespace env {

/// Reads `name` as a decimal integer in [lo, hi]. Unset or empty returns
/// `fallback` silently (unset is the normal state, not an error);
/// malformed, non-numeric, or out-of-range values warn once via
/// warn_malformed() and return `fallback`.
long get_long(const char* name, long fallback, long lo, long hi) noexcept;

/// Reads `name` as one of `count` keywords and returns the matching index
/// into `names`. Unset or empty returns `fallback` silently; any other
/// value that matches no keyword warns once via warn_malformed() (listing
/// the accepted keywords) and returns `fallback`. Matching is exact and
/// case-sensitive: SHALOM_* keyword knobs are documented lowercase.
int get_enum(const char* name, int fallback, const char* const* names,
             int count) noexcept;

/// Case-insensitive ASCII equality, for keyword-valued SHALOM_* variables
/// that accept any case (SHALOM_SELFTEST, SHALOM_CHECK_NUMERICS,
/// SHALOM_GUARD).
bool ieq(const char* value, const char* keyword) noexcept;

/// Raw environment lookup (nullptr when unset). The single point every
/// SHALOM_* read funnels through (enforced by tools/shalom_lint's
/// env-access rule): callers with keyword or grammar semantics parse the
/// returned string themselves but still report malformed values through
/// warn_malformed(), keeping the one-diagnostic-per-variable guarantee.
const char* raw(const char* name) noexcept;

/// One-time (per variable name) stderr diagnostic for a malformed value.
/// `name` must outlive the process (pass a string literal); repeated
/// calls for the same name are dropped so parse-on-every-call helpers
/// cannot spam the log.
void warn_malformed(const char* name, const char* value,
                    const char* expected) noexcept;

}  // namespace env

/// Validates an API precondition; throws shalom::invalid_argument on failure.
#define SHALOM_REQUIRE(cond, ...)                               \
  do {                                                          \
    if (!(cond)) ::shalom::detail::throw_invalid(#cond, ##__VA_ARGS__); \
  } while (0)

#ifndef NDEBUG
#define SHALOM_ASSERT(cond) SHALOM_REQUIRE(cond)
#else
#define SHALOM_ASSERT(cond) ((void)0)
#endif

}  // namespace shalom

#endif /* __cplusplus */
