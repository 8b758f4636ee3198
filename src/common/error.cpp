#include "common/error.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/thread_annotations.h"

namespace shalom {

const char* status_string(int code) noexcept {
  switch (code) {
    case SHALOM_OK:
      return "success";
    case SHALOM_ERR_BAD_FLAG:
      return "unknown dtype or transpose flag";
    case SHALOM_ERR_INVALID_ARGUMENT:
      return "invalid argument (bad dimensions, strides, or size overflow)";
    case SHALOM_ERR_NULL_POINTER:
      return "null handle or pointer";
    case SHALOM_ERR_DTYPE_MISMATCH:
      return "plan dtype does not match execute entry point";
    case SHALOM_ERR_ALLOC:
      return "allocation failure";
    case SHALOM_ERR_INTERNAL:
      return "unexpected internal error";
    case SHALOM_ERR_NUMERIC:
      return "non-finite value (NaN/Inf) caught by the numerical guard";
    case SHALOM_ERR_KERNEL_TRAP:
      return "kernel crashed (SIGILL/SIGSEGV/SIGBUS/SIGFPE) inside a "
             "trap-contained probe";
    case SHALOM_ERR_CORRUPTION:
      return "guarded pack-arena canary violated after kernel execution";
    case SHALOM_ERR_REJECTED:
      return "request shed by admission control or cancelled before "
             "execution";
    case SHALOM_ERR_TIMEOUT:
      return "deadline expired before completion";
    case SHALOM_DEGRADED:
      return "completed with correct results on a degraded (synchronous) "
             "path";
    case SHALOM_ERR_TABLE:
      return "persistent tuned-table operation failed (corrupt, skewed, or "
             "unwritable table file); degraded to a cold start";
    default:
      return "unknown status code";
  }
}

namespace detail {

namespace {
// Fixed-size slot: recording an error must never allocate (the error being
// recorded may itself be an allocation failure).
constexpr std::size_t kLastErrorCapacity = 512;
thread_local char t_last_error_message[kLastErrorCapacity] = {0};
thread_local int t_last_error_code = SHALOM_OK;
}  // namespace

void set_last_error(int code, const char* message) noexcept {
  t_last_error_code = code;
  if (message == nullptr) message = status_string(code);
  std::snprintf(t_last_error_message, kLastErrorCapacity, "%s", message);
}

void clear_last_error() noexcept {
  t_last_error_code = SHALOM_OK;
  t_last_error_message[0] = '\0';
}

const char* last_error_message() noexcept { return t_last_error_message; }

int last_error_code() noexcept { return t_last_error_code; }

}  // namespace detail

namespace env {

namespace {

// One-time-warning registry. Names are expected to be string literals
// (the call sites all pass "SHALOM_..."), so pointer + strcmp dedup over
// a small fixed table is enough and keeps this path allocation-free.
constexpr int kMaxWarnedNames = 16;
Mutex g_warned_mutex;
const char* g_warned_names[kMaxWarnedNames] SHALOM_GUARDED_BY(
    g_warned_mutex) = {};
int g_warned_count SHALOM_GUARDED_BY(g_warned_mutex) = 0;

/// Returns true exactly once per distinct name (and unconditionally if
/// the table overflows - warning twice beats suppressing a new name).
bool first_warning_for(const char* name) noexcept {
  try {
    MutexLock lock(g_warned_mutex);
    for (int i = 0; i < g_warned_count; ++i)
      if (std::strcmp(g_warned_names[i], name) == 0) return false;
    if (g_warned_count < kMaxWarnedNames)
      g_warned_names[g_warned_count++] = name;
    return true;
  } catch (...) {
    return true;
  }
}

}  // namespace

void warn_malformed(const char* name, const char* value,
                    const char* expected) noexcept {
  if (!first_warning_for(name)) return;
  std::fprintf(stderr,
               "shalom: ignoring malformed %s=\"%s\" (expected %s); "
               "using the documented default\n",
               name, value != nullptr ? value : "", expected);
}

const char* raw(const char* name) noexcept { return std::getenv(name); }

bool ieq(const char* value, const char* keyword) noexcept {
  for (; *value != '\0' && *keyword != '\0'; ++value, ++keyword) {
    if (std::tolower(static_cast<unsigned char>(*value)) !=
        std::tolower(static_cast<unsigned char>(*keyword)))
      return false;
  }
  return *value == *keyword;
}

long get_long(const char* name, long fallback, long lo, long hi) noexcept {
  const char* value = raw(name);
  if (value == nullptr || *value == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < lo ||
      parsed > hi) {
    char expected[96];
    std::snprintf(expected, sizeof expected, "an integer in [%ld, %ld]", lo,
                  hi);
    warn_malformed(name, value, expected);
    return fallback;
  }
  return parsed;
}

int get_enum(const char* name, int fallback, const char* const* names,
             int count) noexcept {
  const char* value = raw(name);
  if (value == nullptr || *value == '\0') return fallback;
  for (int i = 0; i < count; ++i)
    if (std::strcmp(value, names[i]) == 0) return i;
  // Build "one of a|b|c" in fixed storage: this path must not allocate
  // (same discipline as the rest of the error machinery).
  char expected[96];
  std::size_t at = 0;
  const char* prefix = "one of ";
  for (std::size_t i = 0; prefix[i] != '\0' && at + 1 < sizeof expected; ++i)
    expected[at++] = prefix[i];
  for (int i = 0; i < count; ++i) {
    if (i > 0 && at + 1 < sizeof expected) expected[at++] = '|';
    for (const char* p = names[i]; *p != '\0' && at + 1 < sizeof expected;
         ++p)
      expected[at++] = *p;
  }
  expected[at] = '\0';
  warn_malformed(name, value, expected);
  return fallback;
}

}  // namespace env
}  // namespace shalom
