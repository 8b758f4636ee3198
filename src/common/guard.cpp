#include "common/guard.h"

#include <atomic>
#include <cstring>

#include "common/error.h"
#include "common/fault.h"
#include "common/thread_annotations.h"

#if defined(__unix__) || defined(__APPLE__)
#define SHALOM_GUARD_POSIX 1
#include <csetjmp>
#include <csignal>
#else
#define SHALOM_GUARD_POSIX 0
#endif

// Sanitizers install their own SIGSEGV/SIGBUS machinery (and report the
// trap before our handler sees it), so trap containment is compiled down
// to a pass-through under every SHALOM_SANITIZE configuration. CMake
// defines SHALOM_GUARD_NO_TRAPS for those builds (UBSan has no detection
// macro); the feature probes below catch sanitized builds of this file
// that bypass our CMake flags.
#if !defined(SHALOM_GUARD_NO_TRAPS)
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SHALOM_GUARD_NO_TRAPS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SHALOM_GUARD_NO_TRAPS 1
#endif
#endif
#endif

namespace shalom {
namespace guard {

namespace {

#if SHALOM_GUARD_POSIX && !defined(SHALOM_GUARD_NO_TRAPS)

constexpr int kTrapSignals[] = {SIGILL, SIGSEGV, SIGBUS, SIGFPE};
constexpr int kTrapSignalCount =
    static_cast<int>(sizeof(kTrapSignals) / sizeof(kTrapSignals[0]));

// Active trap scope of THIS thread (null outside run_trapped). The
// handler only consults thread-local state, so a trap raised by an
// unrelated thread while a scope is active on this one falls through to
// the re-raise path below instead of unwinding the wrong stack.
thread_local sigjmp_buf* t_trap_buf = nullptr;
thread_local volatile sig_atomic_t t_trap_signal = 0;

// Serializes sigaction install/restore across concurrent run_trapped
// calls (process-wide dispositions; scopes are cold-path probe events).
Mutex g_trap_mutex;

/// Async-signal-safe by construction: one sig_atomic_t store plus
/// siglongjmp when a scope is active on this thread; otherwise restore
/// the default disposition and re-raise so the process dies exactly as it
/// would have without the guard. No allocation, no stdio, no locks (the
/// shalom_lint rule signal-handler-safety keeps it that way).
void trap_handler(int sig) {
  if (t_trap_buf != nullptr) {
    t_trap_signal = sig;
    siglongjmp(*t_trap_buf, 1);
  }
  std::signal(sig, SIG_DFL);
  raise(sig);
}

#endif  // SHALOM_GUARD_POSIX && !SHALOM_GUARD_NO_TRAPS

ArenaMode parse_arena_mode_env() noexcept {
  const char* value = env::raw("SHALOM_GUARD");
  if (value == nullptr || *value == '\0') return ArenaMode::kOff;
  if (env::ieq(value, "off")) return ArenaMode::kOff;
  if (env::ieq(value, "canary")) return ArenaMode::kCanary;
  if (env::ieq(value, "poison")) return ArenaMode::kPoison;
  env::warn_malformed("SHALOM_GUARD", value, "off|canary|poison");
  return ArenaMode::kOff;
}

// Test overrides (-1 = no override, defer to the env-parsed value).
std::atomic<int> g_arena_mode_override{-1};
std::atomic<int> g_watchdog_ms_override{-1};

}  // namespace

bool traps_supported() noexcept {
#if SHALOM_GUARD_POSIX && !defined(SHALOM_GUARD_NO_TRAPS)
  return true;
#else
  return false;
#endif
}

TrapOutcome run_trapped(void (*fn)(void*), void* ctx) noexcept {
  // The fault site comes first so trap handling is testable even where
  // real containment is compiled out (sanitizer builds, non-POSIX).
  if (SHALOM_FAULT_POINT(fault::Site::kGuardTrap))
    return TrapOutcome{true, traps_supported() ? SIGILL : 4};

#if SHALOM_GUARD_POSIX && !defined(SHALOM_GUARD_NO_TRAPS)
  TrapOutcome out;
  try {
    MutexLock lock(g_trap_mutex);

    struct sigaction prior[kTrapSignalCount];
    struct sigaction act;
    std::memset(&act, 0, sizeof act);
    act.sa_handler = trap_handler;
    sigemptyset(&act.sa_mask);
    act.sa_flags = 0;
    for (int i = 0; i < kTrapSignalCount; ++i)
      sigaction(kTrapSignals[i], &act, &prior[i]);

    // savemask=1: siglongjmp out of the handler restores the signal mask,
    // so the trapping signal does not stay blocked after containment.
    sigjmp_buf buf;
    t_trap_signal = 0;
    if (sigsetjmp(buf, 1) == 0) {
      t_trap_buf = &buf;
      fn(ctx);
    } else {
      out.trapped = true;
      out.signal = static_cast<int>(t_trap_signal);
    }
    t_trap_buf = nullptr;

    for (int i = 0; i < kTrapSignalCount; ++i)
      sigaction(kTrapSignals[i], &prior[i], nullptr);
  } catch (...) {
    // MutexLock can only throw on system lock failure; run without
    // containment rather than dropping the call.
    fn(ctx);
  }
  return out;
#else
  fn(ctx);
  return TrapOutcome{};
#endif
}

const char* signal_name(int sig) noexcept {
#if SHALOM_GUARD_POSIX
  switch (sig) {
    case SIGILL:
      return "SIGILL";
    case SIGSEGV:
      return "SIGSEGV";
    case SIGBUS:
      return "SIGBUS";
    case SIGFPE:
      return "SIGFPE";
    default:
      break;
  }
#else
  (void)sig;
#endif
  return "signal";
}

ArenaMode arena_mode() noexcept {
  const int override_mode =
      g_arena_mode_override.load(std::memory_order_relaxed);
  if (override_mode >= 0) return static_cast<ArenaMode>(override_mode);
  static const ArenaMode parsed = parse_arena_mode_env();
  return parsed;
}

void set_arena_mode_for_testing(ArenaMode mode) noexcept {
  g_arena_mode_override.store(static_cast<int>(mode),
                              std::memory_order_relaxed);
}

void clear_arena_mode_for_testing() noexcept {
  g_arena_mode_override.store(-1, std::memory_order_relaxed);
}

int env_watchdog_ms() noexcept {
  const int override_ms =
      g_watchdog_ms_override.load(std::memory_order_relaxed);
  if (override_ms >= 0) return override_ms;
  // 0 = disabled; cap at one hour (a longer period never fires in
  // practice and risks silent misconfiguration).
  static const int parsed = static_cast<int>(
      env::get_long("SHALOM_WATCHDOG_MS", 0, 0, 3600000));
  return parsed;
}

void set_watchdog_ms_for_testing(int ms) noexcept {
  g_watchdog_ms_override.store(ms, std::memory_order_relaxed);
}

}  // namespace guard
}  // namespace shalom
