#include "common/health.h"

#include <chrono>
#include <cstddef>

#include "common/error.h"
#include "common/fault.h"

namespace shalom {
namespace health {

namespace {

/// LatchWord::state values (the State enumerators).
constexpr std::uint64_t kHealthy = 0;
constexpr std::uint64_t kDegraded = 1;
constexpr std::uint64_t kProbation = 2;
constexpr std::uint64_t kQuarantined = 3;

/// Hard cap on the exponential backoff: 2^6 = 64x the base cool-down. A
/// latch that keeps failing probation converges to one probe per capped
/// window instead of doubling without bound (which would turn a
/// recoverable fault into a de-facto permanent latch).
constexpr std::uint64_t kMaxDoublings = 6;

/// Monotonic milliseconds: the clock every cool-down deadline and window
/// id is measured on.
std::uint64_t now_ms() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t base_backoff_ms() noexcept {
  const long ms = env_recovery_ms();
  return ms > 0 ? static_cast<std::uint64_t>(ms) : 0;
}

/// DEGRADED for `cause` with `doublings` and the matching cool-down
/// deadline.
LatchWord degraded(std::uint64_t cause, std::uint64_t doublings) noexcept {
  return {kDegraded, cause, doublings, 0, 0,
          now_ms() + (base_backoff_ms() << doublings)};
}

/// HEALTHY with the base backoff and no window, still naming `cause` as
/// why the latch last left HEALTHY.
LatchWord healthy(std::uint64_t cause) noexcept {
  return {kHealthy, cause, 0, 0, 0, 0};
}

/// The word a probation ends in: HEALTHY or DEGRADED with the backoff
/// doubled.
LatchWord after_probation(LatchWord w, bool succeeded) noexcept {
  if (succeeded) return healthy(w.cause);
  return degraded(w.cause, w.doublings < kMaxDoublings ? w.doublings + 1
                                                       : kMaxDoublings);
}

/// The enumerator's name from its table, "unknown" out of range.
template <typename Enum, std::size_t N>
const char* name_of(Enum e, const char* const (&names)[N]) noexcept {
  const auto i = static_cast<std::size_t>(e);
  return i < N ? names[i] : "unknown";
}

/// Counts how a probation ended, once its CAS has landed.
void count_end(bool succeeded) noexcept {
  telemetry::note(succeeded ? Counter::kRecoveries
                            : Counter::kProbationFailures);
}

}  // namespace

const char* component_name(Component c) noexcept {
  static const char* const kNames[] = {"kernels", "threadpool",
                                       "stream_breaker", "tuned_table"};
  return name_of(c, kNames);
}

const char* state_name(State s) noexcept {
  static const char* const kNames[] = {"HEALTHY", "DEGRADED", "PROBATION",
                                       "QUARANTINED"};
  return name_of(s, kNames);
}

const char* cause_name(Cause c) noexcept {
  static const char* const kNames[] = {"none", "mismatch", "trap",
                                       "injected", "overload"};
  return name_of(c, kNames);
}

long env_recovery_ms() noexcept {
  static const long v = env::get_long("SHALOM_RECOVERY_MS", 250, 0, 3600000);
  return v;
}

long env_probation_n() noexcept {
  static const long v = env::get_long("SHALOM_PROBATION_N", 3, 1, 64);
  return v;
}

bool recovery_enabled() noexcept { return env_recovery_ms() > 0; }

// ---------------------------------------------------------------------------
// Latch
// ---------------------------------------------------------------------------

template <typename Step>
bool Latch::update(Step step) noexcept {
  LatchWord w = word_.load(std::memory_order_acquire);
  for (;;) {
    LatchWord next = w;
    if (!step(next)) return false;
    if (word_.compare_exchange_weak(w, next, std::memory_order_acq_rel,
                                    std::memory_order_acquire))
      return true;
  }
}

Cause Latch::cause() const noexcept {
  return static_cast<Cause>(word_.load(std::memory_order_acquire).cause);
}

ComponentReport Latch::report() const noexcept {
  const LatchWord w = word_.load(std::memory_order_acquire);
  ComponentReport r;
  r.state = static_cast<State>(w.state);
  r.cause = static_cast<Cause>(w.cause);
  r.backoff_ms = base_backoff_ms() << w.doublings;
  const std::uint64_t now = now_ms();
  if (w.state == kDegraded && w.ms > now) r.cooldown_remaining_ms = w.ms - now;
  return r;
}

bool Latch::degrade(Cause cause) noexcept {
  const auto c = static_cast<std::uint64_t>(cause);
  bool left = false;
  (void)update([c, &left](LatchWord& w) {
    left = w.state == kHealthy;
    if (left) {
      w = degraded(c, 0);
      return true;
    }
    // Terminal evidence outranks any later degradation; DEGRADED and
    // PROBATION only refresh the cause (the running cool-down keeps its
    // deadline).
    if (w.state == kQuarantined || w.cause == c) return false;
    w.cause = c;
    return true;
  });
  return left;
}

bool Latch::quarantine(Cause cause) noexcept {
  const auto c = static_cast<std::uint64_t>(cause);
  bool left = false;
  (void)update([c, &left](LatchWord& w) {
    left = w.state == kHealthy;
    if (w.state == kQuarantined) return false;
    w = LatchWord{kQuarantined, c, 0, 0, 0, 0};
    return true;
  });
  return left;
}

bool Latch::recover() noexcept {
  return update([](LatchWord& w) {
    if (w.state != kDegraded && w.state != kProbation) return false;
    w = healthy(w.cause);
    return true;
  });
}

bool Latch::try_begin_probation() noexcept {
  if (!recovery_enabled()) return false;
  const std::uint64_t now = now_ms();
  // A fresh window: the counts are zeroed by the same CAS that publishes
  // PROBATION, so no admission of the new window can be lost.
  return update([now](LatchWord& w) {
    if (w.state != kDegraded || now < w.ms) return false;
    w = LatchWord{kProbation, w.cause, w.doublings, 0, 0, now};
    return true;
  });
}

void Latch::end_probation(bool succeeded) noexcept {
  if (update([succeeded](LatchWord& w) {
        if (w.state != kProbation) return false;
        w = after_probation(w, succeeded);
        return true;
      }))
    count_end(succeeded);
}

bool Latch::admit_trial(Window* window) noexcept {
  const std::uint64_t budget = static_cast<std::uint64_t>(env_probation_n());
  return update([budget, window](LatchWord& w) {
    if (w.state != kProbation || w.admitted >= budget) return false;
    ++w.admitted;
    *window = w.ms;
    return true;
  });
}

bool Latch::end_trial(Window window, bool clean) noexcept {
  const std::uint64_t streak = static_cast<std::uint64_t>(env_probation_n());
  bool ends = false;
  if (!update([&](LatchWord& w) {
        if (w.state != kProbation || w.ms != window)
          return false;  // that window already ended
        ends = !clean || w.clean >= streak - 1;
        if (ends) {
          w = after_probation(w, clean);
        } else {
          ++w.clean;
        }
        return true;
      }))
    return false;
  if (ends) count_end(clean);
  return ends;
}

void Latch::expire() noexcept {
  const std::uint64_t now = now_ms();
  (void)update([now](LatchWord& w) {
    if (w.state != kDegraded) return false;
    w.ms = now;
    return true;
  });
}

void Latch::reset() noexcept {
  word_.store(LatchWord{}, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

Latch g_latches[kComponentCount];
std::atomic<RecoverHook> g_hooks[kComponentCount];

}  // namespace

Latch& latch(Component c) noexcept { return g_latches[static_cast<int>(c)]; }

void report_degraded(Component c, Cause cause) noexcept {
  (void)latch(c).degrade(cause);
}

void report_recovered(Component c) noexcept {
  if (latch(c).recover()) telemetry::note(Counter::kRecoveries);
}

bool probe_faulted() noexcept {
  telemetry::note(Counter::kProbationProbes);
  return SHALOM_FAULT_POINT(fault::Site::kHealthProbe);
}

bool run_probation(Component c, bool (*probe)() noexcept) noexcept {
  Latch& l = latch(c);
  if (l.state() == State::kHealthy) return true;
  if (!l.try_begin_probation()) return false;
  const bool ok = probe();
  l.end_probation(ok);
  return ok;
}

State state(Component c) noexcept { return latch(c).state(); }

ComponentReport component_report(Component c) noexcept {
  return latch(c).report();
}

bool all_healthy() noexcept {
  for (const Latch& l : g_latches)
    if (l.state() != State::kHealthy) return false;
  return true;
}

void set_recover_hook(Component c, RecoverHook hook) noexcept {
  g_hooks[static_cast<int>(c)].store(hook, std::memory_order_release);
}

void expire_cooldowns() noexcept {
  for (Latch& l : g_latches) l.expire();
}

int recover_now() noexcept {
  if (!recovery_enabled()) return 0;
  expire_cooldowns();
  int recovered = 0;
  for (int c = 0; c < kComponentCount; ++c) {
    if (g_latches[c].state() == State::kHealthy) continue;
    const RecoverHook hook = g_hooks[c].load(std::memory_order_acquire);
    if (hook != nullptr && hook()) ++recovered;  // no hook: passive-only
  }
  return recovered;
}

void reset_for_testing() noexcept {
  // Hooks survive the reset: they are process-wide wiring installed at
  // static-init time by the component owners, not mutable health state.
  for (Latch& l : g_latches) l.reset();
}

}  // namespace health
}  // namespace shalom
