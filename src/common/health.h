// Self-healing recovery layer: one recovery latch and the component
// health registry built from it.
//
// PRs 2-8 made every failure mode *degrade* instead of crash: a kernel
// variant that fails its selfcheck is quarantined, a pool whose workers
// cannot spawn narrows, a stream whose submissions keep failing latches
// its circuit breaker into synchronous mode, a tuned table that cannot be
// read cold-starts.
// Every one of those transitions was one-way: a single transient fault
// (a memory-pressure spike, one wedged round, an injected probe failure)
// left the process serving at scalar/serial speed forever.
//
// This header closes the loop. Each degradable unit is a `Latch`, one
// explicit state machine:
//
//        degrade                         cool-down elapsed
//   HEALTHY ----------> DEGRADED ----------------------> PROBATION
//      ^                   ^                                 |
//      |                   | probe failed (backoff doubles)  |
//      |                   +---------------------------------+
//      |                              probe streak clean     |
//      +-----------------------------------------------------+
//                                                            |
//   QUARANTINED <-- quarantine (permanent evidence,          v
//                   e.g. a hardware trap; never re-probed    [terminal]
//                   by default)
//
// with *cause* tracking (a 1-ulp mismatch, a contained hardware trap, an
// injected fault, overload) and exponential-backoff cool-downs: every
// failed probation doubles the wait before the next probe (capped at 64x
// the base), so a genuinely broken unit converges to near-zero probe
// traffic while a transiently broken one recovers in one cool-down.
//
// The registry keeps one latch per Component; each engine::GemmStream
// keeps one for its circuit breaker, whose half-open trials run through
// the latch's probation window (at most SHALOM_PROBATION_N admitted
// trials, closed by as many clean ones); selfcheck keeps one per kernel
// variant, whose re-probes the kKernels row gates.
//
// Recovery is passive: the degraded code paths themselves try to begin a
// probation when they run (a submit on a latched stream, a parallel
// round on a narrowed pool, a dispatch that would skip a quarantined
// variant), so recovery needs no extra thread. recover_now() (the C API's
// shalom_recover_now) forces one recovery pass, so an idle process can
// heal on demand.
//
// Knobs (through the env::get_long warn-once funnel):
//   SHALOM_RECOVERY_MS   base cool-down in ms before the first probation
//                        probe; 0 disables recovery entirely and restores
//                        the pre-recovery permanent-latch behaviour.
//   SHALOM_PROBATION_N   consecutive clean probes required to restore a
//                        component to HEALTHY.
//
// Fault sites `health.probe` / `health.respawn` (common/fault.h) make the
// recovery machinery itself degrade gracefully: an injected probe failure
// re-latches the component with a doubled cool-down, never corrupts it.
#pragma once

#include <atomic>
#include <cstdint>

namespace shalom {
namespace health {

/// Degradable units the registry tracks. One latch per *component*, not
/// per instance: the 30 kernel variants aggregate into kKernels (each
/// keeps its own latch in common/selfcheck.cpp) and every stream's
/// breaker aggregates into kStreamBreaker (each stream keeps its own
/// breaker latch in core/engine.cpp).
enum class Component : int {
  kKernels = 0,        // selfcheck-quarantined micro-kernel variants
  kThreadPool = 1,     // narrowed or watchdog-serialized thread pool
  kStreamBreaker = 2,  // latched stream circuit breakers
  kTunedTable = 3,     // persistent tuned-table load/save failures
};
inline constexpr int kComponentCount = 4;

/// Latch states. kQuarantined is terminal: entering it requires positive
/// evidence of corruption (a contained hardware trap, a canary violation)
/// and a latch never re-probes out of it.
enum class State : int {
  kHealthy = 0,
  kDegraded = 1,
  kProbation = 2,
  kQuarantined = 3,
};

/// Why the unit left kHealthy. Retained across probation so a
/// recovered-then-re-degraded unit still reports its latest cause.
enum class Cause : int {
  kNone = 0,
  kMismatch = 1,  // selfcheck result diverged from the scalar oracle
  kTrap = 2,      // hardware trap contained by a guard scope
  kInjected = 3,  // fault-injection framework fired the site
  kOverload = 4,  // resource exhaustion (alloc/spawn/queue failures)
};

const char* component_name(Component c) noexcept;
const char* state_name(State s) noexcept;
const char* cause_name(Cause c) noexcept;

/// SHALOM_RECOVERY_MS: base cool-down before the first probation probe,
/// in milliseconds. 0 disables recovery (every degradation latches
/// permanently, the pre-recovery behaviour). Default 250, range
/// [0, 3600000].
long env_recovery_ms() noexcept;

/// SHALOM_PROBATION_N: consecutive clean probes required to restore a
/// component. Default 3, range [1, 64].
long env_probation_n() noexcept;

/// True when recovery is enabled (env_recovery_ms() > 0).
bool recovery_enabled() noexcept;

/// One latch's state, as surfaced by shalom_health_report().
struct ComponentReport {
  State state = State::kHealthy;
  Cause cause = Cause::kNone;
  /// Current cool-down width in ms (doubles per failed probation).
  std::uint64_t backoff_ms = 0;
  /// Milliseconds until the next probation probe may run (0 when none is
  /// pending - healthy, quarantined, or the deadline already passed).
  std::uint64_t cooldown_remaining_ms = 0;
};

// ---------------------------------------------------------------------------
// Latch: one unit's recovery state machine
// ---------------------------------------------------------------------------

/// Latch's packed state word, low bits first. 7-bit counts hold any
/// SHALOM_PROBATION_N (<= 64); 42 bits of milliseconds (139 years)
/// outlast any process.
struct LatchWord {
  std::uint64_t state : 2;      // State
  std::uint64_t cause : 3;      // Cause: why it last left HEALTHY
  std::uint64_t doublings : 3;  // backoff doublings: cool-down = base << n
  std::uint64_t admitted : 7;   // trials admitted into the open window
  std::uint64_t clean : 7;      // clean trials reported in the window
  std::uint64_t ms : 42;        // DEGRADED: the cool-down deadline;
                                // PROBATION: the window's open time
};

/// The state machine in the header comment, lock-free and safe from any
/// thread. State, cause, backoff doublings, the open probation window's
/// admitted and clean counts, and the cool-down deadline share one
/// atomic word, so every transition is a single CAS: a window's counts
/// are zeroed in the same CAS that publishes PROBATION, a cause can never
/// land on a state another transition published, and no reader ever sees
/// a state paired with another transition's deadline.
///
/// A probation has one of two shapes. Single-owner: try_begin_probation()
/// returns true to exactly one caller, who runs its probe and finishes
/// with end_probation(). Windowed (the stream breaker's half-open
/// trials): once the window is open, admit_trial() admits up to
/// SHALOM_PROBATION_N concurrent trials, each finishing with end_trial();
/// that many clean trials close the window, one failed trial re-opens
/// the cool-down.
class Latch {
 public:
  /// Identifies one probation window: its open time in ms. A failed
  /// window re-arms a cool-down of at least 1 ms, so ids never repeat
  /// unless expire() re-opens a window within the millisecond its
  /// predecessor failed. A trial of a window that has since ended is
  /// ignored.
  using Window = std::uint64_t;

  /// Inline: selfcheck's verified-dispatch path is this one load.
  State state() const noexcept {
    return static_cast<State>(word_.load(std::memory_order_acquire).state);
  }
  Cause cause() const noexcept;
  ComponentReport report() const noexcept;

  /// HEALTHY -> DEGRADED, arming the base cool-down; true on that
  /// transition. DEGRADED/PROBATION only refresh the cause (the running
  /// cool-down keeps its deadline); QUARANTINED is sticky.
  bool degrade(Cause cause) noexcept;

  /// Any other state -> QUARANTINED. Terminal: nothing re-probes or
  /// recovers it, and its cause stays the first evidence's. True when
  /// this call left HEALTHY (a DEGRADED or PROBATION latch was already
  /// counted out of service when it degraded).
  bool quarantine(Cause cause) noexcept;

  /// DEGRADED/PROBATION -> HEALTHY outside any probation protocol; true
  /// on that transition. Counts nothing: the caller decides whether the
  /// transition restored anything. The cause stays as why the latch last
  /// left HEALTHY.
  bool recover() noexcept;

  /// DEGRADED -> PROBATION when recovery is enabled and the cool-down
  /// has elapsed, opening a fresh window. True for the one caller whose
  /// CAS opened it.
  bool try_begin_probation() noexcept;

  /// Ends the open probation. succeeded: -> HEALTHY with the base
  /// backoff, counts a recovery. failed: -> DEGRADED with the backoff
  /// doubled (capped at 64x base), counts a probation failure. No-op
  /// outside PROBATION.
  void end_probation(bool succeeded) noexcept;

  /// Admits one trial into the open window, at most SHALOM_PROBATION_N
  /// per window. False when no window is open or it is full.
  bool admit_trial(Window* window) noexcept;

  /// Reports one trial admitted into `window`. The SHALOM_PROBATION_N-th
  /// clean trial ends the probation succeeded, a failed trial ends it
  /// failed (each counted as end_probation does). Returns true when this
  /// call ended the probation.
  bool end_trial(Window window, bool clean) noexcept;

  /// DEGRADED: moves the cool-down deadline to now, so the next
  /// probation may begin at once.
  void expire() noexcept;

  /// HEALTHY/kNone with the base backoff. Not thread-safe against
  /// concurrent transitions.
  void reset() noexcept;

 private:
  /// Applies `step` (LatchWord& -> bool: false means no transition) in a
  /// CAS loop; true once a transition landed.
  template <typename Step>
  bool update(Step step) noexcept;

  std::atomic<LatchWord> word_{LatchWord{}};
};
static_assert(std::atomic<LatchWord>::is_always_lock_free);

// ---------------------------------------------------------------------------
// Registry: one latch per component (all lock-free; safe from any thread)
// ---------------------------------------------------------------------------

/// The registry's latch for `c`.
Latch& latch(Component c) noexcept;

/// Records that a unit of `c` degraded for `cause` (Latch::degrade).
void report_degraded(Component c, Cause cause) noexcept;

/// Records that `c` is serving at full capacity again, regardless of how
/// it got there (a passive path observed success, or a probation streak
/// completed). DEGRADED/PROBATION -> HEALTHY; counts a recovery only
/// when the state actually changed. QUARANTINED is sticky.
void report_recovered(Component c) noexcept;

/// Per-probe bookkeeping every probation probe calls first: counts the
/// probe and evaluates the `health.probe` fault site. Returns true when
/// the injected fault says this probe must report failure (the caller
/// treats it exactly like a genuinely failed probe).
bool probe_faulted() noexcept;

/// One full single-owner probation cycle for `c`: true at once when `c`
/// is HEALTHY; false when no probation could begin (recovery disabled,
/// cool-down pending, another caller owns it); otherwise runs `probe`
/// (which calls probe_faulted() per probe it runs) and ends the
/// probation with its verdict. Returns true when `c` ended the cycle
/// HEALTHY.
bool run_probation(Component c, bool (*probe)() noexcept) noexcept;

State state(Component c) noexcept;
ComponentReport component_report(Component c) noexcept;

/// True when every component is kHealthy.
bool all_healthy() noexcept;

// ---------------------------------------------------------------------------
// Forced recovery
// ---------------------------------------------------------------------------

/// A component's recovery hook: attempts one full probation cycle for
/// that component (typically run_probation with the component's probe)
/// and returns true when the component ended up HEALTHY. Owners register
/// these at static-init time (selfcheck for kKernels, the pool registry
/// for kThreadPool); components whose recovery is purely passive
/// (per-stream breakers, the tuned table) register none.
using RecoverHook = bool (*)() noexcept;
void set_recover_hook(Component c, RecoverHook hook) noexcept;

/// One recovery pass, callable from any thread (this is what
/// shalom_recover_now() runs): expires every pending cool-down so the
/// next probation check fires immediately, then invokes each registered
/// hook for components not currently HEALTHY. Returns the number of
/// components whose hook reported full recovery.
int recover_now() noexcept;

/// Expires every DEGRADED component's cool-down (deadline := now) without
/// probing, so the next passive on-path check enters probation at once.
void expire_cooldowns() noexcept;

/// Resets every component to HEALTHY/kNone with base cool-downs.
/// Registered hooks survive (they are process-wide wiring, not state).
/// Test-only; not thread-safe against concurrent transitions.
void reset_for_testing() noexcept;

}  // namespace health
}  // namespace shalom
