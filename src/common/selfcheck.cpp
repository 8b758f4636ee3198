// Kernel self-verification probes (see selfcheck.h for the contract).
//
// One harness, run_cases(), probes every kernel family through its kind's
// row of the case table and its runner (selfcheck_probe.h). Each case is a
// small deterministic tile laid out as the dispatch layer lays it out:
// direct operands in place with sentinel padding that must never be read,
// packed slivers with the zero-padding and tail slack the layout contract
// requires, transposed operands in place, and C sentinel-filled around the
// tile and NaN-filled when beta == 0 (the kernel must not read it). C must
// match an independent double-precision dot product of the same operands,
// and a fused kernel's packed side-output (Bc, Ac and its tail slack, the
// scattered B^T) must match bitwise. An out-of-bounds kernel is as
// disqualified as an inaccurate one.
//
// Layering note: this file lives in shalom_common, which does NOT link
// shalom_core. It may only instantiate header-only templates (the
// core/dispatch.h kernel tables, every width included); referencing any
// symbol compiled into shalom_core (pack.cpp, model.cpp, plan.cpp) would
// break the link.

#include "common/selfcheck.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "common/guard.h"
#include "common/rng.h"
#include "common/selfcheck_probe.h"
#include "core/dispatch.h"

namespace shalom {
namespace selfcheck {
namespace probe {
namespace {

/// Deterministic pseudo-random value in [-1, 1); every (salt, i, j) maps
/// to one fixed bit pattern so failures reproduce across runs and threads.
template <typename T>
T pv(std::uint64_t salt, index_t i, index_t j) {
  SplitMix64 rng(salt ^
                 (static_cast<std::uint64_t>(i + 1) * 0x9E3779B97F4A7C15ull) ^
                 (static_cast<std::uint64_t>(j + 7) * 0xBF58476D1CE4E5B9ull));
  return static_cast<T>(rng.next_unit() * 2.0 - 1.0);
}

/// Salts of the seeded operands A(i, k), B(k, j) and the initial C(i, j).
/// Columns nr.. of B are the next sliver a pack-ahead kernel copies.
enum : std::uint64_t { kSeedA = 1, kSeedB = 2, kSeedC = 3 };

/// Fills slots a correct kernel must never read or write; exactly
/// representable in float so canary comparisons are bitwise.
template <typename T>
constexpr T kSentinel = static_cast<T>(1048576);

/// Lays out rows 0..m-1 of the seeded A as `acc` reads it; returns lda.
template <typename T>
index_t lay_a(Access acc, int mr, int m, index_t kc, std::vector<T>& buf) {
  if (acc == Access::kDirect) {
    // Row-major in place; the ld padding is sentinel (never read).
    const index_t lda = kc + 2;
    buf.assign(static_cast<std::size_t>(m * lda), kSentinel<T>);
    for (int i = 0; i < m; ++i)
      for (index_t k = 0; k < kc; ++k) buf[i * lda + k] = pv<T>(kSeedA, i, k);
    return lda;
  }
  // Contiguous columns: a packed sliver of stride mr whose rows past m are
  // zero BY CONTRACT (the packer writes them) plus tail slack, or
  // transposed storage in place with a sentinel slot at row mr.
  const bool packed = acc == Access::kPacked;
  const index_t lda = packed ? mr : mr + 1;
  buf.assign(static_cast<std::size_t>(
                 kc * lda + (packed ? ukr::kPackSlackElems : 0)),
             packed ? T{0} : kSentinel<T>);
  for (index_t k = 0; k < kc; ++k)
    for (int i = 0; i < m; ++i) buf[k * lda + i] = pv<T>(kSeedA, i, k);
  return lda;
}

/// Lays out columns 0..n-1 of the seeded B as `acc` reads it, plus, for a
/// pack-ahead tile, the next full sliver at column nr; returns ldb.
template <typename T>
index_t lay_b(Access acc, int nr, int n, bool ahead, index_t kc,
              std::vector<T>& buf) {
  if (acc == Access::kTrans) {
    // Transposed in place: op(B)(k, j) lives at buf[j*ldb + k].
    const index_t ldb = kc + 1;
    buf.assign(static_cast<std::size_t>(n * ldb), kSentinel<T>);
    for (int j = 0; j < n; ++j)
      for (index_t k = 0; k < kc; ++k) buf[j * ldb + k] = pv<T>(kSeedB, k, j);
    return ldb;
  }
  // Rows: a packed sliver of stride nr, zero-padded past the edge, or in
  // place with room for the next sliver and sentinel everywhere else.
  const bool packed = acc == Access::kPacked;
  const index_t ldb = packed ? nr : 2 * nr + 1;
  buf.assign(static_cast<std::size_t>(
                 kc * ldb + (packed ? ukr::kPackSlackElems : 0)),
             packed ? T{0} : kSentinel<T>);
  for (index_t k = 0; k < kc; ++k)
    for (int j = 0; j < (ahead ? 2 * nr : n); ++j)
      if (j < n || j >= nr) buf[k * ldb + j] = pv<T>(kSeedB, k, j);
  return ldb;
}

/// True when the m_eff x n_eff tile of C matches `ref(i, j)` within `tol`
/// and every other slot (column padding, untouched rows) holds the canary.
template <typename T, typename RefFn>
bool check_c(const std::vector<T>& c, index_t ldc, int rows_alloc, int m_eff,
             int n_eff, double tol, RefFn ref) {
  for (int i = 0; i < rows_alloc; ++i)
    for (int j = 0; j < ldc; ++j) {
      const double g = static_cast<double>(c[i * ldc + j]);
      if (i < m_eff && j < n_eff
              ? !std::isfinite(g) || std::abs(g - ref(i, j)) > tol
              : c[i * ldc + j] != kSentinel<T>)
        return false;
    }
  return true;
}

/// True when the packed side-output `buf`, kc rows of stride w, holds
/// value(k, x) bitwise in lanes x < n and zeros in the rest, and any tail
/// slack past the kc rows still holds the canary.
template <typename T, typename F>
bool sliver_ok(const std::vector<T>& buf, index_t kc, int w, int n, F value) {
  for (std::size_t x = 0; x < buf.size(); ++x) {
    const index_t k = static_cast<index_t>(x) / w;
    const int lane = static_cast<int>(x % static_cast<std::size_t>(w));
    if (buf[x] != (k >= kc ? kSentinel<T> : lane < n ? value(k, lane) : T{0}))
      return false;
  }
  return true;
}

}  // namespace

template <typename T>
bool run_cases(const Cases& cs, Runner<T> run) {
  const int mr = cs.mr, nr = cs.nr;
  const index_t ldc = nr + 3;
  const auto a_col = [](index_t k, int i) { return pv<T>(kSeedA, i, k); };
  const auto b_row = [](index_t k, int j) { return pv<T>(kSeedB, k, j); };
  const auto next_row = [nr](index_t k, int j) {
    return pv<T>(kSeedB, k, nr + j);
  };
  std::vector<T> abuf, bbuf, cbuf, side, side_next;
  std::vector<double> dot(static_cast<std::size_t>(mr * nr));
  for (const index_t kc : cs.kcs) {
    // Absolute tolerance for values in [-1, 1): generous enough for any
    // FMA/reassociation scheme, tight enough that a wrong lane mapping (the
    // realistic miscompile) fails by orders of magnitude.
    const double tol = (static_cast<double>(kc) + 16.0) * 8.0 *
                       (sizeof(T) == sizeof(float) ? 1e-6 : 1e-14);
    // The reference dot products, formed once per kc for every tile.
    for (int i = 0; i < mr; ++i)
      for (int j = 0; j < nr; ++j) {
        double sum = 0.0;
        for (index_t k = 0; k < kc; ++k)
          sum += static_cast<double>(a_col(k, i)) *
                 static_cast<double>(b_row(k, j));
        dot[i * nr + j] = sum;
      }
    for (const TileCase& tc : cs.tiles) {
      const index_t lda = lay_a(cs.a, mr, tc.m_eff, kc, abuf);
      const index_t ldb = lay_b(tc.b, nr, tc.n_eff, tc.ahead, kc, bbuf);
      // A kernel reading an already packed B sliver (fused NN without
      // pack_cur) packs nothing. Side-output slots start as canary, so a
      // gap in the packed output shows.
      const bool packs = cs.side == Side::kPackA ||
                         (cs.side == Side::kPackB && tc.b != Access::kPacked);
      for (const AlphaBeta& ab : cs.abs) {
        side.assign(!packs                    ? 0
                    : cs.side == Side::kPackA ? kc * mr + ukr::kPackSlackElems
                                              : kc * nr,
                    kSentinel<T>);
        side_next.assign(tc.ahead ? kc * nr : 0, kSentinel<T>);
        cbuf.assign(static_cast<std::size_t>(mr * ldc), kSentinel<T>);
        for (int i = 0; i < tc.m_eff; ++i)
          for (int j = 0; j < tc.n_eff; ++j)
            cbuf[i * ldc + j] = ab.beta == 0.0
                                    ? std::numeric_limits<T>::quiet_NaN()
                                    : pv<T>(kSeedC, i, j);

        run({tc.m_eff, tc.n_eff, kc, abuf.data(), lda, bbuf.data(), ldb, tc.b,
             tc.ahead ? bbuf.data() + nr : nullptr,
             packs ? side.data() : nullptr,
             tc.ahead ? side_next.data() : nullptr, cbuf.data(), ldc,
             static_cast<T>(ab.alpha), static_cast<T>(ab.beta)});

        const auto ref = [&](int i, int j) {
          const double c0 = ab.beta == 0.0 ? 0.0 : pv<T>(kSeedC, i, j);
          return ab.alpha * dot[i * nr + j] + ab.beta * c0;
        };
        if (!check_c(cbuf, ldc, mr, tc.m_eff, tc.n_eff, tol, ref))
          return false;
        if (!(cs.side == Side::kPackA
                  ? sliver_ok(side, kc, mr, tc.m_eff, a_col)
                  : sliver_ok(side, kc, nr, tc.n_eff, b_row)) ||
            !sliver_ok(side_next, kc, nr, nr, next_row))
          return false;
      }
    }
  }
  return true;
}

template <int I>
void run_tile(const Tile<row_t<I>>& t) {
  constexpr VariantRow r = kVariants[I];
  using T = row_t<I>;
  if constexpr (r.kind == Kind::kMain || r.kind == Kind::kEdge) {
    ukr::run_main_tile<T, static_cast<ukr::AAccess>(r.a),
                       static_cast<ukr::BAccess>(r.b), r.width>(
        t.m_eff, t.n_eff, t.kc, t.a, t.lda, t.b, t.ldb, t.c, t.ldc, t.alpha,
        t.beta);
  } else if constexpr (r.kind == Kind::kFusedNn) {
    ukr::run_fused_pack_nn<T>(t.b_access == Access::kDirect,
                              t.b_next != nullptr, t.n_eff, t.kc, t.a, t.lda,
                              t.b, t.ldb, t.side, t.b_next, t.ldb,
                              t.side_next, t.c, t.ldc, t.alpha, t.beta);
  } else if constexpr (r.kind == Kind::kFusedTn) {
    ukr::run_fused_pack_tn<T>(t.b_access == Access::kPacked, t.n_eff, t.kc,
                              t.a, t.lda, t.side, t.b, t.ldb, t.c, t.ldc,
                              t.alpha, t.beta);
  } else {  // Kind::kFusedNt
    // As core/plan.cpp does: zero an edge sliver, then pack its column
    // groups of (up to) 3.
    if (t.n_eff < ukr::kNrFull<T>)
      std::fill(t.side, t.side + t.kc * ukr::kNrFull<T>, T{0});
    for (int jofs = 0; jofs < t.n_eff; jofs += 3) {
      const int w = std::min(3, t.n_eff - jofs);
      ukr::run_fused_pack_nt<T>(w, t.kc, t.a, t.lda, t.b, t.ldb, t.side,
                                jofs, ukr::kNrFull<T>, jofs + w < t.n_eff,
                                t.c, t.ldc, t.alpha, t.beta);
    }
  }
}

// Every row's runner, instantiated once for the probe table and the tests.
#define SHALOM_RUN_TILE(id, ...)                          \
  template void run_tile<static_cast<int>(Variant::id)>( \
      const Tile<row_t<static_cast<int>(Variant::id)>>&);
SHALOM_SELFCHECK_VARIANTS(SHALOM_RUN_TILE)
#undef SHALOM_RUN_TILE

template bool run_cases<float>(const Cases&, Runner<float>);
template bool run_cases<double>(const Cases&, Runner<double>);

}  // namespace probe

namespace {

// ---------------------------------------------------------------------------
// Per-variant state and probe dispatch
// ---------------------------------------------------------------------------

// One recovery latch per variant (common/health.h), carrying the verdict
// and its cause: HEALTHY while the variant may be dispatched, DEGRADED
// for a recoverable quarantine (mismatch, injected), QUARANTINED for
// trap evidence. A variant latch never enters PROBATION: the kKernels
// registry row gates the re-probes (try_recover_quarantined).
health::Latch g_latch[kVariantCount];

// Set once a verdict stands (a probe published, or a guard rail
// quarantined the variant): tells a never-probed HEALTHY variant from a
// verified one. Released after the latch transition it follows, so a
// reader that acquires it and then loads the latch sees that verdict.
std::atomic<bool> g_decided[kVariantCount];

/// The probe of list row I: its case-table row through its runner.
template <int I>
bool probe_row() {
  return probe::run_cases<probe::row_t<I>>(probe::row_cases<I>(),
                                           &probe::run_tile<I>);
}

constexpr auto kProbes = []<int... I>(std::integer_sequence<int, I...>) {
  return std::array<bool (*)(), sizeof...(I)>{&probe_row<I>...};
}(std::make_integer_sequence<int, kVariantCount>{});

/// The actual probe computation for a variant: any exception escaping a
/// probe (it should not happen - probes only touch local vectors) is a
/// failed probe, never a crash in dispatch.
bool probe_body(Variant v) noexcept {
  try {
    return kProbes[static_cast<std::size_t>(v)]();
  } catch (...) {
  }
  return false;
}

/// Test-only probe replacement (set_probe_body_for_testing); nullptr
/// means the real probe_body above. Lock-free hand-off, so explicit
/// relaxed orders per the lint discipline.
std::atomic<bool (*)(Variant)> g_probe_override{nullptr};

/// Context threaded through the trap scope. run_trapped takes a plain
/// function pointer (a trap must not unwind through std::function
/// internals), so the variant and verdict travel in this POD.
struct TrapProbeCtx {
  Variant v;
  bool (*body)(Variant);
  bool ok;
};

void run_probe_trampoline(void* p) {
  TrapProbeCtx* ctx = static_cast<TrapProbeCtx*>(p);
  ctx->ok = ctx->body(ctx->v);
}

/// One full probe of a variant, executed inside a guard trap scope: a
/// kernel that raises SIGILL/SIGSEGV/SIGBUS/SIGFPE during its probe is
/// contained and reported as a failed probe (which the caller turns into
/// a quarantine verdict) instead of killing the process. Counts toward
/// selfchecks_run; the selfcheck.probe fault site forces a plain failure
/// and the guard.trap site a simulated trap. `cause` reports which of the
/// three distinguishable failure modes fired (kInjected for the fault
/// site, kTrap for a contained trap, kMismatch for a divergent result);
/// untouched when the probe passes.
bool run_probe(Variant v, health::Cause* cause) noexcept {
  telemetry::note(Counter::kSelfchecksRun);
  if (SHALOM_FAULT_POINT(fault::Site::kSelfcheckProbe)) {
    *cause = health::Cause::kInjected;
    return false;
  }

  TrapProbeCtx ctx;
  ctx.v = v;
  ctx.body = g_probe_override.load(std::memory_order_relaxed);
  if (ctx.body == nullptr) ctx.body = probe_body;
  ctx.ok = false;

  const guard::TrapOutcome trap =
      guard::run_trapped(run_probe_trampoline, &ctx);
  if (trap.trapped) {
    telemetry::note(Counter::kKernelsTrapped);
    *cause = health::Cause::kTrap;
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "kernel variant '%s' raised %s inside its trap-contained "
                  "selfcheck probe",
                  variant_name(v), guard::signal_name(trap.signal));
    shalom::detail::set_last_error(SHALOM_ERR_KERNEL_TRAP, msg);
    std::fprintf(stderr, "shalom: selfcheck: %s; quarantining\n", msg);
    return false;
  }
  if (!ctx.ok) *cause = health::Cause::kMismatch;
  return ctx.ok;
}

/// Records failure evidence against `v`: a mismatch or an injected fault
/// degrades its latch (recoverable), any other cause quarantines it for
/// good. True for the one call that took `v` out of HEALTHY, which counts
/// the quarantine and reports it to the kKernels row.
bool latch_failure(Variant v, health::Cause cause) noexcept {
  health::Latch& l = g_latch[static_cast<int>(v)];
  const bool recoverable =
      cause == health::Cause::kMismatch || cause == health::Cause::kInjected;
  if (!(recoverable ? l.degrade(cause) : l.quarantine(cause))) return false;
  telemetry::note(Counter::kKernelsQuarantined);
  health::report_degraded(health::Component::kKernels, cause);
  return true;
}

/// Runs the probe and publishes the verdict. Concurrent first callers may
/// both probe (harmless: probes are pure); a failure outranks a clean
/// probe, and the latch lets only one call count and report it.
void probe_and_publish(Variant v) noexcept {
  health::Cause cause = health::Cause::kNone;
  if (!run_probe(v, &cause) && latch_failure(v, cause))
    std::fprintf(stderr,
                 "shalom: selfcheck: probe failed for kernel variant "
                 "'%s' (cause: %s); quarantined (dispatch re-routes to "
                 "a verified fallback)\n",
                 variant_name(v), health::cause_name(cause));
  g_decided[static_cast<int>(v)].store(true, std::memory_order_release);
}

}  // namespace

const char* variant_name(Variant v) noexcept {
  const int i = static_cast<int>(v);
  return (i >= 0 && i < kVariantCount) ? kVariants[i].name : "unknown";
}

Status status(Variant v) noexcept {
  const int i = static_cast<int>(v);
  const bool decided = g_decided[i].load(std::memory_order_acquire);
  if (g_latch[i].state() != health::State::kHealthy)
    return Status::kQuarantined;
  return decided ? Status::kVerified : Status::kUnknown;
}

health::Cause quarantine_cause(Variant v) noexcept {
  const health::Latch& l = g_latch[static_cast<int>(v)];
  return l.state() == health::State::kHealthy ? health::Cause::kNone
                                              : l.cause();
}

bool variant_ok(Variant v) noexcept {
  const int i = static_cast<int>(v);
  if (!g_decided[i].load(std::memory_order_acquire)) probe_and_publish(v);
  const health::Latch& l = g_latch[i];
  if (l.state() == health::State::kHealthy) return true;
  // Passive on-path recovery: dispatching a quarantined variant is
  // already the slow path, so it doubles as the probation trigger.
  // try_recover_quarantined() early-outs on one state load until the
  // registry cool-down elapses; when it fires it probes trap-contained
  // and may restore this very variant for the current call.
  return try_recover_quarantined() && l.state() == health::State::kHealthy;
}

int run_all() noexcept {
  int quarantined = 0;
  for (int i = 0; i < kVariantCount; ++i)
    if (!variant_ok(static_cast<Variant>(i))) ++quarantined;
  return quarantined;
}

void quarantine(Variant v, health::Cause cause) noexcept {
  // Overrides whatever verdict stands (including a verified one: the
  // guard rail saw the variant misbehave in production, which outranks
  // its probe), and decides a never-probed variant.
  if (latch_failure(v, cause))
    std::fprintf(stderr,
                 "shalom: guard: kernel variant '%s' quarantined after a "
                 "guard-rail violation (cause: %s; dispatch re-routes to "
                 "a verified fallback)\n",
                 variant_name(v), health::cause_name(cause));
  g_decided[static_cast<int>(v)].store(true, std::memory_order_release);
}

namespace {

/// The kernels component's probation probe: re-probes every variant in
/// a recoverable quarantine (a DEGRADED latch; QUARANTINED is terminal)
/// and restores the ones with a clean streak. True when no quarantined
/// variant remains.
bool probe_quarantined_variants() noexcept {
  using health::Cause;
  const long streak = health::env_probation_n();
  for (int i = 0; i < kVariantCount; ++i) {
    health::Latch& l = g_latch[i];
    if (l.state() != health::State::kDegraded) continue;
    const Variant v = static_cast<Variant>(i);
    const Cause was = l.cause();
    bool clean = true;
    Cause cause = Cause::kNone;
    for (long p = 0; p < streak && clean; ++p)
      clean = !health::probe_faulted() && run_probe(v, &cause);
    if (!clean) {
      // The re-probe itself failed: the quarantine stays and records the
      // latest evidence (a variant that now traps becomes permanent).
      if (cause != Cause::kNone) (void)latch_failure(v, cause);
    } else if (l.recover()) {  // fails if trap evidence arrived meanwhile
      std::fprintf(stderr,
                   "shalom: selfcheck: kernel variant '%s' restored after "
                   "%ld clean probation probes (was quarantined: %s)\n",
                   variant_name(v), streak, health::cause_name(was));
    }
  }

  // Component verdict: HEALTHY only when no quarantined variants remain
  // (permanently trap-quarantined variants keep the component degraded,
  // with the exponential backoff capping the residual probe traffic).
  for (const health::Latch& l : g_latch)
    if (l.state() != health::State::kHealthy) return false;
  return true;
}

}  // namespace

bool try_recover_quarantined() noexcept {
  return health::run_probation(health::Component::kKernels,
                               &probe_quarantined_variants);
}

void set_probe_body_for_testing(bool (*fn)(Variant)) noexcept {
  g_probe_override.store(fn, std::memory_order_relaxed);
}

void reset_for_testing() noexcept {
  for (int i = 0; i < kVariantCount; ++i) {
    g_latch[i].reset();
    g_decided[i].store(false, std::memory_order_release);
  }
}

namespace {

/// Registers the kernels component's recovery hook so
/// shalom_recover_now() drives the same probation sweep the passive
/// variant_ok path uses.
struct KernelHealthHookInit {
  KernelHealthHookInit() noexcept {
    health::set_recover_hook(health::Component::kKernels,
                             &try_recover_quarantined);
  }
} g_kernel_health_hook_init;

/// SHALOM_SELFTEST=1 runs the eager sweep at static-init time, before any
/// GEMM can dispatch an unverified kernel.
struct SelftestEnvInit {
  SelftestEnvInit() noexcept {
    const char* v = env::raw("SHALOM_SELFTEST");
    if (v == nullptr || *v == '\0') return;
    const bool truthy = env::ieq(v, "1") || env::ieq(v, "on") ||
                        env::ieq(v, "yes") || env::ieq(v, "true");
    const bool falsy = env::ieq(v, "0") || env::ieq(v, "off") ||
                       env::ieq(v, "no") || env::ieq(v, "false");
    if (truthy) {
      // Cross-TU static-init order is unspecified: fault.cpp's own
      // SHALOM_FAULT parser may not have run yet, so re-arm here to keep
      // eager selftests deterministic under injection (idempotent).
      if (const char* f = env::raw("SHALOM_FAULT"))
        fault::arm_from_spec(f);
      run_all();
    } else if (!falsy) {
      env::warn_malformed("SHALOM_SELFTEST", v,
                          "0|1|on|off|yes|no|true|false");
    }
  }
} g_selftest_env_init;

}  // namespace

}  // namespace selfcheck

namespace numerics {

Policy env_policy() noexcept {
  static const Policy policy = [] {
    const char* v = env::raw("SHALOM_CHECK_NUMERICS");
    if (v == nullptr || *v == '\0') return Policy::kIgnore;
    if (env::ieq(v, "ignore") || env::ieq(v, "off") || env::ieq(v, "0") ||
        env::ieq(v, "no") || env::ieq(v, "false"))
      return Policy::kIgnore;
    if (env::ieq(v, "count")) return Policy::kCount;
    if (env::ieq(v, "fail") || env::ieq(v, "on") || env::ieq(v, "1") ||
        env::ieq(v, "yes") || env::ieq(v, "true"))
      return Policy::kFail;
    env::warn_malformed("SHALOM_CHECK_NUMERICS", v, "ignore|count|fail");
    return Policy::kIgnore;
  }();
  return policy;
}

}  // namespace numerics
}  // namespace shalom
