// Runtime kernel self-verification, quarantine state, and the opt-in
// numerical guard.
//
// The dispatch layer multiplies kernel variants aggressively (main tile,
// 83 FP32 edge instantiations, fused pack-and-compute NN/NT/TN paths,
// wide-vector tiles), and a single miscompiled or misdispatched variant
// produces silent numeric corruption rather than an error. This module
// closes that hole: every variant family can be probed against the scalar
// reference on small deterministic inputs, and a variant that fails its
// probe is *quarantined* - dispatch and plan building permanently route
// around it to the next-best verified kernel (ultimately scalar).
//
// Probing is lazy by default (first dispatch of a variant pays one probe,
// cached in a per-variant atomic tri-state) or eager via run_all() /
// shalom_selftest() / SHALOM_SELFTEST=1. Probes are observable through
// RobustnessStats (selfchecks_run, kernels_quarantined) and injectable
// through fault::Site::kSelfcheckProbe, which is how the test suite forces
// quarantine and proves the re-routing is bitwise-safe.
//
// This header is deliberately lightweight (no core/ includes): core
// headers include it to consult quarantine state inside dispatch.
#pragma once

#include <cmath>

#include "common/health.h"
#include "common/matrix.h"

namespace shalom {

namespace selfcheck {

/// Every probe-able kernel family. One entry is one quarantine unit: a
/// probe failure disables the whole family (e.g. all FP32 packed-packed
/// edge instantiations), which is the granularity dispatch can route
/// around. Order is load-bearing: edge variant = main variant +
/// kMainFamilyCount, and the g_state table in selfcheck.cpp is indexed by
/// the enum value. Append only.
enum class Variant : int {
  // Main (mr x nr full-tile) kernels, by (A access, B access).
  kMainF32DirectDirect = 0,
  kMainF32DirectPacked = 1,
  kMainF32PackedDirect = 2,
  kMainF32PackedPacked = 3,
  kMainF32TransDirect = 4,  // covers both B accesses of the trans-A path
  kMainF64DirectDirect = 5,
  kMainF64DirectPacked = 6,
  kMainF64PackedDirect = 7,
  kMainF64PackedPacked = 8,
  kMainF64TransDirect = 9,
  // Edge (remainder-tile) instantiations of the same families.
  kEdgeF32DirectDirect = 10,
  kEdgeF32DirectPacked = 11,
  kEdgeF32PackedDirect = 12,
  kEdgeF32PackedPacked = 13,
  kEdgeF32TransDirect = 14,
  kEdgeF64DirectDirect = 15,
  kEdgeF64DirectPacked = 16,
  kEdgeF64PackedDirect = 17,
  kEdgeF64PackedPacked = 18,
  kEdgeF64TransDirect = 19,
  // Fused pack-and-compute kernels (paper Section 5.3).
  kFusedNnF32 = 20,
  kFusedNnF64 = 21,
  kFusedNtF32 = 22,
  kFusedNtF64 = 23,
  kFusedTnF32 = 24,
  kFusedTnF64 = 25,
  // Wide-vector tiles (paper Section 5.5; simd/vecwide.h).
  kWide128 = 26,
  kWide256 = 27,
  kWide512 = 28,
};

inline constexpr int kVariantCount = 29;
/// Distance from a main-family variant to its edge-family sibling.
inline constexpr int kMainFamilyCount = 10;

/// Per-variant verification state. kUnknown means the variant has never
/// been probed; the first variant_ok() / run_all() that reaches it decides
/// the verdict. A quarantine verdict is permanent when recovery is
/// disabled (SHALOM_RECOVERY_MS=0) or the cause is a contained hardware
/// trap; otherwise the recovery layer (common/health.h) may re-probe the
/// variant after its cool-down and restore it on a clean probe streak.
enum class Status : int {
  kUnknown = 0,
  kVerified = 1,
  kQuarantined = 2,
};

/// Stable human-readable name ("main.f32.packed-packed", "wide.256", ...);
/// never NULL.
const char* variant_name(Variant v) noexcept;

/// Current state without triggering a probe.
Status status(Variant v) noexcept;

/// Why `v` is (or was last) quarantined: health::Cause::kMismatch for a
/// probe result that diverged from the scalar oracle, kTrap for a
/// contained hardware trap or guard-rail violation, kInjected for a
/// fault-site firing, kNone for a variant never quarantined. Makes a
/// trapped kernel and a 1-ulp mismatch distinguishable after the fact
/// (and decides recoverability: trap-cause quarantines are permanent).
health::Cause quarantine_cause(Variant v) noexcept;

/// True when the variant may be dispatched. Probes lazily on the first
/// call per variant (thread-safe: concurrent first calls may both probe,
/// but exactly one verdict is published). A quarantined variant stays
/// quarantined; callers must route to a verified fallback.
bool variant_ok(Variant v) noexcept;

/// Eagerly probes every variant (the shalom_selftest() backend). Returns
/// the number of variants in the quarantined state afterwards. Idempotent:
/// already-decided variants are not re-probed.
int run_all() noexcept;

/// Forces `v` into the quarantined state regardless of any earlier
/// verdict. This is the guard-rail entry point: when post-execution
/// evidence proves a variant misbehaved (a trapped kernel, a violated
/// arena canary - see common/guard.h), the probe verdict is overridden
/// and dispatch permanently routes around the variant. Idempotent; the
/// quarantine counter and diagnostic fire only on the transition. The
/// default cause (kTrap: positive corruption evidence) marks the
/// quarantine permanent; pass a recoverable cause only when the evidence
/// is a probe-style failure.
void quarantine(Variant v,
                health::Cause cause = health::Cause::kTrap) noexcept;

/// One recovery pass over the quarantined variants (the health-registry
/// hook for health::Component::kKernels, reachable through
/// shalom_recover_now, and invoked passively from variant_ok on
/// quarantined variants once the cool-down elapses). Re-probes every
/// variant whose quarantine cause is recoverable (mismatch/injected -
/// never trap) trap-contained via guard::run_trapped;
/// SHALOM_PROBATION_N consecutive clean probes restore a variant to
/// kVerified. Returns true when the kernels component ends the pass
/// HEALTHY. No-op returning false while the registry cool-down is still
/// pending or recovery is disabled.
bool try_recover_quarantined() noexcept;

/// Replaces the probe implementation for every subsequent probe (nullptr
/// restores the real probes). Test-only: lets the suite register a
/// deliberately crashing "kernel" so trap containment is exercised with a
/// real hardware trap, not just the fault site.
void set_probe_body_for_testing(bool (*fn)(Variant)) noexcept;

/// Clears all verdicts back to kUnknown. Test-only: production code must
/// treat quarantine as permanent. Callers owning cached plans must also
/// invalidate them (plans snapshot quarantine decisions at build time).
void reset_for_testing() noexcept;

/// Maps a wide-vector width in bits to its variant id.
constexpr Variant wide_variant(int bits) {
  return bits == 512   ? Variant::kWide512
         : bits == 256 ? Variant::kWide256
                       : Variant::kWide128;
}

}  // namespace selfcheck

namespace numerics {

/// What the numerical guard does when it finds a NaN/Inf (see
/// Config::check_numerics and SHALOM_CHECK_NUMERICS).
enum class Policy : int {
  kIgnore = 0,  ///< guard disabled (the default; zero overhead)
  kCount = 1,   ///< bump RobustnessStats::numeric_anomalies, continue
  kFail = 2,    ///< throw shalom::numeric_error (C API: SHALOM_ERR_NUMERIC)
};

/// Policy from SHALOM_CHECK_NUMERICS (ignore|count|fail, parsed once;
/// malformed values warn and fall back to kIgnore). This is the default
/// value of Config::check_numerics.
Policy env_policy() noexcept;

/// Sampled non-finite scan of a rows x cols row-major block with leading
/// dimension ld. Scans everything up to 4096 elements, then a strided
/// sample (always including the last element) so huge operands stay cheap.
template <typename T>
bool has_nonfinite(const T* p, index_t rows, index_t cols,
                   index_t ld) noexcept {
  if (p == nullptr || rows <= 0 || cols <= 0) return false;
  const index_t total = rows * cols;
  constexpr index_t kSampleCap = 4096;
  const index_t step = total > kSampleCap ? (total + kSampleCap - 1) / kSampleCap : 1;
  for (index_t idx = 0; idx < total; idx += step) {
    const T v = p[(idx / cols) * ld + idx % cols];
    if (!std::isfinite(static_cast<double>(v))) return true;
  }
  const T last = p[(rows - 1) * ld + (cols - 1)];
  return !std::isfinite(static_cast<double>(last));
}

}  // namespace numerics
}  // namespace shalom
