// Runtime kernel self-verification, quarantine state, and the opt-in
// numerical guard.
//
// Dispatch multiplies kernel variants: MainTable (core/dispatch.h) holds 42
// 128-bit kern_main instantiations per element type and access pair,
// covering the 83 FP32 / 41 FP64 remainder tiles with the tail's lane count
// passed at run time; the 256- and 512-bit FP32 packed-packed families
// (36 and 30 instantiations, every remainder of the 9x16 and 15x16 tiles)
// and the fused pack hooks and fused NT kernel come on top. A single
// miscompiled variant corrupts results silently, so every variant family
// is probed against a double-precision reference on small deterministic
// tiles (selfcheck_probe.h; an edge row runs every remainder tile, so
// every kern_main instantiation without a pack hook is probed), and a
// variant that fails is *quarantined*: dispatch and plan building route
// around it to the next-best verified kernel (ultimately scalar).
//
// The variant set is one list (SHALOM_SELFCHECK_VARIANTS below): each row
// names a family's id, kind, element type, vector width and operand
// accesses, and the enum, the names, the probe dispatch and the dispatch
// layer's (kind, type, width, access) -> id lookups are generated from it.
//
// Probing is lazy by default (first dispatch of a variant pays one probe,
// whose verdict the variant's health::Latch keeps) or eager via run_all() /
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

/// What a variant's kernels compute: the kern_main full tile or its
/// remainder-tile (edge) instantiations, at one vector width (Section
/// 5.5), or one of the fused pack-and-compute kernels (Section 5.3).
enum class Kind : int { kMain, kEdge, kFusedNn, kFusedNt, kFusedTn };

enum class Dtype : int { kF32, kF64 };

/// How a variant reads one operand: in place, from a packed sliver, or in
/// place transposed. A kAny B column marks a family whose probe covers
/// every B access (fused-tn).
enum class Access : int { kDirect, kPacked, kTrans, kAny };

/// The variant list: one row per probe-able kernel family, i.e. one
/// quarantine unit (a probe failure disables the whole family, e.g. all
/// FP32 packed-packed edge instantiations - the granularity dispatch can
/// route around). Columns: enum id, stable name, kind, element type,
/// vector width in bits, A access, B access. The Variant enum, the names,
/// the probe dispatch (selfcheck.cpp) and the dispatch layer's id lookups
/// (core/dispatch.h) are all generated from it.
#define SHALOM_SELFCHECK_VARIANTS(X)                                        \
  X(kMainF32DirectDirect, "main.f32.direct-direct", kMain, kF32, 128,     \
    kDirect, kDirect)                                                       \
  X(kMainF32DirectPacked, "main.f32.direct-packed", kMain, kF32, 128,     \
    kDirect, kPacked)                                                       \
  X(kMainF32PackedDirect, "main.f32.packed-direct", kMain, kF32, 128,     \
    kPacked, kDirect)                                                       \
  X(kMainF32PackedPacked, "main.f32.packed-packed", kMain, kF32, 128,     \
    kPacked, kPacked)                                                       \
  X(kMainF32TransDirect, "main.f32.trans-direct", kMain, kF32, 128, kTrans, \
    kDirect)                                                                \
  X(kMainF64DirectDirect, "main.f64.direct-direct", kMain, kF64, 128,     \
    kDirect, kDirect)                                                       \
  X(kMainF64DirectPacked, "main.f64.direct-packed", kMain, kF64, 128,     \
    kDirect, kPacked)                                                       \
  X(kMainF64PackedDirect, "main.f64.packed-direct", kMain, kF64, 128,     \
    kPacked, kDirect)                                                       \
  X(kMainF64PackedPacked, "main.f64.packed-packed", kMain, kF64, 128,     \
    kPacked, kPacked)                                                       \
  X(kMainF64TransDirect, "main.f64.trans-direct", kMain, kF64, 128, kTrans, \
    kDirect)                                                                \
  X(kEdgeF32DirectDirect, "edge.f32.direct-direct", kEdge, kF32, 128,     \
    kDirect, kDirect)                                                       \
  X(kEdgeF32DirectPacked, "edge.f32.direct-packed", kEdge, kF32, 128,     \
    kDirect, kPacked)                                                       \
  X(kEdgeF32PackedDirect, "edge.f32.packed-direct", kEdge, kF32, 128,     \
    kPacked, kDirect)                                                       \
  X(kEdgeF32PackedPacked, "edge.f32.packed-packed", kEdge, kF32, 128,     \
    kPacked, kPacked)                                                       \
  X(kEdgeF32TransDirect, "edge.f32.trans-direct", kEdge, kF32, 128, kTrans, \
    kDirect)                                                                \
  X(kEdgeF64DirectDirect, "edge.f64.direct-direct", kEdge, kF64, 128,     \
    kDirect, kDirect)                                                       \
  X(kEdgeF64DirectPacked, "edge.f64.direct-packed", kEdge, kF64, 128,     \
    kDirect, kPacked)                                                       \
  X(kEdgeF64PackedDirect, "edge.f64.packed-direct", kEdge, kF64, 128,     \
    kPacked, kDirect)                                                       \
  X(kEdgeF64PackedPacked, "edge.f64.packed-packed", kEdge, kF64, 128,     \
    kPacked, kPacked)                                                       \
  X(kEdgeF64TransDirect, "edge.f64.trans-direct", kEdge, kF64, 128, kTrans, \
    kDirect)                                                                \
  X(kFusedNnF32, "fused-nn.f32", kFusedNn, kF32, 128, kDirect, kDirect)     \
  X(kFusedNnF64, "fused-nn.f64", kFusedNn, kF64, 128, kDirect, kDirect)     \
  X(kFusedNtF32, "fused-nt.f32", kFusedNt, kF32, 128, kDirect, kTrans)      \
  X(kFusedNtF64, "fused-nt.f64", kFusedNt, kF64, 128, kDirect, kTrans)      \
  X(kFusedTnF32, "fused-tn.f32", kFusedTn, kF32, 128, kTrans, kAny)         \
  X(kFusedTnF64, "fused-tn.f64", kFusedTn, kF64, 128, kTrans, kAny)         \
  X(kMainF32PackedPacked256, "main.f32.packed-packed.256", kMain, kF32, 256, \
    kPacked, kPacked)                                                       \
  X(kEdgeF32PackedPacked256, "edge.f32.packed-packed.256", kEdge, kF32, 256, \
    kPacked, kPacked)                                                       \
  X(kMainF32PackedPacked512, "main.f32.packed-packed.512", kMain, kF32, 512, \
    kPacked, kPacked)                                                       \
  X(kEdgeF32PackedPacked512, "edge.f32.packed-packed.512", kEdge, kF32, 512, \
    kPacked, kPacked)

/// Every probe-able kernel family, in list order (the per-variant state
/// in selfcheck.cpp is indexed by the enum value).
enum class Variant : int {
#define SHALOM_VARIANT_ID(id, name, kind, dtype, width, a, b) id,
  SHALOM_SELFCHECK_VARIANTS(SHALOM_VARIANT_ID)
#undef SHALOM_VARIANT_ID
};

/// The columns of one list row; kVariants[v] is the row of Variant v.
struct VariantRow {
  const char* name;
  Kind kind;
  Dtype dtype;
  int width;
  Access a, b;
};

inline constexpr VariantRow kVariants[] = {
#define SHALOM_VARIANT_ROW(id, name, kind, dtype, width, a, b) \
  {name, Kind::kind, Dtype::dtype, width, Access::a, Access::b},
    SHALOM_SELFCHECK_VARIANTS(SHALOM_VARIANT_ROW)
#undef SHALOM_VARIANT_ROW
};

inline constexpr int kVariantCount =
    static_cast<int>(sizeof kVariants / sizeof kVariants[0]);

/// Index of the row with these columns, or -1 when no row has them.
constexpr int find_variant(Kind kind, Dtype dtype, int width, Access a,
                           Access b) {
  for (int i = 0; i < kVariantCount; ++i) {
    const VariantRow& r = kVariants[i];
    if (r.kind == kind && r.dtype == dtype && r.width == width &&
        r.a == a && (r.b == b || r.b == Access::kAny))
      return i;
  }
  return -1;
}

/// Per-variant verification state, derived from the variant's
/// health::Latch: kQuarantined while it is DEGRADED (a recoverable cause)
/// or QUARANTINED (trap evidence), otherwise kVerified once a verdict
/// stands and kUnknown before. The first variant_ok() / run_all() that
/// reaches a kUnknown variant decides its verdict. A quarantine verdict
/// is permanent when recovery is disabled (SHALOM_RECOVERY_MS=0) or the
/// cause is a contained hardware trap; otherwise the recovery layer
/// (common/health.h) may re-probe the variant after its cool-down and
/// restore it on a clean probe streak.
enum class Status : int {
  kUnknown = 0,
  kVerified = 1,
  kQuarantined = 2,
};

/// Stable human-readable name ("main.f32.packed-packed",
/// "edge.f32.packed-packed.256", ...); never NULL.
const char* variant_name(Variant v) noexcept;

/// Current state without triggering a probe.
Status status(Variant v) noexcept;

/// Why `v` is quarantined: health::Cause::kMismatch for a probe result
/// that diverged from the scalar oracle, kTrap for a contained hardware
/// trap or guard-rail violation, kInjected for a fault-site firing, kNone
/// while the variant is not quarantined. Makes a trapped kernel and a
/// 1-ulp mismatch distinguishable after the fact (and decides
/// recoverability: trap-cause quarantines are permanent).
health::Cause quarantine_cause(Variant v) noexcept;

/// True when the variant may be dispatched. Probes lazily on the first
/// call per variant (thread-safe: concurrent first calls may both probe;
/// a failed probe outranks a clean one and is counted once). A
/// quarantined variant stays quarantined until the recovery layer
/// restores it; callers must route to a verified fallback.
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
/// quarantine counter and diagnostic fire only when the variant leaves
/// service. The default cause (kTrap: positive corruption evidence)
/// makes the quarantine terminal, also over a recoverable quarantine
/// whose re-probe is under way; pass a recoverable cause (kMismatch,
/// kInjected) only when the evidence is a probe-style failure.
void quarantine(Variant v,
                health::Cause cause = health::Cause::kTrap) noexcept;

/// One recovery pass over the quarantined variants (the health-registry
/// hook for health::Component::kKernels, reachable through
/// shalom_recover_now, and invoked passively from variant_ok on
/// quarantined variants once the cool-down elapses). Re-probes every
/// variant whose quarantine cause is recoverable (mismatch/injected -
/// never trap) trap-contained via guard::run_trapped;
/// SHALOM_PROBATION_N consecutive clean probes restore a variant to
/// kVerified unless trap evidence arrived while it was being re-probed.
/// Returns true when the kernels component ends the pass HEALTHY. No-op
/// returning false while the registry cool-down is still pending or
/// recovery is disabled.
bool try_recover_quarantined() noexcept;

/// Replaces the probe implementation for every subsequent probe (nullptr
/// restores the real probes). Test-only: lets the suite register a
/// deliberately crashing "kernel" so trap containment is exercised with a
/// real hardware trap, not just the fault site.
void set_probe_body_for_testing(bool (*fn)(Variant)) noexcept;

/// Clears all verdicts back to kUnknown. Test-only: production code must
/// treat quarantine as permanent. Callers holding plans must rebuild them
/// (plans snapshot quarantine decisions at build time).
void reset_for_testing() noexcept;

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
