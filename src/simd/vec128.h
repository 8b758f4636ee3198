// Portable 128-bit SIMD vectors: the register model of the paper.
//
// LibShalom's analytic kernel model (paper Eq. 1) is written against the
// ARMv8 NEON register file: 32 architectural 128-bit vector registers and a
// lane-indexed fused multiply-add (FMLA Vd.4S, Vn.4S, Vm.S[lane]).  This
// header reproduces exactly that instruction vocabulary behind two types:
//
//   f32x4  - four single-precision lanes (j = 4 in the paper's notation)
//   f64x2  - two double-precision lanes  (j = 2)
//
// Backends:
//   * AArch64 NEON    - the paper's target; FMLA maps 1:1.
//   * x86-64 SSE/FMA3 - the reproduction host.  128-bit XMM operations with
//     VFMADD; with AVX-512VL the architectural XMM file is also 32 registers,
//     so the paper's register-budget constraint holds unchanged.
//   * scalar          - portable fallback, used for differential testing.
//
// All functions are force-inlined wrappers; at -O3 each maps to a single
// instruction (plus a shuffle for lane broadcast on SSE, which NEON encodes
// inside FMLA).
//
// One op set serves every vector width (simd/vecwide.h adds 256 and 512
// bits under the same names). Ops taking a vector overload on its type;
// the ops that make a vector from memory or a scalar (load, load_partial,
// broadcast, zero_vec) take the width as a template argument, 128 by
// default: load(p) is a 128-bit load, load<512>(p) a 512-bit one.
//
// Partial access (load_partial / store_partial, the N-remainder tiles of
// paper Section 5.4): `count` is in [1, kLanes). Exactly the lanes below
// `count` are read or written; lanes from `count` up are never touched in
// memory, so an operand may end exactly at an unmapped page, and a partial
// load zero-fills them in the register. Per backend, chosen at compile
// time:
//   * x86 f32   - with AVX-512VL one masked MOVUPS, mask (1 << count) - 1;
//                 otherwise one VMASKMOVPS (the SSE backend already needs
//                 FMA, hence AVX). Masked-off lanes never fault in either.
//   * x86 f64   - MOVSD: with two lanes `count` is always 1.
//   * NEON      - per-lane LD1/ST1 {Vt.S}[lane].
//   * scalar    - element copies through a lane array on the stack.
// The loaded values equal the plain element loads bit for bit, so the
// partial path changes no result.
#pragma once

#include <cstddef>
#include <cstring>

#if defined(__aarch64__)
#define SHALOM_SIMD_NEON 1
#include <arm_neon.h>
#elif defined(__SSE2__)
#define SHALOM_SIMD_SSE 1
#include <immintrin.h>
#else
#define SHALOM_SIMD_SCALAR 1
#endif

#define SHALOM_INLINE inline __attribute__((always_inline))

namespace shalom::simd {

// ---------------------------------------------------------------------------
// f32x4
// ---------------------------------------------------------------------------
struct f32x4 {
  static constexpr int kLanes = 4;
  using value_type = float;

#if defined(SHALOM_SIMD_NEON)
  float32x4_t v;
#elif defined(SHALOM_SIMD_SSE)
  __m128 v;
#else
  float v[4];
#endif
};

SHALOM_INLINE f32x4 zero_f32x4() {
#if defined(SHALOM_SIMD_NEON)
  return {vdupq_n_f32(0.f)};
#elif defined(SHALOM_SIMD_SSE)
  return {_mm_setzero_ps()};
#else
  return {{0.f, 0.f, 0.f, 0.f}};
#endif
}

template <int Bits = 128>
  requires(Bits == 128)
SHALOM_INLINE f32x4 broadcast(float x) {
#if defined(SHALOM_SIMD_NEON)
  return {vdupq_n_f32(x)};
#elif defined(SHALOM_SIMD_SSE)
  return {_mm_set1_ps(x)};
#else
  return {{x, x, x, x}};
#endif
}

/// Unaligned 4-lane load (LDR Q / MOVUPS).
template <int Bits = 128>
  requires(Bits == 128)
SHALOM_INLINE f32x4 load(const float* p) {
#if defined(SHALOM_SIMD_NEON)
  return {vld1q_f32(p)};
#elif defined(SHALOM_SIMD_SSE)
  return {_mm_loadu_ps(p)};
#else
  f32x4 r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
#endif
}

SHALOM_INLINE void store(float* p, f32x4 x) {
#if defined(SHALOM_SIMD_NEON)
  vst1q_f32(p, x.v);
#elif defined(SHALOM_SIMD_SSE)
  _mm_storeu_ps(p, x.v);
#else
  std::memcpy(p, x.v, sizeof(x.v));
#endif
}

SHALOM_INLINE f32x4 add(f32x4 a, f32x4 b) {
#if defined(SHALOM_SIMD_NEON)
  return {vaddq_f32(a.v, b.v)};
#elif defined(SHALOM_SIMD_SSE)
  return {_mm_add_ps(a.v, b.v)};
#else
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3]}};
#endif
}

SHALOM_INLINE f32x4 mul(f32x4 a, f32x4 b) {
#if defined(SHALOM_SIMD_NEON)
  return {vmulq_f32(a.v, b.v)};
#elif defined(SHALOM_SIMD_SSE)
  return {_mm_mul_ps(a.v, b.v)};
#else
  return {{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2], a.v[3] * b.v[3]}};
#endif
}

/// acc + a * b with a single rounding (FMLA / VFMADD).
SHALOM_INLINE f32x4 fmadd(f32x4 acc, f32x4 a, f32x4 b) {
#if defined(SHALOM_SIMD_NEON)
  return {vfmaq_f32(acc.v, a.v, b.v)};
#elif defined(SHALOM_SIMD_SSE)
  return {_mm_fmadd_ps(a.v, b.v, acc.v)};
#else
  f32x4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = acc.v[i] + a.v[i] * b.v[i];
  return r;
#endif
}

/// acc + b * a[Lane]: the paper's scalar-vector FMA
/// (FMLA Vd.4S, Vb.4S, Va.S[Lane]).  On SSE the lane broadcast is an
/// explicit shuffle feeding VFMADD, which the OoO core executes on a
/// separate port from the FMA itself.
template <int Lane>
SHALOM_INLINE f32x4 fmadd_lane(f32x4 acc, f32x4 a, f32x4 b) {
  static_assert(Lane >= 0 && Lane < 4);
#if defined(SHALOM_SIMD_NEON)
  return {vfmaq_laneq_f32(acc.v, b.v, a.v, Lane)};
#elif defined(SHALOM_SIMD_SSE)
  const __m128 lane =
      _mm_shuffle_ps(a.v, a.v, _MM_SHUFFLE(Lane, Lane, Lane, Lane));
  return {_mm_fmadd_ps(lane, b.v, acc.v)};
#else
  f32x4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = acc.v[i] + a.v[Lane] * b.v[i];
  return r;
#endif
}

SHALOM_INLINE float reduce_add(f32x4 a) {
#if defined(SHALOM_SIMD_NEON)
  return vaddvq_f32(a.v);
#elif defined(SHALOM_SIMD_SSE)
  __m128 sh = _mm_movehdup_ps(a.v);
  __m128 sums = _mm_add_ps(a.v, sh);
  sh = _mm_movehl_ps(sh, sums);
  sums = _mm_add_ss(sums, sh);
  return _mm_cvtss_f32(sums);
#else
  return a.v[0] + a.v[1] + a.v[2] + a.v[3];
#endif
}

SHALOM_INLINE float extract(f32x4 a, int lane) {
#if defined(SHALOM_SIMD_NEON)
  float tmp[4];
  vst1q_f32(tmp, a.v);
  return tmp[lane];
#elif defined(SHALOM_SIMD_SSE)
  alignas(16) float tmp[4];
  _mm_store_ps(tmp, a.v);
  return tmp[lane];
#else
  return a.v[lane];
#endif
}

#if defined(SHALOM_SIMD_SSE) && !defined(__AVX512VL__)
/// VMASKMOVPS lane mask: the sign bit set in int32 lanes [0, count), clear
/// in the rest (all clear for count <= 0).
SHALOM_INLINE __m128i lane_mask4(int count) {
  return _mm_cmpgt_epi32(_mm_set1_epi32(count), _mm_setr_epi32(0, 1, 2, 3));
}
#endif

/// Loads `count` (1..3) lanes, zero-filling the rest: edge-column loads.
/// Reads p[0, count) only (see the partial-access contract above).
template <int Bits = 128>
  requires(Bits == 128)
SHALOM_INLINE f32x4 load_partial(const float* p, int count) {
#if defined(SHALOM_SIMD_NEON)
  float32x4_t v = vld1q_lane_f32(p, vdupq_n_f32(0.f), 0);
  if (count > 1) v = vld1q_lane_f32(p + 1, v, 1);
  if (count > 2) v = vld1q_lane_f32(p + 2, v, 2);
  return {v};
#elif defined(SHALOM_SIMD_SSE) && defined(__AVX512VL__)
  return {_mm_maskz_loadu_ps(static_cast<__mmask8>((1u << count) - 1), p)};
#elif defined(SHALOM_SIMD_SSE)
  return {_mm_maskload_ps(p, lane_mask4(count))};
#else
  float tmp[4] = {0.f, 0.f, 0.f, 0.f};
  for (int i = 0; i < count; ++i) tmp[i] = p[i];
  return load(tmp);
#endif
}

/// Stores the low `count` (1..3) lanes; writes p[0, count) only.
SHALOM_INLINE void store_partial(float* p, f32x4 x, int count) {
#if defined(SHALOM_SIMD_NEON)
  vst1q_lane_f32(p, x.v, 0);
  if (count > 1) vst1q_lane_f32(p + 1, x.v, 1);
  if (count > 2) vst1q_lane_f32(p + 2, x.v, 2);
#elif defined(SHALOM_SIMD_SSE) && defined(__AVX512VL__)
  _mm_mask_storeu_ps(p, static_cast<__mmask8>((1u << count) - 1), x.v);
#elif defined(SHALOM_SIMD_SSE)
  _mm_maskstore_ps(p, lane_mask4(count), x.v);
#else
  float tmp[4];
  store(tmp, x);
  for (int i = 0; i < count; ++i) p[i] = tmp[i];
#endif
}

// ---------------------------------------------------------------------------
// f64x2
// ---------------------------------------------------------------------------
struct f64x2 {
  static constexpr int kLanes = 2;
  using value_type = double;

#if defined(SHALOM_SIMD_NEON)
  float64x2_t v;
#elif defined(SHALOM_SIMD_SSE)
  __m128d v;
#else
  double v[2];
#endif
};

SHALOM_INLINE f64x2 zero_f64x2() {
#if defined(SHALOM_SIMD_NEON)
  return {vdupq_n_f64(0.0)};
#elif defined(SHALOM_SIMD_SSE)
  return {_mm_setzero_pd()};
#else
  return {{0.0, 0.0}};
#endif
}

template <int Bits = 128>
  requires(Bits == 128)
SHALOM_INLINE f64x2 broadcast(double x) {
#if defined(SHALOM_SIMD_NEON)
  return {vdupq_n_f64(x)};
#elif defined(SHALOM_SIMD_SSE)
  return {_mm_set1_pd(x)};
#else
  return {{x, x}};
#endif
}

template <int Bits = 128>
  requires(Bits == 128)
SHALOM_INLINE f64x2 load(const double* p) {
#if defined(SHALOM_SIMD_NEON)
  return {vld1q_f64(p)};
#elif defined(SHALOM_SIMD_SSE)
  return {_mm_loadu_pd(p)};
#else
  f64x2 r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
#endif
}

SHALOM_INLINE void store(double* p, f64x2 x) {
#if defined(SHALOM_SIMD_NEON)
  vst1q_f64(p, x.v);
#elif defined(SHALOM_SIMD_SSE)
  _mm_storeu_pd(p, x.v);
#else
  std::memcpy(p, x.v, sizeof(x.v));
#endif
}

SHALOM_INLINE f64x2 add(f64x2 a, f64x2 b) {
#if defined(SHALOM_SIMD_NEON)
  return {vaddq_f64(a.v, b.v)};
#elif defined(SHALOM_SIMD_SSE)
  return {_mm_add_pd(a.v, b.v)};
#else
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1]}};
#endif
}

SHALOM_INLINE f64x2 mul(f64x2 a, f64x2 b) {
#if defined(SHALOM_SIMD_NEON)
  return {vmulq_f64(a.v, b.v)};
#elif defined(SHALOM_SIMD_SSE)
  return {_mm_mul_pd(a.v, b.v)};
#else
  return {{a.v[0] * b.v[0], a.v[1] * b.v[1]}};
#endif
}

SHALOM_INLINE f64x2 fmadd(f64x2 acc, f64x2 a, f64x2 b) {
#if defined(SHALOM_SIMD_NEON)
  return {vfmaq_f64(acc.v, a.v, b.v)};
#elif defined(SHALOM_SIMD_SSE)
  return {_mm_fmadd_pd(a.v, b.v, acc.v)};
#else
  f64x2 r;
  for (int i = 0; i < 2; ++i) r.v[i] = acc.v[i] + a.v[i] * b.v[i];
  return r;
#endif
}

template <int Lane>
SHALOM_INLINE f64x2 fmadd_lane(f64x2 acc, f64x2 a, f64x2 b) {
  static_assert(Lane >= 0 && Lane < 2);
#if defined(SHALOM_SIMD_NEON)
  return {vfmaq_laneq_f64(acc.v, b.v, a.v, Lane)};
#elif defined(SHALOM_SIMD_SSE)
  const __m128d lane = _mm_shuffle_pd(a.v, a.v, Lane == 0 ? 0x0 : 0x3);
  return {_mm_fmadd_pd(lane, b.v, acc.v)};
#else
  f64x2 r;
  for (int i = 0; i < 2; ++i) r.v[i] = acc.v[i] + a.v[Lane] * b.v[i];
  return r;
#endif
}

SHALOM_INLINE double reduce_add(f64x2 a) {
#if defined(SHALOM_SIMD_NEON)
  return vaddvq_f64(a.v);
#elif defined(SHALOM_SIMD_SSE)
  const __m128d hi = _mm_unpackhi_pd(a.v, a.v);
  return _mm_cvtsd_f64(_mm_add_sd(a.v, hi));
#else
  return a.v[0] + a.v[1];
#endif
}

SHALOM_INLINE double extract(f64x2 a, int lane) {
#if defined(SHALOM_SIMD_NEON)
  double tmp[2];
  vst1q_f64(tmp, a.v);
  return tmp[lane];
#elif defined(SHALOM_SIMD_SSE)
  alignas(16) double tmp[2];
  _mm_store_pd(tmp, a.v);
  return tmp[lane];
#else
  return a.v[lane];
#endif
}

/// Loads lane 0 (`count` is always 1 for two lanes), zero-filling lane 1.
template <int Bits = 128>
  requires(Bits == 128)
SHALOM_INLINE f64x2 load_partial(const double* p, int count) {
#if defined(SHALOM_SIMD_NEON)
  (void)count;
  return {vld1q_lane_f64(p, vdupq_n_f64(0.0), 0)};
#elif defined(SHALOM_SIMD_SSE)
  (void)count;
  return {_mm_load_sd(p)};
#else
  double tmp[2] = {0.0, 0.0};
  for (int i = 0; i < count; ++i) tmp[i] = p[i];
  return load(tmp);
#endif
}

/// Stores lane 0 (`count` is always 1); writes p[0] only.
SHALOM_INLINE void store_partial(double* p, f64x2 x, int count) {
#if defined(SHALOM_SIMD_NEON)
  (void)count;
  vst1q_lane_f64(p, x.v, 0);
#elif defined(SHALOM_SIMD_SSE)
  (void)count;
  _mm_store_sd(p, x.v);
#else
  double tmp[2];
  store(tmp, x);
  for (int i = 0; i < count; ++i) p[i] = tmp[i];
#endif
}

/// In-register 4x4 transpose: on exit, a holds the original lane-0s,
/// b the lane-1s, etc. Used by the NT packing kernel to turn the Fig. 5
/// element scatter into whole-vector stores.
SHALOM_INLINE void transpose4(f32x4& a, f32x4& b, f32x4& c, f32x4& d) {
#if defined(SHALOM_SIMD_NEON)
  const float32x4x2_t ab = vtrnq_f32(a.v, b.v);
  const float32x4x2_t cd = vtrnq_f32(c.v, d.v);
  a.v = vcombine_f32(vget_low_f32(ab.val[0]), vget_low_f32(cd.val[0]));
  b.v = vcombine_f32(vget_low_f32(ab.val[1]), vget_low_f32(cd.val[1]));
  c.v = vcombine_f32(vget_high_f32(ab.val[0]), vget_high_f32(cd.val[0]));
  d.v = vcombine_f32(vget_high_f32(ab.val[1]), vget_high_f32(cd.val[1]));
#elif defined(SHALOM_SIMD_SSE)
  _MM_TRANSPOSE4_PS(a.v, b.v, c.v, d.v);
#else
  const f32x4 ta = a, tb = b, tc = c, td = d;
  for (int i = 0; i < 4; ++i) {
    a.v[i] = (i == 0 ? ta : i == 1 ? tb : i == 2 ? tc : td).v[0];
    b.v[i] = (i == 0 ? ta : i == 1 ? tb : i == 2 ? tc : td).v[1];
    c.v[i] = (i == 0 ? ta : i == 1 ? tb : i == 2 ? tc : td).v[2];
    d.v[i] = (i == 0 ? ta : i == 1 ? tb : i == 2 ? tc : td).v[3];
  }
#endif
}

// ---------------------------------------------------------------------------
// Type selection + prefetch
// ---------------------------------------------------------------------------

/// Maps an element type and a width in bits to its vector type (paper's
/// j = kLanes); simd/vecwide.h adds the wider FP32 widths.
template <typename T, int Bits = 128>
struct vec_of;
template <>
struct vec_of<float, 128> {
  using type = f32x4;
};
template <>
struct vec_of<double, 128> {
  using type = f64x2;
};
template <typename T, int Bits = 128>
using vec_of_t = typename vec_of<T, Bits>::type;

template <typename T, int Bits = 128>
  requires(Bits == 128)
SHALOM_INLINE auto zero_vec() {
  if constexpr (std::is_same_v<T, float>) {
    return zero_f32x4();
  } else {
    return zero_f64x2();
  }
}

/// Prefetch into L1 for a read (PRFM PLDL1KEEP / PREFETCHT0).
SHALOM_INLINE void prefetch_read(const void* p) {
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
}

/// Prefetch for a write.
SHALOM_INLINE void prefetch_write(void* p) {
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/3);
}

/// Backend name, for diagnostics and tests.
constexpr const char* backend_name() {
#if defined(SHALOM_SIMD_NEON)
  return "neon";
#elif defined(SHALOM_SIMD_SSE)
  return "sse";
#else
  return "scalar";
#endif
}

}  // namespace shalom::simd
