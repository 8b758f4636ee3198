// Wide-vector types: the paper's Section 5.5 extension path.
//
// "Some new ARM-based many-cores ... support the latest ARM Scalable
// Vector Extension (SVE). This extension allows the CPU implementation to
// choose a vector length that is any multiple of 128 bits between 128 and
// 2048 bits. Our approach can be applied to a longer vector length with a
// revised mr and nr computed according to the available number and length
// of vector registers."
//
// This header provides the longer-vector substrate so that claim can be
// exercised: f32x8 (256-bit) and f32x16 (512-bit) with AVX2/AVX-512
// backends on the reproduction host (standing in for SVE-256/SVE-512;
// same register count, same width, same FMA semantics) and a portable
// emulation built from two halves elsewhere. The wide GEMM driver
// (src/core/widegemm.h) consumes these through the same concepts the
// 128-bit kernels use, with (mr, nr) re-derived by the unchanged analytic
// model - exactly the porting recipe Section 5.5 describes.
//
// The partial loads and stores keep vec128.h's contract: exactly the lanes
// below `count` (1..kLanes-1) are read or written, and lanes from `count`
// up are zero-filled in the register and never touched in memory. AVX-512
// uses one masked MOVUPS (AVX-512VL for 256 bits), AVX2 a VMASKMOVPS on
// vec128.h's lane mask, whose masked-off lanes never fault; the emulated
// widths copy through a lane array on the stack.
#pragma once

#include "simd/vec128.h"

namespace shalom::simd {

// ---------------------------------------------------------------------------
// f32x8: 256-bit, 8 lanes.
// ---------------------------------------------------------------------------
struct f32x8 {
  static constexpr int kLanes = 8;
  using value_type = float;

#if defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  __m256 v;
#else
  f32x4 lo, hi;  // emulated from two 128-bit halves (NEON / plain SSE)
#endif
};

SHALOM_INLINE f32x8 zero_f32x8() {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  return {_mm256_setzero_ps()};
#else
  return {zero_f32x4(), zero_f32x4()};
#endif
}

SHALOM_INLINE f32x8 broadcast8(float x) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  return {_mm256_set1_ps(x)};
#else
  return {broadcast(x), broadcast(x)};
#endif
}

SHALOM_INLINE f32x8 load8(const float* p) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  return {_mm256_loadu_ps(p)};
#else
  return {load(p), load(p + 4)};
#endif
}

SHALOM_INLINE void store8(float* p, f32x8 x) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  _mm256_storeu_ps(p, x.v);
#else
  store(p, x.lo);
  store(p + 4, x.hi);
#endif
}

SHALOM_INLINE f32x8 fmadd(f32x8 acc, f32x8 a, f32x8 b) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  return {_mm256_fmadd_ps(a.v, b.v, acc.v)};
#else
  return {fmadd(acc.lo, a.lo, b.lo), fmadd(acc.hi, a.hi, b.hi)};
#endif
}

SHALOM_INLINE float extract8(f32x8 a, int lane) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  alignas(32) float tmp[8];
  _mm256_store_ps(tmp, a.v);
  return tmp[lane];
#else
  return lane < 4 ? extract(a.lo, lane) : extract(a.hi, lane - 4);
#endif
}

#if defined(SHALOM_SIMD_SSE) && defined(__AVX2__) && !defined(__AVX512VL__)
/// VMASKMOVPS lane mask for eight lanes: vec128.h's lane_mask4 per half.
SHALOM_INLINE __m256i lane_mask8(int count) {
  return _mm256_set_m128i(lane_mask4(count - 4), lane_mask4(count));
}
#endif

SHALOM_INLINE f32x8 load8_partial(const float* p, int count) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512VL__)
  return {_mm256_maskz_loadu_ps(static_cast<__mmask8>((1u << count) - 1), p)};
#elif defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  return {_mm256_maskload_ps(p, lane_mask8(count))};
#else
  float tmp[8] = {};
  for (int i = 0; i < count; ++i) tmp[i] = p[i];
  return load8(tmp);
#endif
}

SHALOM_INLINE void store8_partial(float* p, f32x8 x, int count) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512VL__)
  _mm256_mask_storeu_ps(p, static_cast<__mmask8>((1u << count) - 1), x.v);
#elif defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  _mm256_maskstore_ps(p, lane_mask8(count), x.v);
#else
  float tmp[8];
  store8(tmp, x);
  for (int i = 0; i < count; ++i) p[i] = tmp[i];
#endif
}

// ---------------------------------------------------------------------------
// f32x16: 512-bit, 16 lanes.
// ---------------------------------------------------------------------------
struct f32x16 {
  static constexpr int kLanes = 16;
  using value_type = float;

#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  __m512 v;
#else
  f32x8 lo, hi;
#endif
};

SHALOM_INLINE f32x16 zero_f32x16() {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  return {_mm512_setzero_ps()};
#else
  return {zero_f32x8(), zero_f32x8()};
#endif
}

SHALOM_INLINE f32x16 broadcast16(float x) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  return {_mm512_set1_ps(x)};
#else
  return {broadcast8(x), broadcast8(x)};
#endif
}

SHALOM_INLINE f32x16 load16(const float* p) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  return {_mm512_loadu_ps(p)};
#else
  return {load8(p), load8(p + 8)};
#endif
}

SHALOM_INLINE void store16(float* p, f32x16 x) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  _mm512_storeu_ps(p, x.v);
#else
  store8(p, x.lo);
  store8(p + 8, x.hi);
#endif
}

SHALOM_INLINE f32x16 fmadd(f32x16 acc, f32x16 a, f32x16 b) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  return {_mm512_fmadd_ps(a.v, b.v, acc.v)};
#else
  return {fmadd(acc.lo, a.lo, b.lo), fmadd(acc.hi, a.hi, b.hi)};
#endif
}

SHALOM_INLINE float extract16(f32x16 a, int lane) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  alignas(64) float tmp[16];
  _mm512_store_ps(tmp, a.v);
  return tmp[lane];
#else
  return lane < 8 ? extract8(a.lo, lane) : extract8(a.hi, lane - 8);
#endif
}

SHALOM_INLINE f32x16 load16_partial(const float* p, int count) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  return {_mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << count) - 1), p)};
#else
  float tmp[16] = {};
  for (int i = 0; i < count; ++i) tmp[i] = p[i];
  return load16(tmp);
#endif
}

SHALOM_INLINE void store16_partial(float* p, f32x16 x, int count) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << count) - 1), x.v);
#else
  float tmp[16];
  store16(tmp, x);
  for (int i = 0; i < count; ++i) p[i] = tmp[i];
#endif
}

// ---------------------------------------------------------------------------
// Uniform facade so the wide kernel can be written once over the width.
// ---------------------------------------------------------------------------
template <int Bits>
struct wide;

template <>
struct wide<128> {
  using type = f32x4;
  static SHALOM_INLINE type zero() { return zero_f32x4(); }
  static SHALOM_INLINE type bcast(float x) { return broadcast(x); }
  static SHALOM_INLINE type ld(const float* p) { return load(p); }
  static SHALOM_INLINE void st(float* p, type x) { store(p, x); }
  static SHALOM_INLINE type ldp(const float* p, int c) {
    return load_partial(p, c);
  }
  static SHALOM_INLINE void stp(float* p, type x, int c) {
    store_partial(p, x, c);
  }
  static SHALOM_INLINE type fma(type a, type x, type y) {
    return fmadd(a, x, y);
  }
};

template <>
struct wide<256> {
  using type = f32x8;
  static SHALOM_INLINE type zero() { return zero_f32x8(); }
  static SHALOM_INLINE type bcast(float x) { return broadcast8(x); }
  static SHALOM_INLINE type ld(const float* p) { return load8(p); }
  static SHALOM_INLINE void st(float* p, type x) { store8(p, x); }
  static SHALOM_INLINE type ldp(const float* p, int c) {
    return load8_partial(p, c);
  }
  static SHALOM_INLINE void stp(float* p, type x, int c) {
    store8_partial(p, x, c);
  }
  static SHALOM_INLINE type fma(type a, type x, type y) {
    return fmadd(a, x, y);
  }
};

template <>
struct wide<512> {
  using type = f32x16;
  static SHALOM_INLINE type zero() { return zero_f32x16(); }
  static SHALOM_INLINE type bcast(float x) { return broadcast16(x); }
  static SHALOM_INLINE type ld(const float* p) { return load16(p); }
  static SHALOM_INLINE void st(float* p, type x) { store16(p, x); }
  static SHALOM_INLINE type ldp(const float* p, int c) {
    return load16_partial(p, c);
  }
  static SHALOM_INLINE void stp(float* p, type x, int c) {
    store16_partial(p, x, c);
  }
  static SHALOM_INLINE type fma(type a, type x, type y) {
    return fmadd(a, x, y);
  }
};

/// True when the width has a native (non-emulated) backend on this build.
constexpr bool wide_native(int bits) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  return bits <= 512;
#elif defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  return bits <= 256;
#else
  return bits <= 128;
#endif
}

}  // namespace shalom::simd
