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
// emulation built from two halves elsewhere. The types extend vec128.h's
// op set under the same names (load<256>(p), store(p, v), fmadd, ...), so
// the one micro-kernel template (core/microkernel.h) runs at every width
// with (mr, nr) re-derived by the unchanged analytic model - exactly the
// porting recipe Section 5.5 describes.
//
// The partial loads and stores keep vec128.h's contract: exactly the lanes
// below `count` (1..kLanes-1) are read or written, and lanes from `count`
// up are zero-filled in the register and never touched in memory. AVX-512
// uses one masked MOVUPS (AVX-512VL for 256 bits), AVX2 a VMASKMOVPS on
// vec128.h's lane mask, whose masked-off lanes never fault; the emulated
// widths copy through a lane array on the stack.
#pragma once

#include <type_traits>

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

template <>
struct vec_of<float, 256> {
  using type = f32x8;
};

template <typename T, int Bits>
  requires(std::is_same_v<T, float> && Bits == 256)
SHALOM_INLINE f32x8 zero_vec() {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  return {_mm256_setzero_ps()};
#else
  return {zero_f32x4(), zero_f32x4()};
#endif
}

template <int Bits>
  requires(Bits == 256)
SHALOM_INLINE f32x8 broadcast(float x) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  return {_mm256_set1_ps(x)};
#else
  return {broadcast(x), broadcast(x)};
#endif
}

template <int Bits>
  requires(Bits == 256)
SHALOM_INLINE f32x8 load(const float* p) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  return {_mm256_loadu_ps(p)};
#else
  return {load(p), load(p + 4)};
#endif
}

SHALOM_INLINE void store(float* p, f32x8 x) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  _mm256_storeu_ps(p, x.v);
#else
  store(p, x.lo);
  store(p + 4, x.hi);
#endif
}

SHALOM_INLINE f32x8 mul(f32x8 a, f32x8 b) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  return {_mm256_mul_ps(a.v, b.v)};
#else
  return {mul(a.lo, b.lo), mul(a.hi, b.hi)};
#endif
}

SHALOM_INLINE f32x8 fmadd(f32x8 acc, f32x8 a, f32x8 b) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  return {_mm256_fmadd_ps(a.v, b.v, acc.v)};
#else
  return {fmadd(acc.lo, a.lo, b.lo), fmadd(acc.hi, a.hi, b.hi)};
#endif
}

SHALOM_INLINE float extract(f32x8 a, int lane) {
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

template <int Bits>
  requires(Bits == 256)
SHALOM_INLINE f32x8 load_partial(const float* p, int count) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512VL__)
  return {_mm256_maskz_loadu_ps(static_cast<__mmask8>((1u << count) - 1), p)};
#elif defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  return {_mm256_maskload_ps(p, lane_mask8(count))};
#else
  float tmp[8] = {};
  for (int i = 0; i < count; ++i) tmp[i] = p[i];
  return load<256>(tmp);
#endif
}

SHALOM_INLINE void store_partial(float* p, f32x8 x, int count) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512VL__)
  _mm256_mask_storeu_ps(p, static_cast<__mmask8>((1u << count) - 1), x.v);
#elif defined(SHALOM_SIMD_SSE) && defined(__AVX2__)
  _mm256_maskstore_ps(p, lane_mask8(count), x.v);
#else
  float tmp[8];
  store(tmp, x);
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

template <>
struct vec_of<float, 512> {
  using type = f32x16;
};

template <typename T, int Bits>
  requires(std::is_same_v<T, float> && Bits == 512)
SHALOM_INLINE f32x16 zero_vec() {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  return {_mm512_setzero_ps()};
#else
  return {zero_vec<float, 256>(), zero_vec<float, 256>()};
#endif
}

template <int Bits>
  requires(Bits == 512)
SHALOM_INLINE f32x16 broadcast(float x) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  return {_mm512_set1_ps(x)};
#else
  return {broadcast<256>(x), broadcast<256>(x)};
#endif
}

template <int Bits>
  requires(Bits == 512)
SHALOM_INLINE f32x16 load(const float* p) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  return {_mm512_loadu_ps(p)};
#else
  return {load<256>(p), load<256>(p + 8)};
#endif
}

SHALOM_INLINE void store(float* p, f32x16 x) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  _mm512_storeu_ps(p, x.v);
#else
  store(p, x.lo);
  store(p + 8, x.hi);
#endif
}

SHALOM_INLINE f32x16 mul(f32x16 a, f32x16 b) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  return {_mm512_mul_ps(a.v, b.v)};
#else
  return {mul(a.lo, b.lo), mul(a.hi, b.hi)};
#endif
}

SHALOM_INLINE f32x16 fmadd(f32x16 acc, f32x16 a, f32x16 b) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  return {_mm512_fmadd_ps(a.v, b.v, acc.v)};
#else
  return {fmadd(acc.lo, a.lo, b.lo), fmadd(acc.hi, a.hi, b.hi)};
#endif
}

SHALOM_INLINE float extract(f32x16 a, int lane) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  alignas(64) float tmp[16];
  _mm512_store_ps(tmp, a.v);
  return tmp[lane];
#else
  return lane < 8 ? extract(a.lo, lane) : extract(a.hi, lane - 8);
#endif
}

template <int Bits>
  requires(Bits == 512)
SHALOM_INLINE f32x16 load_partial(const float* p, int count) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  return {_mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << count) - 1), p)};
#else
  float tmp[16] = {};
  for (int i = 0; i < count; ++i) tmp[i] = p[i];
  return load<512>(tmp);
#endif
}

SHALOM_INLINE void store_partial(float* p, f32x16 x, int count) {
#if defined(SHALOM_SIMD_SSE) && defined(__AVX512F__)
  _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << count) - 1), x.v);
#else
  float tmp[16];
  store(tmp, x);
  for (int i = 0; i < count; ++i) p[i] = tmp[i];
#endif
}

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
