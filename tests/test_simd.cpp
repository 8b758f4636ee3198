// Unit tests for the 128-bit SIMD layer: every operation is checked
// against scalar arithmetic, including all lane indices of the
// lane-broadcast FMA that the micro-kernels are built on, plus the
// partial-access contract of every vector width against a guard page.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "simd/vec128.h"
#include "simd/vecwide.h"
#include "tests/guard_page.h"

namespace shalom::simd {
namespace {

TEST(SimdF32, LoadStoreRoundTrip) {
  const float src[4] = {1.5f, -2.25f, 3.75f, 0.f};
  float dst[4] = {};
  store(dst, load(src));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(src[i], dst[i]);
}

TEST(SimdF32, Broadcast) {
  const f32x4 v = broadcast(7.25f);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(extract(v, i), 7.25f);
}

TEST(SimdF32, ZeroIsZero) {
  const f32x4 v = zero_f32x4();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(extract(v, i), 0.f);
}

TEST(SimdF32, AddMul) {
  const float x[4] = {1, 2, 3, 4}, y[4] = {10, 20, 30, 40};
  const f32x4 s = add(load(x), load(y));
  const f32x4 p = mul(load(x), load(y));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(extract(s, i), x[i] + y[i]);
    EXPECT_EQ(extract(p, i), x[i] * y[i]);
  }
}

TEST(SimdF32, Fmadd) {
  const float acc[4] = {1, 1, 1, 1}, x[4] = {2, 3, 4, 5},
              y[4] = {10, 10, 10, 10};
  const f32x4 r = fmadd(load(acc), load(x), load(y));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(extract(r, i), acc[i] + x[i] * y[i]);
}

TEST(SimdF32, FmaddLaneAllLanes) {
  const float a[4] = {2, 3, 5, 7};
  const float b[4] = {1, 10, 100, 1000};
  const float acc0[4] = {0.5f, 0.5f, 0.5f, 0.5f};
  auto check = [&](auto lane_c, float lane_val) {
    const f32x4 r =
        fmadd_lane<lane_c()>(load(acc0), load(a), load(b));
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(extract(r, i), acc0[i] + lane_val * b[i]) << "lane "
                                                          << lane_c();
  };
  check([] { return 0; }, 2.f);
  check([] { return 1; }, 3.f);
  check([] { return 2; }, 5.f);
  check([] { return 3; }, 7.f);
}

TEST(SimdF32, ReduceAdd) {
  const float x[4] = {1.5f, 2.5f, -3.f, 10.f};
  EXPECT_FLOAT_EQ(reduce_add(load(x)), 11.f);
}

TEST(SimdF32, PartialLoadZeroFills) {
  const float src[3] = {5, 6, 7};
  for (int count = 1; count <= 3; ++count) {
    const f32x4 v = load_partial(src, count);
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(extract(v, i), i < count ? src[i] : 0.f);
  }
}

TEST(SimdF32, PartialStoreLeavesTailUntouched) {
  const float src[4] = {1, 2, 3, 4};
  for (int count = 1; count <= 3; ++count) {
    float dst[4] = {-9, -9, -9, -9};
    store_partial(dst, load(src), count);
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(dst[i], i < count ? src[i] : -9.f);
  }
}

TEST(SimdF64, LoadStoreRoundTrip) {
  const double src[2] = {1.25, -7.5};
  double dst[2] = {};
  store(dst, load(src));
  EXPECT_EQ(dst[0], src[0]);
  EXPECT_EQ(dst[1], src[1]);
}

TEST(SimdF64, FmaddAndLanes) {
  const double acc[2] = {1, 2}, a[2] = {3, 4}, b[2] = {10, 20};
  const f64x2 r = fmadd(load(acc), load(a), load(b));
  EXPECT_EQ(extract(r, 0), 31.0);
  EXPECT_EQ(extract(r, 1), 82.0);

  const f64x2 l0 = fmadd_lane<0>(load(acc), load(a), load(b));
  EXPECT_EQ(extract(l0, 0), 1 + 3 * 10.0);
  EXPECT_EQ(extract(l0, 1), 2 + 3 * 20.0);
  const f64x2 l1 = fmadd_lane<1>(load(acc), load(a), load(b));
  EXPECT_EQ(extract(l1, 0), 1 + 4 * 10.0);
  EXPECT_EQ(extract(l1, 1), 2 + 4 * 20.0);
}

TEST(SimdF64, ReduceAndPartials) {
  const double x[2] = {3.5, -1.25};
  EXPECT_DOUBLE_EQ(reduce_add(load(x)), 2.25);

  const double src[1] = {42.0};
  const f64x2 v = load_partial(src, 1);
  EXPECT_EQ(extract(v, 0), 42.0);
  EXPECT_EQ(extract(v, 1), 0.0);

  double dst[2] = {-1, -1};
  store_partial(dst, v, 1);
  EXPECT_EQ(dst[0], 42.0);
  EXPECT_EQ(dst[1], -1.0);
}

// Partial access against a guard page, for every count in [1, Lanes).
// The `count` real elements end at the PROT_NONE boundary, so reading or
// writing any lane from `count` up faults instead of passing silently.
// load_partial must zero-fill those lanes; store_partial must write the
// low lanes only (also checked with a sentinel tail inside the page).
template <typename T, int Lanes, class Load, class Store, class Bcast,
          class Lane>
void check_partials_at_guard_page(Load load_p, Store store_p, Bcast bcast,
                                  Lane lane) {
  testing::GuardedPages pages;
  for (int count = 1; count < Lanes; ++count) {
    T* p = pages.ending_at_guard<T>(count);
    for (int i = 0; i < count; ++i) p[i] = T(i + 1) * T(1.5);
    const auto v = load_p(p, count);
    for (int i = 0; i < Lanes; ++i)
      EXPECT_EQ(lane(v, i), i < count ? T(i + 1) * T(1.5) : T{0})
          << "load count=" << count << " lane " << i;

    store_p(p, bcast(T(-7)), count);
    for (int i = 0; i < count; ++i)
      EXPECT_EQ(p[i], T(-7)) << "store count=" << count << " lane " << i;

    T* q = pages.ending_at_guard<T>(Lanes);
    for (int i = 0; i < Lanes; ++i) q[i] = T(99);
    store_p(q, bcast(T(-7)), count);
    for (int i = 0; i < Lanes; ++i)
      EXPECT_EQ(q[i], i < count ? T(-7) : T(99))
          << "sentinel count=" << count << " lane " << i;
  }
}

TEST(SimdGuardPage, F32x4Partials) {
  check_partials_at_guard_page<float, 4>(
      [](const float* p, int c) { return load_partial(p, c); },
      [](float* p, f32x4 x, int c) { store_partial(p, x, c); },
      [](float x) { return broadcast(x); },
      [](f32x4 v, int i) { return extract(v, i); });
}

TEST(SimdGuardPage, F64x2Partials) {
  check_partials_at_guard_page<double, 2>(
      [](const double* p, int c) { return load_partial(p, c); },
      [](double* p, f64x2 x, int c) { store_partial(p, x, c); },
      [](double x) { return broadcast(x); },
      [](f64x2 v, int i) { return extract(v, i); });
}

TEST(SimdGuardPage, F32x8Partials) {
  check_partials_at_guard_page<float, 8>(
      [](const float* p, int c) { return load_partial<256>(p, c); },
      [](float* p, f32x8 x, int c) { store_partial(p, x, c); },
      [](float x) { return broadcast<256>(x); },
      [](f32x8 v, int i) { return extract(v, i); });
}

TEST(SimdGuardPage, F32x16Partials) {
  check_partials_at_guard_page<float, 16>(
      [](const float* p, int c) { return load_partial<512>(p, c); },
      [](float* p, f32x16 x, int c) { store_partial(p, x, c); },
      [](float x) { return broadcast<512>(x); },
      [](f32x16 v, int i) { return extract(v, i); });
}

TEST(Simd, VecOfSelectsWidth) {
  static_assert(vec_of_t<float>::kLanes == 4);
  static_assert(vec_of_t<double>::kLanes == 2);
  EXPECT_STRNE(backend_name(), "");
}

TEST(Simd, FmaddSingleRounding) {
  // FMA semantics: acc + a*b with a single rounding. std::fma is the
  // oracle; a separate mul+add would differ on these operands.
  const double a = 1.0 + 0x1p-30, b = 1.0 - 0x1p-31, acc = -1.0;
  const f64x2 r = fmadd(broadcast(acc), broadcast(a), broadcast(b));
  EXPECT_EQ(extract(r, 0), std::fma(a, b, acc));

  const float af = 1.0f + 0x1p-12f, bf = 1.0f - 0x1p-11f, accf = -1.0f;
  const f32x4 rf = fmadd(broadcast(accf), broadcast(af), broadcast(bf));
  EXPECT_EQ(extract(rf, 0), std::fmaf(af, bf, accf));
}

}  // namespace
}  // namespace shalom::simd
