// Tests for the Section 5.5 wide-vector port: the analytic model's
// revised tiles at longer lane counts, the wide SIMD types, and the wide
// GEMM driver against the oracle at every width.
#include <gtest/gtest.h>

#include "baselines/naive.h"
#include "common/rng.h"
#include "core/widegemm.h"
#include "simd/vecwide.h"

namespace shalom::wide {
namespace {

/// The register tile gemm_wide<Bits> plans and runs.
model::Tile plan_tile(int bits) {
  return detail::plan_wide(bits, 64, 64, 64, arch::host_machine()).tile;
}

TEST(WideModel, RevisedTilesMatchEq1) {
  // The tile each width's plan runs must be what Eq. 1/2 yields at its
  // lane count (this is the paper's "revised mr and nr" recipe).
  for (const int bits : {128, 256, 512}) {
    const model::Tile want = model::solve_tile(32, bits / 32);
    const model::Tile got = plan_tile(bits);
    EXPECT_EQ(got.mr, want.mr) << bits;
    EXPECT_EQ(got.nr, want.nr) << bits;
  }
  EXPECT_EQ(plan_tile(256).mr, 9);
  EXPECT_EQ(plan_tile(256).nr, 16);
  EXPECT_EQ(plan_tile(512).mr, 15);
  EXPECT_EQ(plan_tile(512).nr, 16);
}

TEST(WideModel, CmrGrowsWithWidth) {
  const model::Tile t128 = plan_tile(128), t256 = plan_tile(256),
                    t512 = plan_tile(512);
  EXPECT_GT(model::tile_cmr(t256.mr, t256.nr),
            model::tile_cmr(t128.mr, t128.nr));
  EXPECT_GT(model::tile_cmr(t512.mr, t512.nr),
            model::tile_cmr(t256.mr, t256.nr));
}

TEST(WideSimd, RoundTripsAndFma) {
  float src[16], dst[16];
  for (int i = 0; i < 16; ++i) src[i] = static_cast<float>(i) * 0.5f;

  const auto v8 = simd::load<256>(src);
  simd::store(dst, v8);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(dst[i], src[i]);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(simd::extract(v8, i), src[i]);

  const auto v16 = simd::load<512>(src);
  simd::store(dst, v16);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(dst[i], src[i]);

  const auto r8 =
      simd::fmadd(simd::broadcast<256>(1.f), v8, simd::broadcast<256>(2.f));
  for (int i = 0; i < 8; ++i)
    EXPECT_FLOAT_EQ(simd::extract(r8, i), 1.f + src[i] * 2.f);
  const auto r16 = simd::fmadd(simd::broadcast<512>(1.f), v16,
                               simd::broadcast<512>(-1.f));
  for (int i = 0; i < 16; ++i)
    EXPECT_FLOAT_EQ(simd::extract(r16, i), 1.f - src[i]);
  const auto p16 = simd::mul(v16, simd::broadcast<512>(2.f));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(simd::extract(p16, i), 2.f * src[i]);
}

TEST(WideSimd, PartialOps) {
  float src[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto v = simd::load_partial<256>(src, 5);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(simd::extract(v, i), i < 5 ? src[i] : 0.f);
  float dst[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
  simd::store_partial(dst, v, 3);
  EXPECT_EQ(dst[2], 3.f);
  EXPECT_EQ(dst[3], -1.f);
}

template <int Bits>
void check_wide_gemm(index_t m, index_t n, index_t k, float alpha,
                     float beta) {
  Matrix<float> a(m, k), b(k, n), c(m, n), c_ref(m, n);
  fill_random(a, 1);
  fill_random(b, 2);
  fill_random(c, 3);
  c_ref = c;
  gemm_wide<Bits>(m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(), beta,
                  c.data(), c.ld());
  baselines::naive_gemm({Trans::N, Trans::N}, m, n, k, alpha, a.data(),
                        a.ld(), b.data(), b.ld(), beta, c_ref.data(),
                        c_ref.ld());
  const double tol = (k + 16.0) * 1e-6;
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j)
      ASSERT_NEAR(c(i, j), c_ref(i, j), tol)
          << Bits << "-bit at (" << i << "," << j << ") m=" << m
          << " n=" << n << " k=" << k;
}

class WideGemmSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(WideGemmSweep, MatchesOracleAllWidths) {
  const auto [m, n, k] = GetParam();
  check_wide_gemm<128>(m, n, k, 1.f, 0.f);
  check_wide_gemm<256>(m, n, k, 1.5f, 0.5f);
  check_wide_gemm<512>(m, n, k, -1.f, 1.f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WideGemmSweep,
    ::testing::Combine(::testing::Values(1, 9, 15, 16, 40, 100),
                       ::testing::Values(1, 15, 16, 17, 33, 100),
                       ::testing::Values(1, 8, 37, 120)));

TEST(WideGemm, LargerProblemAcrossBlocks) {
  check_wide_gemm<256>(200, 300, 600, 1.f, 0.f);
  check_wide_gemm<512>(200, 300, 600, 1.f, 0.f);
}

}  // namespace
}  // namespace shalom::wide
