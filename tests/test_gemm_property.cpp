// Randomized property tests: several hundred GEMM problems with random
// shapes, modes, scalars (including zero, +/-1 and NaN-free denormals),
// paddings (including non-contiguous ldc > N), thread counts and feature
// flags, all checked against the naive oracle. Every case runs through
// BOTH gemm and a caller-held plan_create/plan_execute, and the two must
// agree bitwise. Complements the structured sweeps in
// test_gemm_correctness.cpp by exploring the parameter space jointly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/fault.h"
#include "common/rng.h"
#include "core/plan.h"
#include "core/shalom.h"
#include "core/shalom_c.h"
#include "tests/test_util.h"

namespace shalom {
namespace {

struct RandomCase {
  Mode mode;
  index_t m, n, k;
  float alpha, beta;
  index_t pad, pad_c;
  Config cfg;
};

// Positive/negative single-precision denormals (smallest normal float is
// ~1.18e-38): exercises the scaling paths' behaviour on subnormal inputs
// without introducing NaNs or infinities.
constexpr float kDenormPos = 6.0e-39f;
constexpr float kDenormNeg = -4.0e-40f;

RandomCase draw(SplitMix64& rng, bool irregular) {
  RandomCase c;
  c.mode.a = rng.next_u64() % 2 ? Trans::T : Trans::N;
  c.mode.b = rng.next_u64() % 2 ? Trans::T : Trans::N;
  if (irregular) {
    c.m = 1 + rng.next_u64() % 48;
    c.n = 64 + rng.next_u64() % 700;
    c.k = 32 + rng.next_u64() % 500;
    if (rng.next_u64() % 2) std::swap(c.m, c.n);
  } else {
    c.m = 1 + rng.next_u64() % 40;
    c.n = 1 + rng.next_u64() % 40;
    c.k = 1 + rng.next_u64() % 40;
  }
  const float alphas[] = {0.f, 1.f, -1.f, 0.75f, kDenormPos, kDenormNeg};
  const float betas[] = {0.f, 1.f, -1.f, -0.5f, 2.f, kDenormPos};
  c.alpha = alphas[rng.next_u64() % 6];
  c.beta = betas[rng.next_u64() % 6];
  c.pad = rng.next_u64() % 9;
  // Every fourth case gets a strongly non-contiguous C (ldc >> N), the
  // sliced-output layout im2col/batch windows produce.
  c.pad_c = rng.next_u64() % 4 == 0 ? 17 + rng.next_u64() % 32
                                    : rng.next_u64() % 9;
  c.cfg.selective_packing = rng.next_u64() % 4 != 0;
  c.cfg.fused_packing = rng.next_u64() % 4 != 0;
  c.cfg.optimized_edges = rng.next_u64() % 4 != 0;
  c.cfg.threads = 1 + static_cast<int>(rng.next_u64() % 4);
  return c;
}

void run_case(const RandomCase& c, int iteration) {
  SCOPED_TRACE(::testing::Message()
               << "iteration " << iteration << " m=" << c.m << " n=" << c.n
               << " k=" << c.k << " alpha=" << c.alpha << " beta=" << c.beta
               << " pad=" << c.pad << " pad_c=" << c.pad_c
               << " threads=" << c.cfg.threads
               << " flags=" << c.cfg.selective_packing
               << c.cfg.fused_packing << c.cfg.optimized_edges);

  // Identically seeded problems: one through gemm, one through a
  // caller-held plan_create/plan_execute.
  testing::Problem<float> direct(c.mode, c.m, c.n, c.k, c.pad, c.pad,
                                 c.pad_c);
  testing::Problem<float> planned(c.mode, c.m, c.n, c.k, c.pad, c.pad,
                                  c.pad_c);

  gemm(c.mode.a, c.mode.b, direct.m, direct.n, direct.k, c.alpha,
       direct.a.data(), direct.a.ld(), direct.b.data(), direct.b.ld(),
       c.beta, direct.c.data(), direct.c.ld(), c.cfg);

  const GemmPlan<float> plan =
      plan_create<float>(c.mode, c.m, c.n, c.k, c.cfg);
  plan_execute(plan, c.alpha, planned.a.data(), planned.a.ld(),
               planned.b.data(), planned.b.ld(), c.beta, planned.c.data(),
               planned.c.ld());

  direct.run_reference(c.alpha, c.beta);
  direct.expect_matches("property (direct path)");

  // The plan path snapshots the same decisions and runs the same loops:
  // bitwise agreement, not just tolerance agreement.
  for (index_t i = 0; i < c.m; ++i)
    for (index_t j = 0; j < c.n; ++j)
      ASSERT_EQ(direct.c(i, j), planned.c(i, j))
          << "plan path diverged at (" << i << "," << j << ")";
}

TEST(GemmProperty, RandomSmallProblems) {
  SplitMix64 rng(20260705);
  for (int i = 0; i < 200; ++i) run_case(draw(rng, false), i);
}

TEST(GemmProperty, RandomIrregularProblems) {
  SplitMix64 rng(424242);
  for (int i = 0; i < 60; ++i) run_case(draw(rng, true), i);
}

TEST(GemmProperty, DenormalScalarsWithWideLdc) {
  // Structured companion to the random sweep: every mode, denormal
  // alpha/beta combinations, C strongly non-contiguous (ldc = N + 21).
  const float scalars[] = {0.f, 1.f, -1.f, kDenormPos, kDenormNeg};
  int iteration = 0;
  for (const Mode mode : testing::kAllModes) {
    for (float alpha : scalars) {
      for (float beta : scalars) {
        RandomCase c;
        c.mode = mode;
        c.m = 9;
        c.n = 14;
        c.k = 11;
        c.alpha = alpha;
        c.beta = beta;
        c.pad = 0;
        c.pad_c = 21;
        c.cfg = Config{};
        run_case(c, iteration++);
      }
    }
  }
}

TEST(GemmProperty, DegenerateShapesShortCircuit) {
  // M==0 / N==0: success, C untouched. K==0: success, C = beta*C exactly
  // (beta==1 leaves C bitwise untouched; beta==0 writes zeros even over
  // NaN garbage). None of these may reach the packing machinery -
  // verified indirectly: no fallback telemetry fires.
  struct Shape {
    index_t m, n, k;
  };
  const Shape shapes[] = {{0, 5, 3}, {5, 0, 3}, {5, 4, 0}, {0, 0, 0},
                          {3, 3, 0}, {0, 0, 7}};
  const float betas[] = {0.f, 1.f, -0.5f, 2.f};
  robustness_stats_reset();

  for (const Mode mode : testing::kAllModes) {
    for (const Shape& s : shapes) {
      for (float beta : betas) {
        for (int threads : {1, 3}) {
          SCOPED_TRACE(::testing::Message()
                       << "m=" << s.m << " n=" << s.n << " k=" << s.k
                       << " beta=" << beta << " threads=" << threads
                       << " mode=" << (mode.a == Trans::N ? "N" : "T")
                       << (mode.b == Trans::N ? "N" : "T"));
          // Matrices sized max(dim, 1) so pointers stay valid; the NaN
          // prefill proves K==0/beta==0 never *reads* C and M==0/N==0
          // never *writes* it. A/B storage shapes follow the mode.
          const index_t mr = std::max<index_t>(s.m, 1);
          const index_t nr = std::max<index_t>(s.n, 1);
          const index_t kr = std::max<index_t>(s.k, 1);
          const index_t a_rows = (mode.a == Trans::N) ? mr : kr;
          const index_t a_cols = (mode.a == Trans::N) ? kr : mr;
          const index_t b_rows = (mode.b == Trans::N) ? kr : nr;
          const index_t b_cols = (mode.b == Trans::N) ? nr : kr;
          Matrix<float> a(a_rows, a_cols, a_cols), b(b_rows, b_cols, b_cols),
              c(mr, nr, nr);
          fill_random(a, 1);
          fill_random(b, 2);
          fill_random(c, 3);
          Matrix<float> c_before = c;
          if (s.k == 0 && beta == 0.f)
            for (index_t i = 0; i < s.m; ++i)
              for (index_t j = 0; j < s.n; ++j)
                c(i, j) = std::numeric_limits<float>::quiet_NaN();

          Config cfg;
          cfg.threads = threads;
          ASSERT_NO_THROW(gemm(mode.a, mode.b, s.m, s.n, s.k, 1.5f,
                               a.data(), a.ld(), b.data(), b.ld(), beta,
                               c.data(), c.ld(), cfg));

          for (index_t i = 0; i < s.m; ++i) {
            for (index_t j = 0; j < s.n; ++j) {
              if (s.k != 0) {
                FAIL() << "only K==0 shapes reach the write check";
              } else if (beta == 0.f) {
                ASSERT_EQ(c(i, j), 0.f);
              } else {
                ASSERT_EQ(c(i, j), beta * c_before(i, j));
              }
            }
          }
          // M==0/N==0: nothing at all was written (probe the full alloc).
          if (s.m == 0 || s.n == 0) {
            for (index_t i = 0; i < mr; ++i)
              for (index_t j = 0; j < nr; ++j)
                ASSERT_EQ(std::memcmp(&c(i, j), &c_before(i, j),
                                      sizeof(float)),
                          0);
          }

          // The C ABI agrees: SHALOM_OK, same semantics.
          Matrix<float> cc = c_before;
          ASSERT_EQ(shalom_sgemm(mode.a == Trans::N ? 'N' : 'T',
                                 mode.b == Trans::N ? 'N' : 'T', s.m, s.n,
                                 s.k, 1.5f, a.data(), a.ld(), b.data(),
                                 b.ld(), beta, cc.data(), cc.ld(), threads),
                    SHALOM_OK);
        }
      }
    }
  }

  // No degenerate call may have degraded anything.
  const RobustnessStats after = robustness_stats();
  EXPECT_EQ(after.fallback_nopack, 0u);
  EXPECT_EQ(after.threads_degraded, 0u);
}

TEST(GemmProperty, RepeatedCallsAreDeterministic) {
  // Same inputs -> bit-identical outputs, serial and parallel.
  testing::Problem<float> p1({Trans::N, Trans::T}, 33, 450, 210);
  testing::Problem<float> p2({Trans::N, Trans::T}, 33, 450, 210);
  Config cfg;
  cfg.threads = 4;
  gemm(Trans::N, Trans::T, p1.m, p1.n, p1.k, 1.f, p1.a.data(), p1.a.ld(),
       p1.b.data(), p1.b.ld(), 0.f, p1.c.data(), p1.c.ld(), cfg);
  gemm(Trans::N, Trans::T, p2.m, p2.n, p2.k, 1.f, p2.a.data(), p2.a.ld(),
       p2.b.data(), p2.b.ld(), 0.f, p2.c.data(), p2.c.ld(), cfg);
  for (index_t i = 0; i < p1.m; ++i)
    for (index_t j = 0; j < p1.n; ++j)
      ASSERT_EQ(p1.c(i, j), p2.c(i, j)) << i << "," << j;
}

}  // namespace
}  // namespace shalom
