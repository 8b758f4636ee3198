// Execution-plan layer tests: plan_create/plan_execute must be bitwise
// identical to the per-call drivers for every mode and shape class, plans
// must be reusable and validate execute-time arguments, every call must
// plan from its own Config, and a published tuned blocking must reach
// both gemm and caller-held plans of its exact shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/selfcheck.h"
#include "core/plan.h"
#include "core/shalom.h"
#include "tests/test_util.h"

namespace shalom {
namespace {

struct ShapeCase {
  const char* label;
  index_t m, n, k;
};

// Tiny, edge-remainder (M % 7 != 0, N % 12 != 0), and tall-skinny both
// ways - the three shape classes the paper's workloads produce.
const ShapeCase kShapes[] = {
    {"tiny", 5, 6, 7},
    {"edge-remainder", 23, 27, 19},
    {"tall-skinny", 13, 500, 300},
    {"skinny-tall", 500, 13, 300},
};

template <typename T>
void expect_bitwise_equal(const Matrix<T>& got, const Matrix<T>& want,
                          index_t m, index_t n, const char* context) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      ASSERT_EQ(got(i, j), want(i, j))
          << context << " differs at (" << i << "," << j << ")";
    }
  }
}

// Runs one shape through the direct (per-call) driver and through a
// caller-held plan_create/plan_execute and demands bitwise-identical C.
template <typename T>
void check_plan_equivalence(Mode mode, const ShapeCase& s, int threads) {
  testing::Problem<T> direct(mode, s.m, s.n, s.k);
  testing::Problem<T> planned(mode, s.m, s.n, s.k);
  const T alpha = static_cast<T>(1.25), beta = static_cast<T>(-0.5);

  Config cfg;
  cfg.threads = threads;
  gemm(mode.a, mode.b, s.m, s.n, s.k, alpha, direct.a.data(),
       direct.a.ld(), direct.b.data(), direct.b.ld(), beta, direct.c.data(),
       direct.c.ld(), cfg);

  const GemmPlan<T> plan = plan_create<T>(mode, s.m, s.n, s.k, cfg);
  plan_execute(plan, alpha, planned.a.data(), planned.a.ld(),
               planned.b.data(), planned.b.ld(), beta, planned.c.data(),
               planned.c.ld());

  SCOPED_TRACE(::testing::Message()
               << s.label << " m=" << s.m << " n=" << s.n << " k=" << s.k
               << " mode=" << (mode.a == Trans::N ? "N" : "T")
               << (mode.b == Trans::N ? "N" : "T") << " threads=" << threads
               << " dtype=" << (sizeof(T) == 4 ? "f32" : "f64"));
  expect_bitwise_equal(planned.c, direct.c, s.m, s.n, "plan vs direct");

  // And both must be numerically right, not just mutually consistent.
  direct.run_reference(alpha, beta);
  direct.expect_matches("direct path");
}

TEST(GemmPlan, SerialBitwiseEquivalenceFp32) {
  for (const Mode mode : testing::kAllModes)
    for (const ShapeCase& s : kShapes)
      check_plan_equivalence<float>(mode, s, /*threads=*/1);
}

TEST(GemmPlan, SerialBitwiseEquivalenceFp64) {
  for (const Mode mode : testing::kAllModes)
    for (const ShapeCase& s : kShapes)
      check_plan_equivalence<double>(mode, s, /*threads=*/1);
}

TEST(GemmPlan, ParallelBitwiseEquivalence) {
  for (const Mode mode : testing::kAllModes) {
    check_plan_equivalence<float>(mode, {"tall-skinny", 13, 500, 300}, 4);
    check_plan_equivalence<double>(mode, {"skinny-tall", 500, 13, 300}, 4);
  }
}

TEST(GemmPlan, PlanIsReusableAndDeterministic) {
  const Mode mode{Trans::N, Trans::T};
  Config cfg;
  const GemmPlan<float> plan = plan_create<float>(mode, 23, 27, 19, cfg);

  testing::Problem<float> p1(mode, 23, 27, 19);
  testing::Problem<float> p2(mode, 23, 27, 19);
  plan_execute(plan, 1.0f, p1.a.data(), p1.a.ld(), p1.b.data(), p1.b.ld(),
               0.0f, p1.c.data(), p1.c.ld());
  plan_execute(plan, 1.0f, p2.a.data(), p2.a.ld(), p2.b.data(), p2.b.ld(),
               0.0f, p2.c.data(), p2.c.ld());
  expect_bitwise_equal(p2.c, p1.c, 23, 27, "repeat execution");

  p1.run_reference(1.0f, 0.0f);
  p1.expect_matches("plan reuse");
}

TEST(GemmPlan, ExecuteValidatesStrides) {
  const Mode mode{Trans::N, Trans::N};
  const GemmPlan<float> plan = plan_create<float>(mode, 8, 8, 8);
  testing::Problem<float> p(mode, 8, 8, 8);
  EXPECT_THROW(plan_execute(plan, 1.0f, p.a.data(), /*lda=*/4, p.b.data(),
                            p.b.ld(), 0.0f, p.c.data(), p.c.ld()),
               invalid_argument);
  EXPECT_THROW(plan_execute(plan, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
                            p.b.ld(), 0.0f, p.c.data(), /*ldc=*/5),
               invalid_argument);
}

TEST(GemmPlan, DegenerateShapesScaleC) {
  // K == 0 plans only scale C; alpha == 0 at execute time does the same.
  const Mode mode{Trans::N, Trans::N};
  const GemmPlan<float> plan = plan_create<float>(mode, 3, 3, 0);
  Matrix<float> c(3, 3);
  fill_random(c, 7);
  Matrix<float> expected = c;
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 3; ++j) expected(i, j) *= 2.0f;
  const float* none = nullptr;
  // A is 3x0 (lda >= 1); B is 0x3, so ldb must still cover N.
  plan_execute(plan, 1.0f, none, 1, none, 3, 2.0f, c.data(), c.ld());
  expect_bitwise_equal(c, expected, 3, 3, "k=0 scale");
}

TEST(GemmPlan, DistinctConfigsGetDistinctPlans) {
  // Every call plans from its own Config: a feature flag or a blocking
  // override changes the plan's decisions.
  const Mode mode{Trans::N, Trans::N};
  Config no_select;
  no_select.selective_packing = false;
  Config kc4;
  kc4.kc_override = 4;
  const GemmPlan<float> plain = plan_create<float>(mode, 16, 20, 12);
  const GemmPlan<float> packed =
      plan_create<float>(mode, 16, 20, 12, no_select);
  // A small NN plan is one block over the whole problem with nothing
  // packed, and blocking overrides leave it alone.
  EXPECT_EQ(plain.pack.a, model::PackPlan::kNone);
  EXPECT_EQ(plain.pack.b, model::PackPlan::kNone);
  EXPECT_EQ(plain.blk.mc, 16);
  EXPECT_EQ(plain.blk.kc, 12);
  EXPECT_EQ(plain.blk.nc, 20);
  EXPECT_EQ(plan_create<float>(mode, 16, 20, 12, kc4).blk.kc, 12);
  EXPECT_NE(packed.pack.a, model::PackPlan::kNone);
  EXPECT_NE(packed.pack.b, model::PackPlan::kNone);

  const Mode tn{Trans::T, Trans::N};  // never a one-block plan
  Config kc8;
  kc8.kc_override = 8;
  EXPECT_EQ(plan_create<float>(tn, 48, 96, 120, kc8).blk.kc, 8);
  EXPECT_NE(plan_create<float>(tn, 48, 96, 120).blk.kc, 8);
}

// A call that never reaches a kernel - M, N or K = 0, or alpha = 0 - on
// every entry path: it probes no kernel family, reserves no pack arena on
// the calling thread, and leaves beta * C. NT packs B, so any kernel call
// of these shapes would need an arena.
TEST(GemmPlan, DegenerateCallsProbeNothing) {
  struct Case {
    const char* label;
    index_t m, n, k;
    float alpha;
  };
  const Case cases[] = {
      {"alpha=0", 24, 20, 16, 0.0f},
      {"k=0", 24, 20, 0, 1.0f},
      {"m=0", 0, 20, 16, 1.0f},
  };
  enum Path { kGemm, kGemmSerial, kGemmParallel, kHeldSerial, kHeldParallel };
  const char* const path_names[] = {"gemm", "gemm_serial", "gemm_parallel",
                                    "held plan (1 thread)",
                                    "held plan (2 threads)"};
  const Mode mode{Trans::N, Trans::T};
  const float beta = 0.5f;

  for (const Case& c : cases) {
    for (int path = kGemm; path <= kHeldParallel; ++path) {
      SCOPED_TRACE(::testing::Message()
                   << c.label << " via " << path_names[path]);
      testing::Problem<float> p(mode, c.m, c.n, c.k);
      const index_t lda = std::max<index_t>(1, p.a.ld());
      const index_t ldb = std::max<index_t>(1, p.b.ld());
      const index_t ldc = std::max<index_t>(1, p.c.ld());
      Config cfg;
      cfg.threads = path == kGemmParallel || path == kHeldParallel ? 2 : 1;

      // Every variant undecided: a kernel family reached now would probe.
      selfcheck::reset_for_testing();
      const std::uint64_t before = robustness_stats().selfchecks_run;
      std::optional<GemmPlan<float>> held;
      if (path >= kHeldSerial) {
        held.emplace(plan_create<float>(mode, c.m, c.n, c.k, cfg));
        // Only a degenerate shape is known at planning time.
        if (c.alpha != 0.0f) {
          EXPECT_EQ(robustness_stats().selfchecks_run, before)
              << "plan_create probed a kernel family";
        }
      }
      const std::uint64_t probes = robustness_stats().selfchecks_run;

      // A fresh thread's pack arena is empty until a kernel call needs it.
      std::size_t arena_capacity = 0;
      std::thread caller([&] {
        const float* a = p.a.data();
        const float* b = p.b.data();
        float* cc = p.c.data();
        switch (path) {
          case kGemm:
            gemm(mode.a, mode.b, c.m, c.n, c.k, c.alpha, a, lda, b, ldb,
                 beta, cc, ldc);
            break;
          case kGemmSerial:
            gemm_serial(mode, c.m, c.n, c.k, c.alpha, a, lda, b, ldb, beta,
                        cc, ldc, cfg);
            break;
          case kGemmParallel:
            gemm_parallel(mode, c.m, c.n, c.k, c.alpha, a, lda, b, ldb, beta,
                          cc, ldc, cfg);
            break;
          default:
            plan_execute(*held, c.alpha, a, lda, b, ldb, beta, cc, ldc);
        }
        arena_capacity = thread_pack_arena().capacity();
      });
      caller.join();

      EXPECT_EQ(robustness_stats().selfchecks_run, probes)
          << "a call that reaches no kernel probed a kernel family";
      EXPECT_EQ(arena_capacity, 0u);
      Matrix<float> expected = p.c_ref;
      for (index_t i = 0; i < c.m; ++i)
        for (index_t j = 0; j < c.n; ++j) expected(i, j) *= beta;
      expect_bitwise_equal(p.c, expected, c.m, c.n, "beta * C");
    }
  }
  selfcheck::reset_for_testing();
}

/// Restores the analytic blocking even when an assertion bails out.
struct TunedSnapshotGuard {
  TunedSnapshotGuard() { reset_tuned(); }
  ~TunedSnapshotGuard() { reset_tuned(); }
};

TEST(GemmPlan, PublishedTunedBlockingIsPickedUp) {
  TunedSnapshotGuard guard;
  const Mode mode{Trans::T, Trans::N};
  const index_t m = 48, n = 96, k = 120;

  // A fabricated tuner result (running the real timer here would be slow
  // and flaky); what matters is the override plumbing.
  Config overrides;
  overrides.kc_override = 24;
  overrides.mc_override = 28;
  overrides.nc_override = 48;
  Config no_fuse;
  no_fuse.fused_packing = false;
  Config two;
  two.threads = 2;
  const model::Blocking analytic = plan_create<float>(mode, m, n, k).blk;
  const model::Blocking tuned =
      plan_create<float>(mode, m, n, k, overrides).blk;
  ASSERT_NE(analytic.kc, tuned.kc);
  // What the non-matching calls below must keep planning.
  const index_t kc_double = plan_create<double>(mode, m, n, k).blk.kc;
  const index_t kc_other_k = plan_create<float>(mode, m, n, k + 1).blk.kc;
  const index_t kc_no_fuse = plan_create<float>(mode, m, n, k, no_fuse).blk.kc;
  const GemmPlan<float> split = plan_create<float>(mode, m, n, k, two);

  TunedBlocking rec;
  rec.dtype = 's';
  rec.trans_a = true;
  rec.m = m;
  rec.n = n;
  rec.k = k;
  rec.kc = overrides.kc_override;
  rec.mc = overrides.mc_override;
  rec.nc = overrides.nc_override;
  publish_tuned({rec});

  // A plain default-config plan now carries the tuned blocking...
  const GemmPlan<float> plan = plan_create<float>(mode, m, n, k);
  EXPECT_EQ(plan.blk.kc, tuned.kc);
  EXPECT_EQ(plan.blk.mc, tuned.mc);
  EXPECT_EQ(plan.blk.nc, tuned.nc);

  // ...and gemm of the same shape runs it: bitwise equal to the
  // caller-held plan, and still the right answer.
  testing::Problem<float> direct(mode, m, n, k);
  testing::Problem<float> held(mode, m, n, k);
  gemm(mode.a, mode.b, m, n, k, 1.0f, direct.a.data(), direct.a.ld(),
       direct.b.data(), direct.b.ld(), 0.0f, direct.c.data(),
       direct.c.ld());
  plan_execute(plan, 1.0f, held.a.data(), held.a.ld(), held.b.data(),
               held.b.ld(), 0.0f, held.c.data(), held.c.ld());
  expect_bitwise_equal(held.c, direct.c, m, n, "tuned plan vs gemm");
  direct.run_reference(1.0f, 0.0f);
  direct.expect_matches("tuned blocking");

  // Only the exact dtype, shape, thread count and a plain Config match.
  EXPECT_EQ(plan_create<double>(mode, m, n, k).blk.kc, kc_double);
  EXPECT_EQ(plan_create<float>(mode, m, n, k + 1).blk.kc, kc_other_k);
  EXPECT_EQ(plan_create<float>(mode, m, n, k, no_fuse).blk.kc, kc_no_fuse);
  const GemmPlan<float> split_after = plan_create<float>(mode, m, n, k, two);
  ASSERT_EQ(split_after.cells.size(), split.cells.size());
  for (std::size_t i = 0; i < split.cells.size(); ++i)
    EXPECT_EQ(split_after.cells[i].plan.blk.kc, split.cells[i].plan.blk.kc);

  reset_tuned();
  EXPECT_EQ(plan_create<float>(mode, m, n, k).blk.kc, analytic.kc);
}

}  // namespace
}  // namespace shalom
