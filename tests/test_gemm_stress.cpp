// Concurrency stress for the planning and execution paths: many threads
// hammer overlapping shape sets through gemm while the main thread drives
// gemm_batch over the fork-join pool, so per-call planning, the per-thread
// pack arenas and the pool all race. Asserts numerically correct results
// on every thread; run under `ctest -L stress`, and build with
// -DSHALOM_SANITIZE=thread to have ThreadSanitizer check the same run
// (scripts/tier1.sh does exactly that).
//
// The work-stealing ThreadPool overlaps fork-join rounds from independent
// callers and is safe to drive from several threads concurrently (the
// documented plan contract); the tests below exercise exactly that -
// shared parallel plans executed from many threads at once, and racing
// parallel gemm calls whose rounds contend for the pool and grow the
// workers' arenas on first use.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/plan.h"
#include "core/shalom.h"
#include "tests/test_util.h"

namespace shalom {
namespace {

struct StressShape {
  Mode mode;
  index_t m, n, k;
};

// Overlapping working set: every thread cycles through all of it, so the
// same shapes are planned and executed by several threads at once.
std::vector<StressShape> stress_shapes() {
  std::vector<StressShape> shapes;
  for (const Mode mode : testing::kAllModes) {
    shapes.push_back({mode, 7, 12, 8});
    shapes.push_back({mode, 13, 9, 21});
    shapes.push_back({mode, 24, 24, 24});
    shapes.push_back({mode, 5, 37, 16});
    shapes.push_back({mode, 31, 6, 30});
  }
  return shapes;
}

/// Worker body: runs `iters` serial GEMMs over the shape set and
/// reports the worst deviation from the naive oracle. GTest assertions
/// are not thread-safe, so failures are accumulated and checked by the
/// main thread after the join.
void hammer(const std::vector<StressShape>& shapes, int thread_id,
            int iters, std::atomic<int>* mismatches) {
  Config cfg;
  cfg.threads = 1;  // serial products; arenas and the pool are shared
  for (int it = 0; it < iters; ++it) {
    const StressShape& s = shapes[(thread_id + it) % shapes.size()];
    testing::Problem<float> p(s.mode, s.m, s.n, s.k);
    const float alpha = (it % 3 == 0) ? -1.0f : 1.0f;
    const float beta = (it % 2 == 0) ? 0.0f : 0.5f;
    gemm(s.mode.a, s.mode.b, s.m, s.n, s.k, alpha, p.a.data(), p.a.ld(),
         p.b.data(), p.b.ld(), beta, p.c.data(), p.c.ld(), cfg);
    p.run_reference(alpha, beta);
    const double tol = testing::gemm_tolerance<float>(s.k);
    for (index_t i = 0; i < s.m; ++i) {
      for (index_t j = 0; j < s.n; ++j) {
        if (!(std::fabs(static_cast<double>(p.c(i, j)) -
                        static_cast<double>(p.c_ref(i, j))) <= tol)) {
          mismatches->fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    }
  }
}

TEST(GemmStress, ConcurrentHammerWithBatch) {
  const std::vector<StressShape> shapes = stress_shapes();
  constexpr int kThreads = 8;
  constexpr int kIters = 60;

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(hammer, std::cref(shapes), t, kIters, &mismatches);

  // Meanwhile: batched traffic through the fork-join pool, whose workers
  // plan every entry in place.
  const Mode batch_mode{Trans::N, Trans::T};
  Config batch_cfg;
  batch_cfg.threads = 4;
  for (int round = 0; round < 10; ++round) {
    std::vector<testing::Problem<float>> problems;
    problems.reserve(12);
    for (int e = 0; e < 12; ++e) {
      const StressShape& s = shapes[(e + round) % shapes.size()];
      problems.emplace_back(batch_mode, s.m, s.n, s.k);
    }
    std::vector<BatchEntry<float>> batch;
    for (auto& p : problems) {
      batch.push_back({p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(),
                       p.b.data(), p.b.ld(), 0.0f, p.c.data(), p.c.ld()});
    }
    gemm_batch(batch_mode, batch, batch_cfg);
    for (auto& p : problems) {
      p.run_reference(1.0f, 0.0f);
      p.expect_matches("stress batch");
    }
  }

  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "some hammer thread produced a wrong product";
}

TEST(GemmStress, RacingCallersOnOneShapeAgree) {
  // All threads plan and run the same shape at once: every call must
  // return a correct product.
  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mismatches] {
      const Mode mode{Trans::T, Trans::T};
      Config cfg;
      cfg.threads = 1;
      testing::Problem<float> p(mode, 17, 23, 29);
      gemm(mode.a, mode.b, 17, 23, 29, 1.0f, p.a.data(), p.a.ld(),
           p.b.data(), p.b.ld(), 0.0f, p.c.data(), p.c.ld(), cfg);
      p.run_reference(1.0f, 0.0f);
      const double tol = testing::gemm_tolerance<float>(29);
      for (index_t i = 0; i < 17; ++i)
        for (index_t j = 0; j < 23; ++j)
          if (!(std::fabs(static_cast<double>(p.c(i, j)) -
                          static_cast<double>(p.c_ref(i, j))) <= tol))
            mismatches.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// Counts elements of p.c that deviate from p.c_ref beyond tolerance
/// (GTest assertions are not thread-safe; workers tally, main asserts).
int count_mismatches(const testing::Problem<float>& p) {
  const double tol = testing::gemm_tolerance<float>(p.k);
  int bad = 0;
  for (index_t i = 0; i < p.m; ++i)
    for (index_t j = 0; j < p.n; ++j)
      if (!(std::fabs(static_cast<double>(p.c(i, j)) -
                      static_cast<double>(p.c_ref(i, j))) <= tol))
        ++bad;
  return bad;
}

TEST(GemmStress, ConcurrentParallelPlanExecution) {
  // Many threads execute one shared threads>1 plan simultaneously: their
  // fork-join rounds overlap on the work-stealing pool, and every
  // execution must still produce the exact product (the documented plan
  // contract).
  const Mode mode{Trans::N, Trans::N};
  const index_t m = 96, n = 192, k = 64;
  Config cfg;
  cfg.threads = 4;
  const GemmPlan<float> plan = plan_create<float>(mode, m, n, k, cfg);
  if (plan.threads <= 1)
    GTEST_SKIP() << "partition collapsed to serial on this machine";

  constexpr int kCallers = 6;
  constexpr int kIters = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      testing::Problem<float> p(mode, m, n, k);
      p.run_reference(1.0f, 0.0f);
      for (int it = 0; it < kIters; ++it) {
        plan_execute(plan, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
                     p.b.ld(), 0.0f, p.c.data(), p.c.ld());
        mismatches.fetch_add(count_mismatches(p),
                             std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "concurrent executions of a shared parallel plan diverged";
}

TEST(GemmStress, RacingParallelPlanCreators) {
  // Concurrent threads>1 calls on fresh shapes: each plans in place and
  // runs its fork-join round, contending for the pool with the other
  // callers while the workers grow their arenas on first use.
  constexpr int kCreators = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> creators;
  creators.reserve(kCreators);
  for (int t = 0; t < kCreators; ++t) {
    creators.emplace_back([&mismatches, t] {
      const Mode mode{Trans::N, Trans::N};
      // Distinct shapes per thread: every call is a fresh parallel plan.
      const index_t m = 64 + 16 * (t % 4);
      const index_t n = 96 + 12 * (t % 3);
      const index_t k = 48;
      Config cfg;
      cfg.threads = 2 + t % 3;
      testing::Problem<float> p(mode, m, n, k);
      gemm(mode.a, mode.b, m, n, k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
           p.b.ld(), 0.5f, p.c.data(), p.c.ld(), cfg);
      p.run_reference(1.0f, 0.5f);
      mismatches.fetch_add(count_mismatches(p), std::memory_order_relaxed);
    });
  }
  for (auto& t : creators) t.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "racing parallel plan creation/execution produced wrong products";
}

}  // namespace
}  // namespace shalom
