// Tests for the parallel layer: range splitting invariants, thread-pool
// fork-join behaviour, and parallel-vs-serial result equality across
// thread counts and shapes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>

#include "common/fault.h"
#include "common/health.h"
#include "core/parallel.h"
#include "core/shalom.h"
#include "core/threadpool.h"
#include "tests/test_util.h"

namespace shalom {
namespace {

// ---------------------------------------------------------------------------
// split_range
// ---------------------------------------------------------------------------
class SplitRangeSweep
    : public ::testing::TestWithParam<std::tuple<index_t, int, int>> {};

TEST_P(SplitRangeSweep, CoversExactlyAndAligned) {
  const auto [total, parts, align] = GetParam();
  const auto offs = split_range(total, parts, align);
  ASSERT_EQ(offs.size(), static_cast<std::size_t>(parts) + 1);
  EXPECT_EQ(offs.front(), 0);
  EXPECT_EQ(offs.back(), total);
  for (int p = 0; p < parts; ++p) {
    EXPECT_LE(offs[p], offs[p + 1]);  // monotone, no negative chunks
    if (offs[p + 1] != total) {
      EXPECT_EQ(offs[p + 1] % align, 0) << "interior boundary alignment";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, SplitRangeSweep,
    ::testing::Combine(::testing::Values<index_t>(0, 1, 7, 15, 64, 1000,
                                                  50176),
                       ::testing::Values(1, 2, 3, 7, 64),
                       ::testing::Values(1, 7, 12)));

TEST(SplitRange, BalancedWithinOneTile) {
  const auto offs = split_range(1000, 8, 12);
  index_t min_chunk = 1000, max_chunk = 0;
  for (int p = 0; p < 8; ++p) {
    min_chunk = std::min(min_chunk, offs[p + 1] - offs[p]);
    max_chunk = std::max(max_chunk, offs[p + 1] - offs[p]);
  }
  EXPECT_LE(max_chunk - min_chunk, 12 + 4);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------
TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(4);
  pool.parallel_for(4, [&](int id) { counts[id]++; });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round)
    pool.parallel_for(3, [&](int) { total++; });
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, FewerTasksThanWorkers) {
  ThreadPool pool(8);
  std::set<int> seen;
  std::mutex mu;
  pool.parallel_for(3, [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(id);
  });
  EXPECT_EQ(seen, (std::set<int>{0, 1, 2}));
}

TEST(ThreadPool, SingleTaskRunsInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.parallel_for(1, [&](int) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, GlobalGrowsOnDemand) {
  ThreadPool& a = ThreadPool::global(2);
  EXPECT_GE(a.max_threads(), 2);
  ThreadPool& b = ThreadPool::global(4);
  EXPECT_GE(b.max_threads(), 4);
  EXPECT_EQ(&a, &b) << "the global pool grows in place";
}

// A growth whose spawns fail narrows the pool once; later calls at the
// same width must not spawn again (only the kThreadPool probation does),
// and every call still runs each task exactly once on the narrow pool.
TEST(ThreadPool, FailedGrowthIsNotRetriedPerCall) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  // Wider than anything this process has requested: the global pool is
  // healthy between tests, so its live width is its widest request. A
  // fresh registry keeps an old, elapsed cool-down from re-growing the
  // pool through probation inside the calls under test.
  health::reset_for_testing();
  const int wide = ThreadPool::global(1).max_threads() + 3;
  fault::arm(fault::Site::kThreadpoolSpawn, fault::Mode::kEveryN, 1);
  std::uint64_t injected[3];
  injected[0] = fault::injected(fault::Site::kThreadpoolSpawn);
  for (int call = 1; call <= 2; ++call) {
    std::vector<std::atomic<int>> counts(static_cast<std::size_t>(wide));
    pool_run(wide, [&](int id) {
      counts[static_cast<std::size_t>(id)].fetch_add(1);
    });
    for (int id = 0; id < wide; ++id)
      EXPECT_EQ(counts[static_cast<std::size_t>(id)].load(), 1)
          << "call " << call << " task " << id;
    injected[call] = fault::injected(fault::Site::kThreadpoolSpawn);
  }
  fault::disarm_all();
  EXPECT_GT(injected[1], injected[0]) << "the first call tries to grow";
  EXPECT_EQ(injected[2], injected[1]) << "the second call must not respawn";
  // Leave the global pool healthy for the rest of the process.
  EXPECT_TRUE(ThreadPool::global(1).try_recover());
  EXPECT_EQ(ThreadPool::global(1).max_threads(), wide);
  health::reset_for_testing();
}

// Growth spawns workers into the pool that live rounds are running on:
// callers looping 2-task rounds while another thread widens the global
// pool must see every task run exactly once.
TEST(ThreadPool, GrowthRacesLiveRounds) {
  ThreadPool::global(2);
  std::atomic<int> bad{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int round = 0; round < 200; ++round) {
        std::atomic<int> counts[2] = {{0}, {0}};
        pool_run(2, [&](int id) {
          counts[id].fetch_add(1, std::memory_order_relaxed);
        });
        for (auto& n : counts)
          if (n.load(std::memory_order_relaxed) != 1)
            bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread grower([&] {
    go.store(true, std::memory_order_release);
    for (int w = 2; w <= 8; ++w) ThreadPool::global(w);
  });
  grower.join();
  for (auto& t : callers) t.join();
  EXPECT_EQ(bad.load(), 0) << "a task was lost or ran twice";
  EXPECT_GE(ThreadPool::global(1).max_threads(), 8);
}

// Regression for the documented contract: tasks must lie in
// [1, max_threads]. Oversubscription is a hard error with an actionable
// message, never silent queueing.
TEST(ThreadPool, RejectsTooManyTasks) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(3, [](int) {}), invalid_argument);
  try {
    pool.parallel_for(3, [](int) {});
    FAIL() << "expected invalid_argument";
  } catch (const invalid_argument& e) {
    EXPECT_NE(std::strstr(e.what(), "max_threads"), nullptr)
        << "got: " << e.what();
    EXPECT_NE(std::strstr(e.what(), "tasks=3"), nullptr)
        << "got: " << e.what();
  }
  EXPECT_THROW(pool.parallel_for(0, [](int) {}), invalid_argument);
  EXPECT_THROW(pool.parallel_for(-1, [](int) {}), invalid_argument);
  // The pool survives rejected calls.
  std::atomic<int> ran{0};
  pool.parallel_for(2, [&](int) { ran++; });
  EXPECT_EQ(ran.load(), 2);
}

// pool_run is the width-tolerant wrapper: any task count is legal and the
// global pool grows (or chunks) to cover it.
TEST(PoolRun, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> counts(6);
  pool_run(6, [&](int id) { counts[id]++; });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(PoolRun, SingleTaskRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool_run(1, [&](int) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(PoolRun, RejectsNonPositiveTasks) {
  EXPECT_THROW(pool_run(0, [](int) {}), invalid_argument);
  EXPECT_THROW(pool_run(-2, [](int) {}), invalid_argument);
}

// ---------------------------------------------------------------------------
// Parallel GEMM equals serial GEMM.
// ---------------------------------------------------------------------------
class ParallelGemmSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ParallelGemmSweep, MatchesOracleAllModes) {
  const auto [threads, m, n, k] = GetParam();
  for (Mode mode : testing::kAllModes) {
    testing::Problem<float> p(mode, m, n, k);
    Config cfg;
    cfg.threads = threads;
    gemm(mode.a, mode.b, p.m, p.n, p.k, 1.5f, p.a.data(), p.a.ld(),
         p.b.data(), p.b.ld(), 0.5f, p.c.data(), p.c.ld(), cfg);
    p.run_reference(1.5f, 0.5f);
    p.expect_matches("parallel gemm");
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndShapes, ParallelGemmSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 8),
                       ::testing::Values(13, 32, 130),
                       ::testing::Values(24, 250),
                       ::testing::Values(40, 170)));

TEST(ParallelGemm, IrregularShapes) {
  for (int threads : {2, 4}) {
    for (auto [m, n] : {std::pair<index_t, index_t>{16, 1500},
                        {1500, 16},
                        {7, 777}}) {
      testing::Problem<float> p({Trans::N, Trans::T}, m, n, 300);
      Config cfg;
      cfg.threads = threads;
      gemm(Trans::N, Trans::T, p.m, p.n, p.k, 1.f, p.a.data(), p.a.ld(),
           p.b.data(), p.b.ld(), 0.f, p.c.data(), p.c.ld(), cfg);
      p.run_reference(1.f, 0.f);
      p.expect_matches("irregular parallel");
    }
  }
}

TEST(ParallelGemm, ThreadsZeroMeansAllCores) {
  testing::Problem<float> p({Trans::N, Trans::N}, 64, 256, 64);
  Config cfg;
  cfg.threads = 0;
  gemm(Trans::N, Trans::N, p.m, p.n, p.k, 1.f, p.a.data(), p.a.ld(),
       p.b.data(), p.b.ld(), 0.f, p.c.data(), p.c.ld(), cfg);
  p.run_reference(1.f, 0.f);
  p.expect_matches("threads=0");
}

TEST(ParallelGemm, MoreThreadsThanTiles) {
  // 8x8 with 16 threads: the partition must clamp, not crash or misplace.
  testing::Problem<float> p({Trans::N, Trans::N}, 8, 8, 8);
  Config cfg;
  cfg.threads = 16;
  gemm(Trans::N, Trans::N, p.m, p.n, p.k, 1.f, p.a.data(), p.a.ld(),
       p.b.data(), p.b.ld(), 0.f, p.c.data(), p.c.ld(), cfg);
  p.run_reference(1.f, 0.f);
  p.expect_matches("overprovisioned");
}

}  // namespace
}  // namespace shalom
