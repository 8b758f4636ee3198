// Concurrency battery for the execution engine: the fork-join
// ThreadPool with overlapping rounds, the caller-inline help path, the
// wedged-worker fault behaviour, and the asynchronous GemmStream
// front-end. Labelled `engine`; scripts/tier1.sh re-runs this suite (with
// the stress label) under ThreadSanitizer, so every test here must also
// be race-clean by construction - no unsynchronized test-side state.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "core/engine.h"
#include "core/shalom.h"
#include "core/threadpool.h"
#include "tests/test_util.h"

namespace shalom {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm_all();
    robustness_stats_reset();
  }
  void TearDown() override { fault::disarm_all(); }
};

// ---------------------------------------------------------------------------
// Concurrent clients: bitwise determinism
// ---------------------------------------------------------------------------

/// Counts elementwise bitwise differences between two same-shape matrices
/// (GTest assertions are not thread-safe; clients tally, main asserts).
int count_bitwise_diffs(const Matrix<float>& got, const Matrix<float>& want) {
  int bad = 0;
  for (index_t i = 0; i < got.rows(); ++i)
    for (index_t j = 0; j < got.cols(); ++j)
      if (std::memcmp(&got(i, j), &want(i, j), sizeof(float)) != 0) ++bad;
  return bad;
}

// N clients x M shapes: every client's product under full round overlap
// must be bitwise identical to the same call run in isolation. The
// partition assigns each C sub-block to exactly one task with a fixed
// serial loop nest, so WHICH thread claims a task must never show up in
// the arithmetic.
TEST_F(EngineTest, ConcurrentClientsBitwiseMatchIsolatedRuns) {
  struct Case {
    Mode mode;
    index_t m, n, k;
  };
  const std::vector<Case> cases = {
      {{Trans::N, Trans::N}, 48, 96, 32},  {{Trans::N, Trans::T}, 13, 57, 21},
      {{Trans::T, Trans::N}, 64, 40, 48},  {{Trans::N, Trans::N}, 7, 9, 120},
      {{Trans::T, Trans::T}, 33, 33, 33},
  };
  Config cfg;
  cfg.threads = 3;

  // Isolated reference pass: same cfg, no concurrency.
  std::vector<testing::Problem<float>> problems;
  std::vector<Matrix<float>> c0;  // pristine C inputs, pre-reference
  problems.reserve(cases.size());
  for (const Case& s : cases) {
    problems.emplace_back(s.mode, s.m, s.n, s.k);
    testing::Problem<float>& p = problems.back();
    c0.push_back(p.c);
    gemm(s.mode.a, s.mode.b, s.m, s.n, s.k, 1.25f, p.a.data(), p.a.ld(),
         p.b.data(), p.b.ld(), 0.5f, p.c.data(), p.c.ld(), cfg);
  }

  constexpr int kClients = 8;
  constexpr int kIters = 6;
  std::atomic<int> diffs{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        const std::size_t s = (static_cast<std::size_t>(t) + it) % cases.size();
        const testing::Problem<float>& p = problems[s];
        Matrix<float> c = c0[s];  // private output, same initial contents
        gemm(p.mode.a, p.mode.b, p.m, p.n, p.k, 1.25f, p.a.data(), p.a.ld(),
             p.b.data(), p.b.ld(), 0.5f, c.data(), c.ld(), cfg);
        diffs.fetch_add(count_bitwise_diffs(c, p.c),
                        std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(diffs.load(std::memory_order_relaxed), 0)
      << "concurrent execution changed some product bitwise";
}

// ---------------------------------------------------------------------------
// Round overlap: the tentpole property
// ---------------------------------------------------------------------------

// Two independent callers' rounds must genuinely be in flight at once.
// Task 0 of each round (always run by its submitting thread) rendezvouses
// with the other round's task 0; the deadline keeps a scheduler regression
// from hanging the suite - the assertion below fails instead.
TEST_F(EngineTest, IndependentRoundsOverlap) {
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  const auto rendezvous = [&arrived] {
    arrived.fetch_add(1, std::memory_order_acq_rel);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (arrived.load(std::memory_order_acquire) < 2 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  };
  std::vector<std::thread> callers;
  for (int caller = 0; caller < 2; ++caller) {
    callers.emplace_back([&] {
      pool.parallel_for(
          2,
          [&](int t) {
            if (t == 0) rendezvous();
          },
          /*watchdog_ms=*/0);
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(arrived.load(std::memory_order_acquire), 2)
      << "the two rounds never ran concurrently (rendezvous timed out)";
  EXPECT_GE(pool.max_overlapped_rounds_for_testing(), 2);
}

// Many callers' rounds on one small pool: 4 callers x 8 rounds, each
// round checked for every task running exactly once. (The name is kept
// from the retired one-round-at-a-time admission mode; what survives of
// it is the exactly-once property under contention.)
TEST_F(EngineTest, SerializedRoundsDoNotOverlap) {
  ThreadPool pool(2);
  std::atomic<int> runs{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int caller = 0; caller < 4; ++caller) {
    callers.emplace_back([&] {
      for (int round = 0; round < 8; ++round) {
        std::atomic<int> counts[2] = {{0}, {0}};
        pool.parallel_for(
            2,
            [&](int t) {
              counts[t].fetch_add(1, std::memory_order_relaxed);
              runs.fetch_add(1, std::memory_order_relaxed);
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            },
            /*watchdog_ms=*/0);
        for (auto& c : counts)
          if (c.load(std::memory_order_relaxed) != 1)
            bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(bad.load(std::memory_order_relaxed), 0)
      << "a task was lost or ran twice";
  EXPECT_EQ(runs.load(std::memory_order_relaxed), 4 * 8 * 2);
}

// ---------------------------------------------------------------------------
// Exactly-once rounds and wedged workers
// ---------------------------------------------------------------------------

// Load balance is the partition's job, never correctness: 20 4-task
// rounds each run every task exactly once, and a threads=4 gemm matches
// the oracle. (The name is kept from the retired steal fault site, whose
// subject - a scheduler hint failing - no longer exists.)
TEST_F(EngineTest, StealFaultDegradesOnlyLoadBalance) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> counts(4);
    pool.parallel_for(
        4, [&](int t) { counts[t].fetch_add(1, std::memory_order_relaxed); },
        /*watchdog_ms=*/0);
    for (auto& c : counts)
      ASSERT_EQ(c.load(std::memory_order_relaxed), 1)
          << "task lost or duplicated in round " << round;
  }

  testing::Problem<float> p({Trans::N, Trans::T}, 60, 90, 40);
  Config cfg;
  cfg.threads = 4;
  gemm(Trans::N, Trans::T, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(),
       p.b.data(), p.b.ld(), 0.0f, p.c.data(), p.c.ld(), cfg);
  p.run_reference(1.0f, 0.0f);
  p.expect_matches("threads=4 gemm");
}

// Even when EVERY worker that picks up work wedges, a watchdog-free round
// completes: the leader's inline claim-scan runs whatever the wedged
// workers dropped. This is the "submitters never block idle" guarantee.
TEST_F(EngineTest, LeaderCompletesRoundWhenAllWorkersWedge) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(4);
  fault::arm(fault::Site::kThreadpoolHeartbeat, fault::Mode::kEveryN, 1);
  pool.parallel_for(
      4, [&](int t) { counts[t].fetch_add(1, std::memory_order_relaxed); },
      /*watchdog_ms=*/0);
  fault::disarm_all();
  for (int t = 0; t < 4; ++t)
    EXPECT_EQ(counts[static_cast<std::size_t>(t)].load(
                  std::memory_order_relaxed),
              1)
        << "task " << t;
}

// Wedge-recovery regression: a worker wedged at pickup (it drew a
// task but claimed nothing; the round's other tasks stay with the live
// workers) must be recovered by the watchdog leader with every task run
// exactly once, and the pool marked degraded.
TEST_F(EngineTest, WatchdogRecoversWedgedWorkerUnderStealing) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  ThreadPool pool(4);
  if (pool.max_threads() < 4)
    GTEST_SKIP() << "could not spawn 3 workers on this host";

  std::vector<std::atomic<int>> counts(4);
  fault::arm(fault::Site::kThreadpoolHeartbeat, fault::Mode::kOnce);
  pool.parallel_for(
      4, [&](int t) { counts[t].fetch_add(1, std::memory_order_relaxed); },
      /*watchdog_ms=*/100);
  fault::disarm_all();

  for (int t = 0; t < 4; ++t)
    EXPECT_EQ(counts[static_cast<std::size_t>(t)].load(
                  std::memory_order_relaxed),
              1)
        << "task " << t << " must run exactly once";
  EXPECT_TRUE(pool.degraded());
  EXPECT_GE(robustness_stats().watchdog_trips, 1u);
}

// ---------------------------------------------------------------------------
// GemmStream: asynchronous submission
// ---------------------------------------------------------------------------

TEST_F(EngineTest, StreamSubmitFlushMatchesReference) {
  engine::GemmStream stream;
  testing::Problem<float> pf({Trans::N, Trans::N}, 24, 36, 16);
  testing::Problem<double> pd({Trans::T, Trans::N}, 17, 11, 23);

  engine::TicketPtr tf = stream.submit<float>(
      pf.mode, pf.m, pf.n, pf.k, 1.5f, pf.a.data(), pf.a.ld(), pf.b.data(),
      pf.b.ld(), 0.25f, pf.c.data(), pf.c.ld());
  engine::TicketPtr td = stream.submit<double>(
      pd.mode, pd.m, pd.n, pd.k, -1.0, pd.a.data(), pd.a.ld(), pd.b.data(),
      pd.b.ld(), 0.5, pd.c.data(), pd.c.ld());
  stream.flush();

  ASSERT_TRUE(tf->done());
  ASSERT_TRUE(td->done());
  EXPECT_EQ(tf->wait(), 0);
  EXPECT_EQ(td->wait(), 0);
  EXPECT_EQ(tf->message(), "");

  pf.run_reference(1.5f, 0.25f);
  pf.expect_matches("stream float");
  pd.run_reference(-1.0, 0.5);
  pd.expect_matches("stream double");

  const engine::StreamStats st = stream.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.executed, 2u);
  EXPECT_GE(st.batches, 1u);
  EXPECT_LE(st.batches, st.executed)
      << "coalescing can only merge requests, never split them";
}

TEST_F(EngineTest, StreamWaitIsIdempotentAndBlocksUntilDone) {
  engine::GemmStream stream;
  testing::Problem<float> p({Trans::N, Trans::N}, 32, 32, 32);
  engine::TicketPtr t = stream.submit<float>(
      p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
      p.b.ld(), 0.0f, p.c.data(), p.c.ld());
  EXPECT_EQ(t->wait(), 0);  // blocks until the drainer executed it
  EXPECT_TRUE(t->done());
  EXPECT_EQ(t->wait(), 0);  // idempotent re-wait
  EXPECT_EQ(t->status(), 0);
  p.run_reference(1.0f, 0.0f);
  p.expect_matches("stream wait");
}

// Many clients share one stream; every ticket resolves OK and every
// product is right. Each client owns its problem storage for the full
// submit -> wait window (the documented buffer-lifetime contract).
TEST_F(EngineTest, ManyClientsOneStream) {
  engine::GemmStream stream;
  constexpr int kClients = 4;
  constexpr int kPerClient = 10;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      std::vector<testing::Problem<float>> ps;
      std::vector<engine::TicketPtr> tickets;
      ps.reserve(kPerClient);
      tickets.reserve(kPerClient);
      for (int i = 0; i < kPerClient; ++i) {
        // A few distinct shapes per client, repeated, so the drainer sees
        // coalescable duplicates from different clients.
        const index_t m = 8 + 4 * (i % 3);
        const index_t n = 12 + 4 * (t % 2);
        ps.emplace_back(Mode{Trans::N, Trans::N}, m, n, 16);
        testing::Problem<float>& p = ps.back();
        tickets.push_back(stream.submit<float>(
            p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
            p.b.ld(), 0.5f, p.c.data(), p.c.ld()));
      }
      for (int i = 0; i < kPerClient; ++i) {
        if (tickets[static_cast<std::size_t>(i)]->wait() != 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        testing::Problem<float>& p = ps[static_cast<std::size_t>(i)];
        p.run_reference(1.0f, 0.5f);
        const double tol = testing::gemm_tolerance<float>(p.k);
        for (index_t r = 0; r < p.m; ++r)
          for (index_t c = 0; c < p.n; ++c)
            if (!(std::fabs(static_cast<double>(p.c(r, c)) -
                            static_cast<double>(p.c_ref(r, c))) <= tol))
              mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0);
  const engine::StreamStats st = stream.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(st.executed, st.submitted);
}

TEST_F(EngineTest, StreamDestructorDrainsPending) {
  testing::Problem<float> p({Trans::N, Trans::T}, 20, 30, 25);
  engine::TicketPtr ticket;
  {
    engine::GemmStream stream;
    ticket = stream.submit<float>(p.mode, p.m, p.n, p.k, 2.0f, p.a.data(),
                                  p.a.ld(), p.b.data(), p.b.ld(), 0.0f,
                                  p.c.data(), p.c.ld());
    // No flush: destruction itself must execute the request.
  }
  ASSERT_TRUE(ticket->done());
  EXPECT_EQ(ticket->wait(), 0);
  p.run_reference(2.0f, 0.0f);
  p.expect_matches("drained by destructor");
}

TEST_F(EngineTest, StreamSubmitValidatesOnCallingThread) {
  engine::GemmStream stream;
  testing::Problem<float> p({Trans::N, Trans::N}, 8, 8, 8);
  EXPECT_THROW(stream.submit<float>(p.mode, p.m, p.n, p.k, 1.0f,
                                    p.a.data(), /*lda=*/2, p.b.data(),
                                    p.b.ld(), 0.0f, p.c.data(), p.c.ld()),
               invalid_argument);
  EXPECT_EQ(stream.stats().submitted, 0u)
      << "a rejected submission must not enter the queue";
}

// A transient enqueue failure (kOnce) is absorbed by the submit retry
// budget: the caller never sees it, only the retry counters move.
TEST_F(EngineTest, SubmitQueueFaultAbsorbedByRetry) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  engine::GemmStream stream;
  testing::Problem<float> p({Trans::N, Trans::N}, 16, 16, 16);

  fault::arm(fault::Site::kSubmitQueue, fault::Mode::kOnce);
  engine::TicketPtr t = stream.submit<float>(
      p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
      p.b.ld(), 0.0f, p.c.data(), p.c.ld());
  fault::disarm_all();
  EXPECT_EQ(t->wait(), 0);
  p.run_reference(1.0f, 0.0f);
  p.expect_matches("submit retried past a transient fault");
  EXPECT_GE(stream.stats().retries, 1u);
  EXPECT_GE(robustness_stats().submit_retries, 1u);
}

// A persistent enqueue failure (every-1) exhausts the retry budget and
// surfaces as std::bad_alloc with the queue unchanged (strong guarantee).
TEST_F(EngineTest, SubmitQueueFaultRejectsBeforeQueueing) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  engine::StreamOptions opts;
  opts.retry_budget = 0;  // no point backing off from a permanent fault
  engine::GemmStream stream(opts);
  testing::Problem<float> p({Trans::N, Trans::N}, 16, 16, 16);

  fault::arm(fault::Site::kSubmitQueue, fault::Mode::kEveryN, 1);
  EXPECT_THROW(stream.submit<float>(p.mode, p.m, p.n, p.k, 1.0f, p.a.data(),
                                    p.a.ld(), p.b.data(), p.b.ld(), 0.0f,
                                    p.c.data(), p.c.ld()),
               std::bad_alloc);
  fault::disarm_all();
  EXPECT_EQ(stream.stats().submitted, 0u) << "strong guarantee: no residue";

  // The stream survives the rejection and keeps serving.
  engine::TicketPtr t = stream.submit<float>(
      p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
      p.b.ld(), 0.0f, p.c.data(), p.c.ld());
  EXPECT_EQ(t->wait(), 0);
  p.run_reference(1.0f, 0.0f);
  p.expect_matches("submit after rejected submit");
}

// ---------------------------------------------------------------------------
// Admission control, deadlines, cancellation
// ---------------------------------------------------------------------------

/// A request big enough to keep the single drainer busy for a while, so
/// later submissions observably queue behind it on any host. Tests that
/// use it stay tolerant of fast machines: "still queued" outcomes are
/// asserted only when they actually happened.
testing::Problem<float> make_busy_problem() {
  return testing::Problem<float>({Trans::N, Trans::N}, 192, 192, 192);
}

// The engine.deadline fault site expires swept requests deterministically
// (no real clock dependence): the ticket resolves SHALOM_ERR_TIMEOUT and
// the output buffer is never touched.
TEST_F(EngineTest, DeadlineFaultExpiresQueuedRequestWithoutTouchingC) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  engine::GemmStream stream;
  testing::Problem<float> p({Trans::N, Trans::N}, 16, 16, 16);
  const Matrix<float> pristine = p.c;

  fault::arm(fault::Site::kEngineDeadline, fault::Mode::kEveryN, 1);
  engine::TicketPtr t = stream.submit<float>(
      p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
      p.b.ld(), 0.0f, p.c.data(), p.c.ld(), /*deadline_ms=*/1000);
  EXPECT_EQ(t->wait(), SHALOM_ERR_TIMEOUT);
  fault::disarm_all();

  EXPECT_EQ(count_bitwise_diffs(p.c, pristine), 0)
      << "an expired request must never write to C";
  EXPECT_NE(t->message(), "");
  const engine::StreamStats st = stream.stats();
  EXPECT_EQ(st.submitted, 1u);
  EXPECT_GE(st.expired, 1u);
  EXPECT_EQ(st.executed, 0u);
  EXPECT_GE(robustness_stats().requests_expired, 1u);

  // The stream keeps serving after the expiry.
  engine::TicketPtr ok = stream.submit<float>(
      p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
      p.b.ld(), 0.0f, p.c.data(), p.c.ld());
  EXPECT_EQ(ok->wait(), SHALOM_OK);
}

// A real (clock-driven) deadline behind a busy drainer: the request
// either executed in time (bitwise-correct) or expired - never both,
// never neither, and the stats reconcile exactly.
TEST_F(EngineTest, RealDeadlineEitherExecutesOrExpires) {
  engine::GemmStream stream;
  testing::Problem<float> busy = make_busy_problem();
  testing::Problem<float> p({Trans::N, Trans::N}, 16, 16, 16);
  const Matrix<float> pristine = p.c;

  engine::TicketPtr tb = stream.submit<float>(
      busy.mode, busy.m, busy.n, busy.k, 1.0f, busy.a.data(), busy.a.ld(),
      busy.b.data(), busy.b.ld(), 0.0f, busy.c.data(), busy.c.ld());
  engine::TicketPtr t = stream.submit<float>(
      p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
      p.b.ld(), 0.0f, p.c.data(), p.c.ld(), /*deadline_ms=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  EXPECT_EQ(tb->wait(), SHALOM_OK);
  const int status = t->wait();
  if (status == SHALOM_OK) {
    p.run_reference(1.0f, 0.0f);
    p.expect_matches("deadline race, executed in time");
  } else {
    EXPECT_EQ(status, SHALOM_ERR_TIMEOUT);
    EXPECT_EQ(count_bitwise_diffs(p.c, pristine), 0);
  }
  const engine::StreamStats st = stream.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.executed + st.expired, 2u)
      << "every accepted request resolves exactly one way";
}

// The engine.shed fault rejects the incoming submission before queueing.
TEST_F(EngineTest, EngineShedFaultRejectsSubmission) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  engine::GemmStream stream;
  testing::Problem<float> p({Trans::N, Trans::N}, 16, 16, 16);

  fault::arm(fault::Site::kEngineShed, fault::Mode::kOnce);
  EXPECT_THROW(stream.submit<float>(p.mode, p.m, p.n, p.k, 1.0f, p.a.data(),
                                    p.a.ld(), p.b.data(), p.b.ld(), 0.0f,
                                    p.c.data(), p.c.ld()),
               rejected_error);
  fault::disarm_all();
  EXPECT_EQ(stream.stats().submitted, 0u);
  EXPECT_EQ(stream.stats().shed, 1u);
  EXPECT_GE(robustness_stats().requests_shed, 1u);

  engine::TicketPtr t = stream.submit<float>(
      p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
      p.b.ld(), 0.0f, p.c.data(), p.c.ld());
  EXPECT_EQ(t->wait(), SHALOM_OK);
  p.run_reference(1.0f, 0.0f);
  p.expect_matches("submit after shed");
}

// shed-newest at capacity: accepted + shed always equals attempts, shed
// submissions throw rejected_error, and every accepted request still
// produces the right product.
TEST_F(EngineTest, ShedNewestPolicyBookkeepsEveryAttempt) {
  engine::StreamOptions opts;
  opts.queue_cap = 1;
  opts.overload_policy = static_cast<int>(engine::OverloadPolicy::kShedNewest);
  engine::GemmStream stream(opts);

  testing::Problem<float> busy = make_busy_problem();
  engine::TicketPtr tb = stream.submit<float>(
      busy.mode, busy.m, busy.n, busy.k, 1.0f, busy.a.data(), busy.a.ld(),
      busy.b.data(), busy.b.ld(), 0.0f, busy.c.data(), busy.c.ld());

  constexpr int kAttempts = 6;
  std::vector<testing::Problem<float>> ps;
  std::vector<engine::TicketPtr> tickets;
  ps.reserve(kAttempts);
  int shed = 0;
  for (int i = 0; i < kAttempts; ++i) {
    ps.emplace_back(Mode{Trans::N, Trans::N}, 12, 12, 12);
    testing::Problem<float>& p = ps.back();
    try {
      tickets.push_back(stream.submit<float>(
          p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
          p.b.ld(), 0.0f, p.c.data(), p.c.ld()));
    } catch (const rejected_error&) {
      ++shed;
      tickets.push_back(nullptr);
    }
  }
  EXPECT_EQ(stream.flush(), SHALOM_OK);
  EXPECT_EQ(tb->wait(), SHALOM_OK);

  const engine::StreamStats st = stream.stats();
  EXPECT_EQ(st.submitted + st.shed, 1u + kAttempts);
  EXPECT_EQ(st.shed, static_cast<std::uint64_t>(shed));
  for (int i = 0; i < kAttempts; ++i) {
    if (tickets[static_cast<std::size_t>(i)] == nullptr) continue;
    testing::Problem<float>& p = ps[static_cast<std::size_t>(i)];
    ASSERT_EQ(tickets[static_cast<std::size_t>(i)]->wait(), SHALOM_OK);
    p.run_reference(1.0f, 0.0f);
    p.expect_matches("accepted under shed-newest");
  }
}

// shed-oldest at capacity: a queued ticket may be revoked in favor of a
// newer arrival; it then resolves SHALOM_ERR_REJECTED with C untouched.
TEST_F(EngineTest, ShedOldestPolicyRevokesQueuedTicket) {
  engine::StreamOptions opts;
  opts.queue_cap = 1;
  opts.overload_policy = static_cast<int>(engine::OverloadPolicy::kShedOldest);
  engine::GemmStream stream(opts);

  testing::Problem<float> busy = make_busy_problem();
  const Matrix<float> busy_pristine = busy.c;
  engine::TicketPtr tb = stream.submit<float>(
      busy.mode, busy.m, busy.n, busy.k, 1.0f, busy.a.data(), busy.a.ld(),
      busy.b.data(), busy.b.ld(), 0.0f, busy.c.data(), busy.c.ld());

  constexpr int kAttempts = 4;
  std::vector<testing::Problem<float>> ps;
  std::vector<Matrix<float>> pristine;
  std::vector<engine::TicketPtr> tickets;
  ps.reserve(kAttempts);
  for (int i = 0; i < kAttempts; ++i) {
    ps.emplace_back(Mode{Trans::N, Trans::N}, 12, 12, 12);
    testing::Problem<float>& p = ps.back();
    pristine.push_back(p.c);
    tickets.push_back(stream.submit<float>(
        p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
        p.b.ld(), 0.0f, p.c.data(), p.c.ld()));
  }
  EXPECT_EQ(stream.flush(), SHALOM_OK);

  // The busy ticket itself may be the "oldest" shed if the drainer had not
  // claimed it before the first small submission hit the cap.
  int executed = 0;
  const int tb_status = tb->wait();
  if (tb_status == SHALOM_OK) {
    ++executed;
    busy.run_reference(1.0f, 0.0f);
    busy.expect_matches("busy survivor under shed-oldest");
  } else {
    EXPECT_EQ(tb_status, SHALOM_ERR_REJECTED);
    EXPECT_EQ(count_bitwise_diffs(busy.c, busy_pristine), 0)
        << "a shed request must never write to C";
  }
  for (int i = 0; i < kAttempts; ++i) {
    testing::Problem<float>& p = ps[static_cast<std::size_t>(i)];
    const int status = tickets[static_cast<std::size_t>(i)]->wait();
    if (status == SHALOM_OK) {
      ++executed;
      p.run_reference(1.0f, 0.0f);
      p.expect_matches("survivor under shed-oldest");
    } else {
      EXPECT_EQ(status, SHALOM_ERR_REJECTED);
      EXPECT_EQ(count_bitwise_diffs(p.c, pristine[static_cast<std::size_t>(i)]),
                0)
          << "a shed request must never write to C";
    }
  }
  // shed-oldest never rejects the submitter, so every attempt was accepted,
  // and everything accepted either executed or was shed while queued. The
  // last arrival has nothing after it to shed it, so at least one executes.
  EXPECT_GE(executed, 1);
  const engine::StreamStats st = stream.stats();
  EXPECT_EQ(st.submitted, 1u + kAttempts);
  EXPECT_EQ(st.executed, static_cast<std::uint64_t>(executed));
  EXPECT_EQ(st.shed, 1u + kAttempts - static_cast<std::uint64_t>(executed));
}

// Caller-side cancellation: revoke() wins only while the request is still
// queued (C stays untouched); once the drainer claimed it, revoke fails
// and the request completes normally. Exactly one side resolves.
TEST_F(EngineTest, CancelQueuedRequestResolvesExactlyOnce) {
  engine::GemmStream stream;
  testing::Problem<float> busy = make_busy_problem();
  testing::Problem<float> p({Trans::N, Trans::N}, 16, 16, 16);
  const Matrix<float> pristine = p.c;

  engine::TicketPtr tb = stream.submit<float>(
      busy.mode, busy.m, busy.n, busy.k, 1.0f, busy.a.data(), busy.a.ld(),
      busy.b.data(), busy.b.ld(), 0.0f, busy.c.data(), busy.c.ld());
  engine::TicketPtr t = stream.submit<float>(
      p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
      p.b.ld(), 0.0f, p.c.data(), p.c.ld());

  const bool cancelled = t->revoke(SHALOM_ERR_REJECTED, "cancelled by test");
  EXPECT_EQ(tb->wait(), SHALOM_OK);
  if (cancelled) {
    EXPECT_EQ(t->wait(), SHALOM_ERR_REJECTED);
    EXPECT_EQ(count_bitwise_diffs(p.c, pristine), 0)
        << "a cancelled request must never write to C";
  } else {
    EXPECT_EQ(t->wait(), SHALOM_OK);
    p.run_reference(1.0f, 0.0f);
    p.expect_matches("cancel lost the race, request executed");
  }
  // After resolution both handshake sides always lose.
  EXPECT_FALSE(t->revoke(SHALOM_ERR_REJECTED, "second cancel"));
  EXPECT_FALSE(t->try_claim());
}

TEST_F(EngineTest, WaitForBoundsTheWaitWithoutConsumingTheTicket) {
  engine::GemmStream stream;
  testing::Problem<float> busy = make_busy_problem();
  engine::TicketPtr t = stream.submit<float>(
      busy.mode, busy.m, busy.n, busy.k, 1.0f, busy.a.data(), busy.a.ld(),
      busy.b.data(), busy.b.ld(), 0.0f, busy.c.data(), busy.c.ld());
  // A zero-budget wait returns immediately; whichever way it resolved,
  // the ticket stays usable and the final wait still succeeds.
  const bool early = t->wait_for(0);
  if (early) {
    EXPECT_TRUE(t->done());
  }
  EXPECT_EQ(t->wait(), SHALOM_OK);
  EXPECT_TRUE(t->wait_for(0)) << "wait_for after done() must not block";
  busy.run_reference(1.0f, 0.0f);
  busy.expect_matches("wait_for then wait");
}

// ---------------------------------------------------------------------------
// Degraded modes: spawn failure and the circuit breaker
// ---------------------------------------------------------------------------

// threadpool.spawn failing on every attempt: the stream constructs anyway,
// latches synchronous-degraded, reports kDegraded health, and serves
// bitwise-correct results whose tickets resolve SHALOM_DEGRADED.
TEST_F(EngineTest, SpawnFaultDegradesStreamToSynchronous) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  engine::StreamOptions opts;
  opts.retry_budget = 0;  // skip the backoff sleeps; the fault is permanent
  fault::arm(fault::Site::kThreadpoolSpawn, fault::Mode::kEveryN, 1);
  engine::GemmStream stream(opts);
  fault::disarm_all();

  EXPECT_EQ(stream.health(), engine::StreamHealth::kDegraded);
  testing::Problem<float> p({Trans::N, Trans::N}, 24, 24, 24);
  engine::TicketPtr t = stream.submit<float>(
      p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
      p.b.ld(), 0.0f, p.c.data(), p.c.ld());
  ASSERT_TRUE(t->done()) << "degraded streams execute inside submit()";
  EXPECT_EQ(t->wait(), SHALOM_DEGRADED);
  p.run_reference(1.0f, 0.0f);
  p.expect_matches("degraded synchronous execution");
  EXPECT_EQ(stream.flush(), SHALOM_DEGRADED)
      << "flush must advertise the degraded path even though work completed";
  EXPECT_EQ(stream.stats().executed, 1u);
}

// Retry-exhausted submits trip the circuit breaker after
// breaker_threshold consecutive failures; the latched stream bypasses the
// failing queue entirely and keeps serving inline.
TEST_F(EngineTest, CircuitBreakerLatchesAfterConsecutiveFailures) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  engine::StreamOptions opts;
  opts.retry_budget = 0;
  opts.breaker_threshold = 3;
  engine::GemmStream stream(opts);
  testing::Problem<float> p({Trans::N, Trans::N}, 16, 16, 16);

  fault::arm(fault::Site::kSubmitQueue, fault::Mode::kEveryN, 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(stream.submit<float>(p.mode, p.m, p.n, p.k, 1.0f,
                                      p.a.data(), p.a.ld(), p.b.data(),
                                      p.b.ld(), 0.0f, p.c.data(), p.c.ld()),
                 std::bad_alloc);
  }
  EXPECT_EQ(stream.health(), engine::StreamHealth::kDegraded);
  // Still armed: the latched inline path never touches submit.queue.
  engine::TicketPtr t = stream.submit<float>(
      p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
      p.b.ld(), 0.0f, p.c.data(), p.c.ld());
  fault::disarm_all();
  EXPECT_EQ(t->wait(), SHALOM_DEGRADED);
  p.run_reference(1.0f, 0.0f);
  p.expect_matches("served inline after breaker trip");
  EXPECT_GE(robustness_stats().breaker_trips, 1u);
}

// ---------------------------------------------------------------------------
// Lifecycle: close, bounded flush, teardown races
// ---------------------------------------------------------------------------

TEST_F(EngineTest, CloseDrainsThenRejectsNewWork) {
  engine::GemmStream stream;
  testing::Problem<float> p({Trans::N, Trans::N}, 20, 20, 20);
  engine::TicketPtr t = stream.submit<float>(
      p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(), p.b.data(),
      p.b.ld(), 0.0f, p.c.data(), p.c.ld());

  EXPECT_EQ(stream.close(), SHALOM_OK);
  ASSERT_TRUE(t->done()) << "close() must drain accepted work";
  EXPECT_EQ(t->wait(), SHALOM_OK);
  p.run_reference(1.0f, 0.0f);
  p.expect_matches("drained by close");

  EXPECT_EQ(stream.health(), engine::StreamHealth::kDraining);
  EXPECT_THROW(stream.submit<float>(p.mode, p.m, p.n, p.k, 1.0f, p.a.data(),
                                    p.a.ld(), p.b.data(), p.b.ld(), 0.0f,
                                    p.c.data(), p.c.ld()),
               rejected_error);
  EXPECT_EQ(stream.close(), SHALOM_OK) << "close() is idempotent";
}

TEST_F(EngineTest, FlushForBoundsTheFlush) {
  engine::GemmStream stream;
  EXPECT_EQ(stream.flush_for(50), SHALOM_OK) << "idle stream drains instantly";

  testing::Problem<float> busy = make_busy_problem();
  engine::TicketPtr t = stream.submit<float>(
      busy.mode, busy.m, busy.n, busy.k, 1.0f, busy.a.data(), busy.a.ld(),
      busy.b.data(), busy.b.ld(), 0.0f, busy.c.data(), busy.c.ld());
  const int rc = stream.flush_for(0);
  EXPECT_TRUE(rc == SHALOM_OK || rc == SHALOM_ERR_TIMEOUT) << rc;
  EXPECT_EQ(stream.flush(), SHALOM_OK) << "a timed-out flush is re-waitable";
  EXPECT_EQ(t->wait(), SHALOM_OK);
}

// Teardown under fire: waiters and cancellers race stream destruction.
// Every ticket must resolve to exactly one terminal status and nothing
// may deadlock, leak, or touch freed stream state (TSan-checked in tier1).
TEST_F(EngineTest, TeardownRacesWaitersAndCancellers) {
  constexpr int kIters = 6;
  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 4;
  for (int iter = 0; iter < kIters; ++iter) {
    // Problem storage outlives the stream: buffers must stay valid until
    // each ticket resolves, and resolution can happen inside the dtor.
    std::vector<std::vector<testing::Problem<float>>> ps(kSubmitters);
    std::vector<std::vector<engine::TicketPtr>> tickets(kSubmitters);
    std::thread waiter, canceller;
    {
      engine::StreamOptions opts;
      opts.queue_cap = 4;
      opts.overload_policy =
          static_cast<int>(engine::OverloadPolicy::kShedNewest);
      engine::GemmStream stream(opts);
      std::vector<std::thread> submitters;
      for (int s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&, s] {
          for (int i = 0; i < kPerSubmitter; ++i) {
            ps[static_cast<std::size_t>(s)].emplace_back(
                Mode{Trans::N, Trans::N}, 10 + 2 * i, 12, 14);
            testing::Problem<float>& p = ps[static_cast<std::size_t>(s)].back();
            try {
              tickets[static_cast<std::size_t>(s)].push_back(
                  stream.submit<float>(p.mode, p.m, p.n, p.k, 1.0f,
                                       p.a.data(), p.a.ld(), p.b.data(),
                                       p.b.ld(), 0.0f, p.c.data(), p.c.ld()));
            } catch (const rejected_error&) {
              // Shed under pressure: no ticket to track.
            }
          }
        });
      }
      for (auto& t : submitters) t.join();
      // Race the destructor: one thread waits on every ticket, another
      // tries to cancel every ticket, while the stream is torn down.
      waiter = std::thread([&] {
        for (auto& per : tickets)
          for (auto& t : per) t->wait();
      });
      canceller = std::thread([&] {
        for (auto& per : tickets)
          for (auto& t : per) t->revoke(SHALOM_ERR_REJECTED, "race cancel");
      });
    }  // ~GemmStream while waiter + canceller run
    waiter.join();
    canceller.join();
    for (auto& per : tickets)
      for (auto& t : per) {
        ASSERT_TRUE(t->done()) << "ticket leaked by teardown (iter " << iter
                               << ")";
        const int status = t->status();
        EXPECT_TRUE(status == SHALOM_OK || status == SHALOM_ERR_REJECTED ||
                    status == SHALOM_DEGRADED)
            << "unexpected terminal status " << status;
      }
  }
}

// ---------------------------------------------------------------------------
// Env knobs (driven by the EngineEnv* ctest wrappers in CMakeLists.txt)
// ---------------------------------------------------------------------------

// Wrapper sets SHALOM_QUEUE_CAP=3 SHALOM_OVERLOAD_POLICY=shed-oldest
// SHALOM_RETRY_BUDGET=5; skipped in a plain run (knobs unset / different).
TEST(EngineEnv, KnobsParseGoodValues) {
  const char* cap = env::raw("SHALOM_QUEUE_CAP");
  if (cap == nullptr || std::string(cap) != "3")
    GTEST_SKIP() << "run via the engine_env_good ctest wrapper";
  EXPECT_EQ(engine::env_queue_cap(), 3);
  EXPECT_EQ(engine::env_overload_policy(),
            engine::OverloadPolicy::kShedOldest);
  EXPECT_EQ(engine::env_retry_budget(), 5);
}

// Wrapper sets SHALOM_QUEUE_CAP=0 (a cap of zero would reject everything
// - never what an operator meant), SHALOM_OVERLOAD_POLICY=bogus and
// SHALOM_RETRY_BUDGET=-5: each warns once and falls back to its default.
TEST(EngineEnv, MalformedKnobsWarnOnceAndFallBack) {
  const char* cap = env::raw("SHALOM_QUEUE_CAP");
  if (cap == nullptr || std::string(cap) != "0")
    GTEST_SKIP() << "run via the engine_env_malformed ctest wrapper";
  EXPECT_EQ(engine::env_queue_cap(), 0) << "fallback: unbounded";
  EXPECT_EQ(engine::env_overload_policy(), engine::OverloadPolicy::kBlock);
  EXPECT_EQ(engine::env_retry_budget(), 3);
}

// ---------------------------------------------------------------------------
// Overload chaos (the PR 7 acceptance test; tier1 re-runs it with faults
// and a small SHALOM_QUEUE_CAP injected via the environment)
// ---------------------------------------------------------------------------

// 8 clients burst into a capped stream with deadlines and faults armed.
// Invariants checked: no deadlock (the test finishes), no leaked tickets
// (every future resolves to exactly one of ok / rejected / timeout /
// degraded-ok), and every accepted-and-executed product is BITWISE equal
// to the same call run in isolation before any fault was armed.
TEST(EngineChaos, OverloadBurst) {
  if (!SHALOM_FAULT_INJECTION)
    GTEST_SKIP() << "built without SHALOM_FAULT_INJECTION";
  constexpr int kClients = 8;
  constexpr int kPerClient = 8;
  struct Shape {
    index_t m, n, k;
  };
  const Shape kShapes[4] = {{8, 12, 16}, {24, 8, 8}, {16, 16, 32}, {5, 31, 17}};

  // Oracle pass first, with whatever fault state the driver armed still
  // untouched by us and no stream in sight: pure isolated gemm() calls.
  std::vector<std::vector<testing::Problem<float>>> ps(kClients);
  std::vector<std::vector<Matrix<float>>> oracle(kClients);
  Config cfg;  // same execution config the stream resolves (defaults)
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      const Shape& s = kShapes[(c + i) % 4];
      ps[static_cast<std::size_t>(c)].emplace_back(
          Mode{Trans::N, Trans::N}, s.m, s.n, s.k);
      testing::Problem<float>& p = ps[static_cast<std::size_t>(c)].back();
      Matrix<float> want = p.c;
      gemm(Trans::N, Trans::N, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(),
           p.b.data(), p.b.ld(), 0.0f, want.data(), want.ld(), cfg);
      oracle[static_cast<std::size_t>(c)].push_back(std::move(want));
    }
  }

  // Self-arm a default chaos mix only when the driver armed nothing (the
  // tier1 overload stage injects SHALOM_FAULT + SHALOM_QUEUE_CAP itself).
  const bool self_armed = !fault::armed(fault::Site::kSubmitQueue) &&
                          !fault::armed(fault::Site::kEngineDeadline) &&
                          !fault::armed(fault::Site::kAllocPackArena);
  if (self_armed) {
    fault::arm(fault::Site::kAllocPackArena, fault::Mode::kEveryN, 7);
    fault::arm(fault::Site::kSubmitQueue, fault::Mode::kEveryN, 5);
    fault::arm(fault::Site::kEngineDeadline, fault::Mode::kEveryN, 3);
  }

  engine::StreamOptions opts;
  opts.queue_cap = engine::env_queue_cap() > 0 ? -1 : 4;
  opts.overload_policy =
      env::raw("SHALOM_OVERLOAD_POLICY") != nullptr
          ? -1
          : static_cast<int>(engine::OverloadPolicy::kShedNewest);

  std::atomic<int> n_ok{0}, n_degraded{0}, n_rejected{0}, n_timeout{0};
  std::atomic<int> n_shed_throws{0}, n_alloc_throws{0}, n_other{0};
  std::atomic<int> mismatches{0};
  engine::StreamStats st;
  {
    engine::GemmStream stream(opts);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<engine::TicketPtr> tickets(kPerClient);
        for (int i = 0; i < kPerClient; ++i) {
          testing::Problem<float>& p =
              ps[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)];
          const long deadline_ms = (i % 3 == 0) ? 5 : 0;
          try {
            tickets[static_cast<std::size_t>(i)] = stream.submit<float>(
                p.mode, p.m, p.n, p.k, 1.0f, p.a.data(), p.a.ld(),
                p.b.data(), p.b.ld(), 0.0f, p.c.data(), p.c.ld(),
                deadline_ms);
          } catch (const rejected_error&) {
            n_shed_throws.fetch_add(1, std::memory_order_relaxed);
          } catch (const timeout_error&) {
            n_timeout.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::bad_alloc&) {
            n_alloc_throws.fetch_add(1, std::memory_order_relaxed);
          }
        }
        for (int i = 0; i < kPerClient; ++i) {
          engine::TicketPtr& t = tickets[static_cast<std::size_t>(i)];
          if (t == nullptr) continue;
          const int status = t->wait();
          if (status == SHALOM_OK || status == SHALOM_DEGRADED) {
            (status == SHALOM_OK ? n_ok : n_degraded)
                .fetch_add(1, std::memory_order_relaxed);
            const Matrix<float>& want =
                oracle[static_cast<std::size_t>(c)]
                      [static_cast<std::size_t>(i)];
            const testing::Problem<float>& p =
                ps[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)];
            mismatches.fetch_add(count_bitwise_diffs(p.c, want),
                                 std::memory_order_relaxed);
          } else if (status == SHALOM_ERR_REJECTED) {
            n_rejected.fetch_add(1, std::memory_order_relaxed);
          } else if (status == SHALOM_ERR_TIMEOUT) {
            n_timeout.fetch_add(1, std::memory_order_relaxed);
          } else {
            n_other.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    st = stream.stats();
  }
  if (self_armed) fault::disarm_all();

  EXPECT_EQ(n_other.load(std::memory_order_relaxed), 0)
      << "a future resolved outside {ok, rejected, timeout, degraded-ok}";
  EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0)
      << "an accepted request's product differs bitwise from isolation";
  // Total reconciliation: every attempt is accounted for exactly once.
  const int resolved = n_ok.load(std::memory_order_relaxed) +
                       n_degraded.load(std::memory_order_relaxed) +
                       n_rejected.load(std::memory_order_relaxed) +
                       n_timeout.load(std::memory_order_relaxed) +
                       n_shed_throws.load(std::memory_order_relaxed) +
                       n_alloc_throws.load(std::memory_order_relaxed);
  EXPECT_EQ(resolved, kClients * kPerClient);
  EXPECT_EQ(st.executed,
            static_cast<std::uint64_t>(
                n_ok.load(std::memory_order_relaxed) +
                n_degraded.load(std::memory_order_relaxed)));
}

}  // namespace
}  // namespace shalom
