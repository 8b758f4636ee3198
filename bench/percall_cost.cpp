// Per-call cost of the CP2K FP64 block sizes (paper Fig. 14), split into
// its two halves: nanoseconds per `shalom::gemm` call, per `plan_create`
// alone, per `plan_execute` on a held plan, and per LIBXSMM* call, all
// single-threaded with warm operands.
//
// At these sizes one call lasts tens to hundreds of nanoseconds, close to
// the clock's own cost, so every sample times a batch of back-to-back
// calls and the table reports the best sample divided by the batch: the
// fastest batch is the one least disturbed by other load on the host.
//
//   percall_cost [--csv]
#include <algorithm>
#include <cstdio>
#include <limits>

#include "bench/bench_common.h"
#include "core/plan.h"
#include "core/shalom.h"

namespace {

using namespace shalom;

constexpr int kSamples = 200;  ///< timed batches per cell; the best counts
constexpr int kBatch = 50;     ///< back-to-back calls per timed batch

/// Best-of-kSamples nanoseconds per call of `fn`, each sample timing
/// kBatch consecutive calls after one untimed warm-up batch.
template <typename Fn>
double best_ns_per_call(Fn&& fn) {
  for (int i = 0; i < kBatch; ++i) fn();
  double best = std::numeric_limits<double>::infinity();
  for (int s = 0; s < kSamples; ++s) {
    bench::Timer t;
    for (int i = 0; i < kBatch; ++i) fn();
    best = std::min(best, t.elapsed_s());
  }
  return best * 1e9 / kBatch;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::BenchOptions::parse(argc, argv);
  std::printf("[best of %d samples x %d calls; 1 thread; warm operands]\n\n",
              kSamples, kBatch);

  const Mode nn{Trans::N, Trans::N};
  Config cfg;
  cfg.threads = 1;
  const auto& xsmm = baselines::xsmm_like().dgemm;

  bench::Table table("Per-call cost, CP2K FP64 NN, ns per call (best-of)",
                     {"shape", "shalom::gemm", "plan_create",
                      "plan_execute", "LIBXSMM*"});
  for (const auto& s : workloads::cp2k_sizes()) {
    Matrix<double> a(s.m, s.k), b(s.k, s.n), c(s.m, s.n);
    fill_random(a, 11);
    fill_random(b, 22);
    const GemmPlan<double> held = plan_create<double>(nn, s.m, s.n, s.k, cfg);
    // Keeps each created plan observable so the call is not elided.
    volatile index_t sink = 0;

    table.add_row(
        s.label,
        {best_ns_per_call(
             [&] {
               gemm(Trans::N, Trans::N, s.m, s.n, s.k, 1.0, a.data(), a.ld(),
                    b.data(), b.ld(), 0.0, c.data(), c.ld(), cfg);
             }),
         best_ns_per_call(
             [&] {
               sink = sink + plan_create<double>(nn, s.m, s.n, s.k, cfg).blk.kc;
             }),
         best_ns_per_call(
             [&] {
               plan_execute(held, 1.0, a.data(), a.ld(), b.data(), b.ld(),
                            0.0, c.data(), c.ld());
             }),
         best_ns_per_call(
             [&] {
               xsmm(nn, s.m, s.n, s.k, 1.0, a.data(), a.ld(), b.data(),
                    b.ld(), 0.0, c.data(), c.ld(), 1);
             })},
        1);
  }
  table.print(opt.csv);
  return 0;
}
