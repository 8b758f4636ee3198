// Shared plumbing for the figure-reproduction benches: allocates operands
// for a shape, times every library in a set, and renders one table per
// paper panel.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "bench_util/reporter.h"
#include "bench_util/runner.h"
#include "bench_util/stats.h"
#include "common/rng.h"
#include "workloads/sizes.h"

namespace shalom::bench {

/// One measured cell: GFLOPS of `lib` on `shape` from the fastest of
/// `reps` timed calls, after one untimed warm-up call in warm mode (cold
/// mode evicts the caches before every call instead). The fastest call is
/// the one least disturbed by other load on the host, so cells stay
/// comparable across runs.
template <typename T>
double measure_gflops(const baselines::Library& lib, Mode mode,
                      const workloads::GemmShape& shape, int threads,
                      int reps, bool warm) {
  const index_t M = shape.m, N = shape.n, K = shape.k;
  const index_t a_rows = (mode.a == Trans::N) ? M : K;
  const index_t a_cols = (mode.a == Trans::N) ? K : M;
  const index_t b_rows = (mode.b == Trans::N) ? K : N;
  const index_t b_cols = (mode.b == Trans::N) ? N : K;

  Matrix<T> a(a_rows, a_cols), b(b_rows, b_cols), c(M, N);
  fill_random(a, 11);
  fill_random(b, 22);

  const auto& fn = [&]() -> const baselines::GemmFn<T>& {
    if constexpr (std::is_same_v<T, float>) {
      return lib.sgemm;
    } else {
      return lib.dgemm;
    }
  }();

  const Stats st = time_kernel(
      [&] {
        fn(mode, M, N, K, T{1}, a.data(), a.ld(), b.data(), b.ld(), T{0},
           c.data(), c.ld(), threads);
      },
      reps, warm);
  return gemm_gflops(static_cast<double>(M), static_cast<double>(N),
                     static_cast<double>(K), st.min_s);
}

/// Runs `libs` over `shapes` and prints a table titled `title` plus the
/// statistic; the first column is the shape label, one column per library.
template <typename T>
void run_panel(const std::string& title,
               const std::vector<const baselines::Library*>& libs, Mode mode,
               const std::vector<workloads::GemmShape>& shapes, int threads,
               const BenchOptions& opt, bool warm = true) {
  std::vector<std::string> cols = {"shape"};
  for (const auto* lib : libs) cols.push_back(lib->name);
  Table table(title + " (best of reps)", cols);
  for (const auto& shape : shapes) {
    std::vector<double> row;
    for (const auto* lib : libs)
      row.push_back(measure_gflops<T>(*lib, mode, shape, threads, opt.reps,
                                      warm));
    table.add_row(shape.label, row);
  }
  table.print(opt.csv);
}

inline void print_scale_note(const BenchOptions& opt) {
  std::printf("[sizes: %s; reps=%d; pass --full for paper-scale sizes]\n\n",
              opt.full ? "paper-scale" : "scaled-down", opt.reps);
}

}  // namespace shalom::bench
