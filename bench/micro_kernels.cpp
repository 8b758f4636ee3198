// Google-benchmark micro-benchmarks for the kernel layer: main
// micro-kernel variants (full tiles and N-remainder tails, at 128 and 512
// bits), the fused packing kernels and the standalone packing routines, on
// L1/L2-resident data.
//
// These are developer-facing (regression tracking for the kernel
// schedules); the paper figures come from the fig* binaries.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "core/dispatch.h"
#include "core/pack.h"

namespace {

using namespace shalom;

constexpr index_t kKc = 256;

template <ukr::AAccess AA, ukr::BAccess BA>
void bm_main_kernel(benchmark::State& state) {
  const index_t kc = state.range(0);
  Matrix<float> a(8, std::max<index_t>(kc, 8) * 8);  // generous backing
  Matrix<float> b(kc + 8, 16);
  Matrix<float> c(8, 16);
  fill_random(a, 1);
  fill_random(b, 2);
  const index_t lda = (AA == ukr::AAccess::kDirect) ? a.cols() : 7;
  const index_t ldb = (BA == ukr::BAccess::kDirect) ? b.cols() : 12;
  for (auto _ : state) {
    ukr::run_main_tile<float, AA, BA>(7, 12, kc, a.data(), lda, b.data(),
                                      ldb, c.data(), c.ld(), 1.0f, 1.0f);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * 7 * 12 * kc * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

/// The widest main-kernel tile for T: the n_eff = nr case of bm_main_tail.
template <typename T>
constexpr int kTailNr = ukr::kMaxNrv * simd::vec_of_t<T>::kLanes;

/// kern_main NN (direct A, direct B) on an mr x n_eff tile. n_eff = nr is
/// the full tile; smaller widths run the N-remainder variants, whose last
/// B-row vector and C vector are partial loads and stores. The per-call
/// time at n_eff = nr - 1 over the time at n_eff = nr is the edge-tile
/// slowdown the paper's Section 5.4 edge handling keeps near 1.
template <typename T>
void bm_main_tail(benchmark::State& state) {
  constexpr int nr = kTailNr<T>;
  const index_t kc = state.range(0);
  const int n_eff = static_cast<int>(state.range(1));
  Matrix<T> a(ukr::kMaxMr, kc);
  Matrix<T> b(kc, nr);
  Matrix<T> c(ukr::kMaxMr, nr);
  fill_random(a, 1);
  fill_random(b, 2);
  fill_random(c, 3);
  for (auto _ : state) {
    ukr::run_main_tile<T, ukr::AAccess::kDirect, ukr::BAccess::kDirect>(
        ukr::kMaxMr, n_eff, kc, a.data(), a.ld(), b.data(), b.ld(),
        c.data(), c.ld(), T(1), T(1));
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * ukr::kMaxMr * n_eff * kc * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

/// n_eff = nr, nr-1, nr-2, nr-3 and 1, from the same tile width that sizes
/// bm_main_tail's operands.
template <typename T>
void tail_args(benchmark::internal::Benchmark* b) {
  constexpr int nr = kTailNr<T>;
  static_assert(nr > 3, "the tail list needs nr - 3 >= 1");
  b->ArgNames({"kc", "n_eff"});
  for (const int n_eff : {nr, nr - 1, nr - 2, nr - 3, 1}) b->Args({kKc, n_eff});
}

void bm_fused_pack_nn(benchmark::State& state) {
  const index_t kc = state.range(0);
  Matrix<float> a(7, kc);
  Matrix<float> b(kc, 64);
  Matrix<float> bc(kc + 2, 12);
  Matrix<float> c(7, 12);
  fill_random(a, 1);
  fill_random(b, 2);
  for (auto _ : state) {
    ukr::run_fused_pack_nn<float>(true, false, 12, kc, a.data(), a.ld(),
                                  b.data(), b.ld(), bc.data(), nullptr,
                                  b.ld(), nullptr, c.data(), c.ld(), 1.0f,
                                  0.0f);
    benchmark::DoNotOptimize(bc.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * 7 * 12 * kc * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

/// Fused TN: one full-height stripe against transposed-in-place A, packing
/// its Ac column sliver while it computes (kern_main's A pack hook).
void bm_fused_pack_tn(benchmark::State& state) {
  const index_t kc = state.range(0);
  Matrix<float> at(kc, 7);  // op(A) columns are A storage rows
  Matrix<float> b(kc, 12);
  std::vector<float> ac(7 * kc + ukr::kPackSlackElems);
  Matrix<float> c(7, 12);
  fill_random(at, 1);
  fill_random(b, 2);
  for (auto _ : state) {
    ukr::run_fused_pack_tn<float>(false, 12, kc, at.data(), at.ld(),
                                  ac.data(), b.data(), b.ld(), c.data(),
                                  c.ld(), 1.0f, 0.0f);
    benchmark::DoNotOptimize(ac.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * 7 * 12 * kc * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

/// kern_main at a wider vector width (paper Section 5.5) on the width's
/// analytic tile, packed A and packed B, as gemm_wide runs it. n_eff = nr
/// is the full tile; smaller widths run the remainder variants, whose C
/// tail is a partial (masked) store.
template <int Bits>
void bm_wide_tile(benchmark::State& state) {
  constexpr contracts::Tile t = ukr::family_tile<float>(Bits);
  const index_t kc = state.range(0);
  const int n_eff = static_cast<int>(state.range(1));
  Matrix<float> ap(kc + 1, t.mr);  // packed A sliver plus slack
  Matrix<float> bp(kc, t.nr);      // packed B sliver
  Matrix<float> c(t.mr, t.nr);
  fill_random(ap, 1);
  fill_random(bp, 2);
  fill_random(c, 3);
  for (auto _ : state) {
    ukr::run_main_tile<float, ukr::AAccess::kPacked, ukr::BAccess::kPacked,
                       Bits>(t.mr, n_eff, kc, ap.data(), t.mr, bp.data(),
                             t.nr, c.data(), c.ld(), 1.0f, 1.0f);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * t.mr * n_eff * kc * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

/// n_eff = nr (full tile), nr - 1 and 1 at the width's tile.
template <int Bits>
void wide_args(benchmark::internal::Benchmark* b) {
  constexpr int nr = ukr::family_tile<float>(Bits).nr;
  b->ArgNames({"kc", "n_eff"});
  for (const int n_eff : {nr, nr - 1, 1}) b->Args({kKc, n_eff});
}

void bm_fused_pack_nt(benchmark::State& state) {
  const index_t kc = state.range(0);
  Matrix<float> a(7, kc);
  Matrix<float> b(12, kc);  // op(B) columns are B rows
  Matrix<float> bc(kc + 2, 12);
  Matrix<float> c(7, 12);
  fill_random(a, 1);
  fill_random(b, 2);
  for (auto _ : state) {
    for (int jb = 0; jb < 12; jb += 3)
      ukr::run_fused_pack_nt<float>(3, kc, a.data(), a.ld(), b.data(),
                                    b.ld(), bc.data(), jb, 12, jb + 3 < 12,
                                    c.data(), c.ld(), 1.0f, 0.0f);
    benchmark::DoNotOptimize(bc.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * 7 * 12 * kc * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

void bm_pack_b_n(benchmark::State& state) {
  const index_t kc = state.range(0);
  Matrix<float> b(kc, 512);
  Matrix<float> bc(kc + 2, 12);
  fill_random(b, 2);
  for (auto _ : state) {
    pack::pack_b_n(b.data(), b.ld(), kc, 12, 12, bc.data());
    benchmark::DoNotOptimize(bc.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kc *
                          12 * sizeof(float));
}

}  // namespace

BENCHMARK(bm_main_kernel<ukr::AAccess::kDirect, ukr::BAccess::kPacked>)
    ->Arg(kKc);
BENCHMARK(bm_main_kernel<ukr::AAccess::kDirect, ukr::BAccess::kDirect>)
    ->Arg(kKc);
BENCHMARK(bm_main_kernel<ukr::AAccess::kPacked, ukr::BAccess::kPacked>)
    ->Arg(kKc);
BENCHMARK(bm_main_tail<float>)->Apply(tail_args<float>);
BENCHMARK(bm_main_tail<double>)->Apply(tail_args<double>);
BENCHMARK(bm_wide_tile<512>)->Apply(wide_args<512>);
BENCHMARK(bm_fused_pack_nn)->Arg(kKc);
BENCHMARK(bm_fused_pack_tn)->Arg(kKc);
BENCHMARK(bm_fused_pack_nt)->Arg(kKc);
BENCHMARK(bm_pack_b_n)->Arg(kKc);

BENCHMARK_MAIN();
