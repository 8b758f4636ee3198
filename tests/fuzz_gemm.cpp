// Differential GEMM fuzzer: random shapes, modes, strides, scalars,
// thread counts and feature-flag combinations, every result checked
// against the naive scalar oracle. Two operating modes:
//
//   fuzz_gemm --iters N [--seed S]
//       Tolerance-checked sweep over the full optimized dispatch space,
//       including degenerate shapes (M/N/K == 0) and alpha == 0.
//
//   fuzz_gemm --iters N --bitwise-scalar
//       Every comparison must match the oracle BITWISE. Run under
//       SHALOM_FAULT=selfcheck.probe:every-1 this proves the quarantine
//       re-routing end to end: with all optimized kernels quarantined,
//       dispatch lands on the scalar reference and must reproduce naive
//       exactly (kc_override = K keeps one k-block so the accumulation
//       order matches; alpha == 0 is excluded because scale_c short-cuts
//       the multiply).
//
// Exits non-zero on the first mismatch, printing a one-line reproducer.
// Registered under `ctest -L fuzz` (plain and quarantined variants).
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/naive.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/shalom.h"
#include "core/shalom_c.h"

namespace {

using shalom::Config;
using shalom::index_t;
using shalom::Mode;
using shalom::SplitMix64;
using shalom::Trans;

struct Case {
  Mode mode;
  index_t m, n, k;
  index_t lda, ldb, ldc;
  float alpha, beta;
  Config cfg;
};

Case draw(SplitMix64& rng, bool bitwise_scalar) {
  Case c;
  c.mode.a = rng.next_u64() % 2 ? Trans::T : Trans::N;
  c.mode.b = rng.next_u64() % 2 ? Trans::T : Trans::N;
  c.m = 1 + static_cast<index_t>(rng.next_u64() % 56);
  c.n = 1 + static_cast<index_t>(rng.next_u64() % 56);
  c.k = 1 + static_cast<index_t>(rng.next_u64() % 48);
  if (!bitwise_scalar) {
    // One case in ~12 degenerates a dimension; the library must reduce it
    // to (at most) a beta scale without touching the packing machinery.
    if (rng.next_u64() % 12 == 0) c.m = 0;
    if (rng.next_u64() % 12 == 0) c.n = 0;
    if (rng.next_u64() % 12 == 0) c.k = 0;
  }
  const index_t a_cols = (c.mode.a == Trans::N) ? c.k : c.m;
  const index_t b_cols = (c.mode.b == Trans::N) ? c.n : c.k;
  c.lda = a_cols + static_cast<index_t>(rng.next_u64() % 7);
  c.ldb = b_cols + static_cast<index_t>(rng.next_u64() % 7);
  c.ldc = c.n + static_cast<index_t>(rng.next_u64() % 9);
  // Degenerate dims still require ld >= 1.
  if (c.lda == 0) c.lda = 1;
  if (c.ldb == 0) c.ldb = 1;
  if (c.ldc == 0) c.ldc = 1;

  const float alphas[] = {1.f, -1.f, 0.75f, 1.25f, 0.f};
  const float betas[] = {0.f, 1.f, -0.5f, 2.f};
  c.alpha = alphas[rng.next_u64() % (bitwise_scalar ? 4 : 5)];
  c.beta = betas[rng.next_u64() % 4];

  c.cfg.selective_packing = rng.next_u64() % 4 != 0;
  c.cfg.fused_packing = rng.next_u64() % 4 != 0;
  c.cfg.optimized_edges = rng.next_u64() % 4 != 0;
  (void)rng.next_u64();  // retired plan-cache toggle: keeps old seeds valid
  c.cfg.threads = 1 + static_cast<int>(rng.next_u64() % 4);
  if (bitwise_scalar) c.cfg.kc_override = c.k;
  return c;
}

void fill(std::vector<float>& v, std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (float& x : v)
    x = static_cast<float>(rng.next_u64() % 2048) / 1024.0f - 1.0f;
}

/// One fuzz iteration; returns false (after printing a reproducer) on
/// divergence from the oracle.
bool run_case(const Case& c, std::uint64_t seed, long iter,
              bool bitwise) {
  const index_t a_rows = (c.mode.a == Trans::N) ? c.m : c.k;
  const index_t b_rows = (c.mode.b == Trans::N) ? c.k : c.n;
  std::vector<float> a(static_cast<std::size_t>(a_rows * c.lda) + 1);
  std::vector<float> b(static_cast<std::size_t>(b_rows * c.ldb) + 1);
  std::vector<float> cm(static_cast<std::size_t>(c.m * c.ldc) + 1);
  fill(a, seed ^ 0xA);
  fill(b, seed ^ 0xB);
  fill(cm, seed ^ 0xC);
  std::vector<float> c_ref = cm;

  shalom::gemm(c.mode.a, c.mode.b, c.m, c.n, c.k, c.alpha, a.data(), c.lda,
               b.data(), c.ldb, c.beta, cm.data(), c.ldc, c.cfg);
  shalom::baselines::naive_gemm(c.mode, c.m, c.n, c.k, c.alpha, a.data(),
                                c.lda, b.data(), c.ldb, c.beta, c_ref.data(),
                                c.ldc);

  const double tol =
      bitwise ? 0.0 : (static_cast<double>(c.k) + 16.0) * 1e-6;
  for (index_t i = 0; i < c.m; ++i) {
    for (index_t j = 0; j < c.n; ++j) {
      const float got = cm[static_cast<std::size_t>(i * c.ldc + j)];
      const float want = c_ref[static_cast<std::size_t>(i * c.ldc + j)];
      const bool ok = bitwise ? std::memcmp(&got, &want, sizeof(float)) == 0
                              : std::fabs(static_cast<double>(got) -
                                          static_cast<double>(want)) <= tol;
      if (!ok) {
        std::fprintf(
            stderr,
            "fuzz_gemm: MISMATCH iter=%ld seed=%" PRIu64
            " mode=%c%c m=%td n=%td k=%td lda=%td ldb=%td ldc=%td "
            "alpha=%g beta=%g threads=%d flags=%d%d%d "
            "at (%td,%td): got %.9g want %.9g\n"
            "reproduce: fuzz_gemm --iters %ld --seed %" PRIu64 "%s\n",
            iter, seed, c.mode.a == Trans::N ? 'N' : 'T',
            c.mode.b == Trans::N ? 'N' : 'T', c.m, c.n, c.k, c.lda, c.ldb,
            c.ldc, static_cast<double>(c.alpha),
            static_cast<double>(c.beta), c.cfg.threads,
            c.cfg.selective_packing, c.cfg.fused_packing,
            c.cfg.optimized_edges, i, j,
            static_cast<double>(got), static_cast<double>(want), iter + 1,
            seed, bitwise ? " --bitwise-scalar" : "");
        return false;
      }
    }
  }

  // Degenerate K with beta scaling: spot-check the C API agrees (it must
  // return SHALOM_OK and the same scaled values).
  if (c.k == 0 && c.m > 0 && c.n > 0) {
    std::vector<float> cc = c_ref;
    const int rc = shalom_sgemm(
        c.mode.a == Trans::N ? 'N' : 'T', c.mode.b == Trans::N ? 'N' : 'T',
        c.m, c.n, c.k, c.alpha, a.data(), c.lda, b.data(), c.ldb, c.beta,
        cc.data(), c.ldc, c.cfg.threads);
    if (rc != SHALOM_OK) {
      std::fprintf(stderr,
                   "fuzz_gemm: C API failed on degenerate K=0 (iter=%ld "
                   "seed=%" PRIu64 "): %s\n",
                   iter, seed, shalom_strerror(rc));
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  long iters = 200;
  std::uint64_t seed = 0x5ead5eed2026ULL;
  bool bitwise = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--iters" && i + 1 < argc) {
      iters = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--bitwise-scalar") {
      bitwise = true;
    } else {
      std::fprintf(stderr,
                   "usage: fuzz_gemm [--iters N] [--seed S] "
                   "[--bitwise-scalar]\n");
      return 2;
    }
  }

  shalom::SplitMix64 meta(seed);
  long failures = 0;
  for (long i = 0; i < iters; ++i) {
    const std::uint64_t case_seed = meta.next_u64();
    shalom::SplitMix64 rng(case_seed);
    const Case c = draw(rng, bitwise);
    if (!run_case(c, case_seed, i, bitwise)) {
      failures++;
      break;  // first mismatch is enough; the reproducer is printed
    }
  }

  if (failures != 0) return 1;

  const shalom::RobustnessStats s = shalom::robustness_stats();
  if (bitwise && std::getenv("SHALOM_FAULT") != nullptr &&
      s.kernels_quarantined == 0) {
    // The quarantined ctest variant arms selfcheck.probe; if nothing got
    // quarantined the bitwise pass proved nothing about the re-routing.
    std::fprintf(stderr,
                 "fuzz_gemm: SHALOM_FAULT set but no kernel was "
                 "quarantined; re-routing untested\n");
    return 1;
  }
  std::fprintf(stderr,
               "fuzz_gemm: %ld iterations OK (%s); selfchecks_run=%" PRIu64
               " kernels_quarantined=%" PRIu64 "\n",
               iters, bitwise ? "bitwise vs scalar oracle" : "tolerance",
               s.selfchecks_run, s.kernels_quarantined);
  return 0;
}
