// Ablation (paper Section 5.5): vector-width scaling.
//
// Runs the same FP32 GEMM at 128-, 256- and 512-bit vector widths, each
// with the register tile the analytic model derives for that lane count
// (7x12 -> 9x16 -> 15x16), through one plan and loop nest (both operands
// packed) and the one kern_main template instantiated at each width. On
// hardware with native wide FMA the GFLOPS should scale with width until
// the memory system takes over - the behaviour the paper predicts for SVE
// machines like the A64FX. Widths without native backing run on an
// emulated (split-half) path and are flagged.
#include <cstdio>

#include "bench/bench_common.h"
#include "core/widegemm.h"
#include "simd/vecwide.h"

int main(int argc, char** argv) {
  using namespace shalom;
  const auto opt = bench::BenchOptions::parse(argc, argv);
  bench::print_scale_note(opt);

  std::printf("native widths on this build: 128%s%s\n\n",
              simd::wide_native(256) ? ", 256" : " (256 emulated)",
              simd::wide_native(512) ? ", 512" : " (512 emulated)");

  const std::vector<workloads::GemmShape> shapes = {
      {"96x96x96", 96, 96, 96},
      {"256x256x256", 256, 256, 256},
      {"64x1024x512", 64, 1024, 512},
      {"480x480x480", 480, 480, 480},
  };

  // Best of --reps: the fastest repetition is the one least disturbed by
  // other load on the host, so the columns stay comparable across runs.
  bench::Table table("Ablation: vector width vs best-of-reps GFLOPS (FP32 "
                     "NN, model-derived tiles)",
                     {"shape", "128-bit (7x12)", "256-bit (9x16)",
                      "512-bit (15x16)"});

  for (const auto& s : shapes) {
    Matrix<float> a(s.m, s.k), b(s.k, s.n), c(s.m, s.n);
    fill_random(a, 1);
    fill_random(b, 2);
    std::vector<double> row;
    auto measure = [&](auto run) {
      const auto st = bench::time_kernel(run, opt.reps, true);
      return bench::gemm_gflops(static_cast<double>(s.m),
                                static_cast<double>(s.n),
                                static_cast<double>(s.k), st.min_s);
    };
    row.push_back(measure([&] {
      wide::gemm_wide<128>(s.m, s.n, s.k, 1.f, a.data(), a.ld(), b.data(),
                           b.ld(), 0.f, c.data(), c.ld());
    }));
    row.push_back(measure([&] {
      wide::gemm_wide<256>(s.m, s.n, s.k, 1.f, a.data(), a.ld(), b.data(),
                           b.ld(), 0.f, c.data(), c.ld());
    }));
    row.push_back(measure([&] {
      wide::gemm_wide<512>(s.m, s.n, s.k, 1.f, a.data(), a.ld(), b.data(),
                           b.ld(), 0.f, c.data(), c.ld());
    }));
    table.add_row(s.label, row);
  }
  table.print(opt.csv);
  return 0;
}
