#include "tuning/autotune.h"

#include <algorithm>

#include "bench_util/runner.h"
#include "bench_util/stats.h"
#include "common/rng.h"
#include "core/kernel_contracts.h"
#include "core/shalom.h"

namespace shalom::tuning {

namespace {

template <typename T>
double measure(Mode mode, index_t M, index_t N, index_t K,
               const Config& cfg, int reps, Matrix<T>& a, Matrix<T>& b,
               Matrix<T>& c) {
  const auto st = bench::time_kernel(
      [&] {
        gemm(mode.a, mode.b, M, N, K, T{1}, a.data(), a.ld(), b.data(),
             b.ld(), T{0}, c.data(), c.ld(), cfg);
      },
      reps, /*warm=*/true);
  return bench::gemm_gflops(static_cast<double>(M), static_cast<double>(N),
                            static_cast<double>(K), st.geomean_s);
}

index_t scaled(index_t v, double s) {
  return std::max<index_t>(1, static_cast<index_t>(v * s));
}

}  // namespace

template <typename T>
TuneResult tune(Mode mode, index_t M, index_t N, index_t K,
                const Config& base, const TuneOptions& opt) {
  const arch::MachineDescriptor& mach = base.resolved_machine();
  const model::Tile tile = model::tile_for<T>(mach);
  const model::Blocking model_blk =
      model::solve_blocking<T>(mach, tile, M, N, K);

  const index_t a_rows = (mode.a == Trans::N) ? M : K;
  const index_t a_cols = (mode.a == Trans::N) ? K : M;
  const index_t b_rows = (mode.b == Trans::N) ? K : N;
  const index_t b_cols = (mode.b == Trans::N) ? N : K;
  Matrix<T> a(a_rows, a_cols), b(b_rows, b_cols), c(M, N);
  fill_random(a, 17);
  fill_random(b, 18);

  TuneResult result;
  Config cfg = base;
  cfg.kc_override = cfg.mc_override = cfg.nc_override = 0;
  result.model_gflops = measure<T>(mode, M, N, K, cfg, opt.reps, a, b, c);
  result.candidates.push_back({model_blk, result.model_gflops});

  // Coordinate search: scale each dimension independently around the
  // model's value (a full cross product would be reps * |scales|^3
  // measurements; coordinate descent captures most of the gain).
  model::Blocking best_blk = model_blk;
  double best = result.model_gflops;
  auto try_blk = [&](const model::Blocking& blk) {
    Config t = base;
    t.kc_override = blk.kc;
    t.mc_override = blk.mc;
    t.nc_override = blk.nc;
    const double g = measure<T>(mode, M, N, K, t, opt.reps, a, b, c);
    result.candidates.push_back({blk, g});
    if (g > best) {
      best = g;
      best_blk = blk;
    }
  };

  for (double s : opt.scales) {
    if (s == 1.0) continue;
    // Clamp to the model's kc ceiling: the plan applies kc_override
    // as-is, so an unclamped candidate would measure a blocking the
    // analytic model (and its L1 sliver argument) can never produce.
    try_blk({best_blk.mc,
             std::min(scaled(model_blk.kc, s), contracts::kMaxKc),
             best_blk.nc});
  }
  for (double s : opt.scales) {
    if (s == 1.0) continue;
    try_blk({scaled(model_blk.mc, s), best_blk.kc, best_blk.nc});
  }
  for (double s : opt.scales) {
    if (s == 1.0) continue;
    try_blk({best_blk.mc, best_blk.kc, scaled(model_blk.nc, s)});
  }

  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const TuneCandidate& x, const TuneCandidate& y) {
              return x.gflops > y.gflops;
            });
  result.best_gflops = best;
  result.config = base;
  result.config.kc_override = best_blk.kc;
  result.config.mc_override = best_blk.mc;
  result.config.nc_override = best_blk.nc;
  return result;
}

template TuneResult tune<float>(Mode, index_t, index_t, index_t,
                                const Config&, const TuneOptions&);
template TuneResult tune<double>(Mode, index_t, index_t, index_t,
                                 const Config&, const TuneOptions&);

}  // namespace shalom::tuning
