// Empirical auto-tuning of the cache-blocking parameters.
//
// The paper's future work (Section 10): "open up the kernel parameters to
// allow an auto-tuning framework to search for the optimal parameters".
// This module implements that framework for the parameters the driver
// exposes (kc / mc / nc, via Config overrides): it measures the target
// GEMM shape over a geometric neighbourhood of the analytic model's
// blocking and returns the fastest configuration, together with the
// measured improvement over the model - which also quantifies how good
// the closed-form model already is (the ablation bench reports this).
#pragma once

#include <vector>

#include "core/model.h"
#include "core/types.h"

namespace shalom::tuning {

struct TuneCandidate {
  model::Blocking blocking;
  double gflops = 0;
};

struct TuneResult {
  /// Best configuration found (ready to pass to shalom::gemm).
  Config config;
  /// Its measured throughput.
  double best_gflops = 0;
  /// Throughput of the analytic model's default blocking.
  double model_gflops = 0;
  /// Every candidate evaluated, best first.
  std::vector<TuneCandidate> candidates;

  double gain() const {
    return model_gflops > 0 ? best_gflops / model_gflops : 1.0;
  }
};

struct TuneOptions {
  int reps = 3;
  /// Multiplicative factors applied to each model-derived block size.
  std::vector<double> scales = {0.5, 0.75, 1.0, 1.5, 2.0};
};

/// Tunes a single shape. `base` supplies machine/threads/feature flags;
/// its override fields are ignored and replaced by the search.
template <typename T>
TuneResult tune(Mode mode, index_t M, index_t N, index_t K,
                const Config& base = {}, const TuneOptions& opt = {});

}  // namespace shalom::tuning
