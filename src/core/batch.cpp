#include "core/batch.h"

#include <algorithm>

#include "core/gemm.h"
#include "core/plan.h"
#include "core/threadpool.h"

namespace shalom {

template <typename T>
void gemm_batch(Mode mode, const std::vector<BatchEntry<T>>& batch,
                const Config& cfg) {
  if (batch.empty()) return;

  // Each entry is one serial product planned in place.
  Config serial_cfg = cfg;
  serial_cfg.threads = 1;
  auto run_one = [&](const BatchEntry<T>& e) {
    gemm_serial(mode, e.m, e.n, e.k, e.alpha, e.a, e.lda, e.b, e.ldb,
                e.beta, e.c, e.ldc, serial_cfg);
  };

  int threads = detail::resolve_threads(cfg.threads);
  threads = std::min<int>(threads, static_cast<int>(batch.size()));

  if (threads <= 1) {
    for (const auto& e : batch) run_one(e);
    return;
  }

  // Contiguous slices of the batch per thread: preserves any cache
  // affinity between neighbouring blocks the caller arranged.
  const std::size_t per_thread =
      (batch.size() + threads - 1) / threads;
  pool_run(threads, [&](int id) {
    const std::size_t begin = id * per_thread;
    const std::size_t end =
        std::min(batch.size(), begin + per_thread);
    for (std::size_t i = begin; i < end; ++i) run_one(batch[i]);
  });
}

template void gemm_batch<float>(Mode, const std::vector<BatchEntry<float>>&,
                                const Config&);
template void gemm_batch<double>(Mode,
                                 const std::vector<BatchEntry<double>>&,
                                 const Config&);

}  // namespace shalom
