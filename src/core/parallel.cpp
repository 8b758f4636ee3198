#include "core/parallel.h"

#include <algorithm>

#include "common/error.h"
#include "core/gemm.h"
#include "core/plan.h"

namespace shalom {

std::vector<index_t> split_range(index_t total, int parts, int align) {
  SHALOM_REQUIRE(parts >= 1 && align >= 1);
  const index_t tiles = (total + align - 1) / align;
  std::vector<index_t> offsets(parts + 1);
  for (int p = 0; p <= parts; ++p) {
    const index_t tile_off = tiles * p / parts;
    offsets[p] = std::min<index_t>(total, tile_off * align);
  }
  return offsets;
}

template <typename T>
void gemm_parallel(Mode mode, index_t M, index_t N, index_t K, T alpha,
                   const T* A, index_t lda, const T* B, index_t ldb, T beta,
                   T* C, index_t ldc, const Config& cfg) {
  const int threads = detail::resolve_threads(cfg.threads);
  // Degenerate shapes (and alpha == 0) never touch the partition solver or
  // the packing path: gemm_serial resolves them with at most a beta scale.
  if (threads <= 1 || M == 0 || N == 0 || K == 0 || alpha == T{0}) {
    gemm_serial(mode, M, N, K, alpha, A, lda, B, ldb, beta, C, ldc, cfg);
    return;
  }

  // The Tm x Tn partition, the tile-aligned row/col splits and the
  // per-cell serial decisions all live in the plan layer now; a per-call
  // parallel GEMM is a throwaway plan executed once.
  detail::check_gemm_args(mode, M, N, K, A, lda, B, ldb, C, ldc);
  Config resolved = cfg;
  resolved.threads = threads;
  const GemmPlan<T> plan = plan_create<T>(mode, M, N, K, resolved);
  detail::execute_plan(plan, alpha, A, lda, B, ldb, beta, C, ldc);
}

template void gemm_parallel<float>(Mode, index_t, index_t, index_t, float,
                                   const float*, index_t, const float*,
                                   index_t, float, float*, index_t,
                                   const Config&);
template void gemm_parallel<double>(Mode, index_t, index_t, index_t, double,
                                    const double*, index_t, const double*,
                                    index_t, double, double*, index_t,
                                    const Config&);

}  // namespace shalom
