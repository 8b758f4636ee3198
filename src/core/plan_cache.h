// Retired plan cache. Every gemm call now builds its plan in place
// (core/plan.h); this header keeps the old names compiling for the
// standalone benchmark in perfbench/ and for nothing else.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/shalom.h"

namespace shalom {

/// Always zero: there is no cache to count.
struct PlanCacheStats {
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  std::size_t size = 0, capacity = 0;
};

template <typename T>
class PlanCache {
 public:
  static PlanCache& global() {
    static PlanCache cache;
    return cache;
  }
  void clear() {}
  PlanCacheStats stats() const { return {}; }
};

/// Forwards to gemm.
template <typename T>
void gemm_cached(Mode mode, index_t M, index_t N, index_t K, T alpha,
                 const T* A, index_t lda, const T* B, index_t ldb, T beta,
                 T* C, index_t ldc, const Config& cfg = {}) {
  gemm(mode.a, mode.b, M, N, K, alpha, A, lda, B, ldb, beta, C, ldc, cfg);
}

}  // namespace shalom
