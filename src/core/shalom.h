// LibShalom public C++ API.
//
// Computes C = alpha * op(A) . op(B) + beta * C on row-major matrices,
// optimized for small and irregular-shaped (tall-and-skinny) problems on
// 128-bit-SIMD multi-cores, following Yang et al., "LibShalom: Optimizing
// Small and Irregular-Shaped Matrix Multiplications on ARMv8 Multi-Cores"
// (SC '21).
//
// Quick start:
//
//   #include "core/shalom.h"
//   std::vector<float> a(M*K), b(K*N), c(M*N);
//   shalom::gemm(shalom::Trans::N, shalom::Trans::N, M, N, K,
//                1.0f, a.data(), K, b.data(), N, 0.0f, c.data(), N);
//
// Pass a Config to control threading (cfg.threads = 0 uses every core) and
// to toggle the individual optimizations for ablation studies.
#pragma once

#include "common/matrix.h"
#include "core/gemm.h"
#include "core/parallel.h"
#include "core/types.h"

namespace shalom {

/// General matrix multiply: C = alpha * op(A) . op(B) + beta * C.
///
/// A is M x K (after op), row-major with leading dimension lda; B is
/// K x N (after op); C is M x N. Builds the call's plan in place and runs
/// the serial or fork-join driver per cfg.threads. Throws invalid_argument
/// on inconsistent dimensions.
template <typename T>
void gemm(Trans trans_a, Trans trans_b, index_t M, index_t N, index_t K,
          T alpha, const T* A, index_t lda, const T* B, index_t ldb, T beta,
          T* C, index_t ldc, const Config& cfg = {}) {
  const Mode mode{trans_a, trans_b};
  const numerics::Policy guard = cfg.check_numerics;
  if (guard != numerics::Policy::kIgnore)
    detail::numeric_guard_operands(mode, M, N, K, A, lda, B, ldb, beta, C,
                                   ldc, guard);
  if (cfg.threads == 1) {
    gemm_serial(mode, M, N, K, alpha, A, lda, B, ldb, beta, C, ldc, cfg);
  } else {
    gemm_parallel(mode, M, N, K, alpha, A, lda, B, ldb, beta, C, ldc, cfg);
  }
  if (guard != numerics::Policy::kIgnore)
    detail::numeric_guard_result(M, N, C, ldc, guard);
}

/// View-based convenience overload; dimensions are taken from the views.
/// The views describe the *stored* matrices (before op).
template <typename T>
void gemm(T alpha, MatrixView<const T> A, Trans trans_a,
          MatrixView<const T> B, Trans trans_b, T beta, MatrixView<T> C,
          const Config& cfg = {}) {
  const index_t M = (trans_a == Trans::N) ? A.rows() : A.cols();
  const index_t K = (trans_a == Trans::N) ? A.cols() : A.rows();
  const index_t N = (trans_b == Trans::N) ? B.cols() : B.rows();
  const index_t Kb = (trans_b == Trans::N) ? B.rows() : B.cols();
  SHALOM_REQUIRE(K == Kb, " K(A)=", K, " K(B)=", Kb);
  SHALOM_REQUIRE(C.rows() == M && C.cols() == N);
  gemm(trans_a, trans_b, M, N, K, alpha, A.data(), A.ld(), B.data(), B.ld(),
       beta, C.data(), C.ld(), cfg);
}

}  // namespace shalom
