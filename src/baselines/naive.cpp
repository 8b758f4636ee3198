#include "baselines/naive.h"

#include <cmath>

namespace shalom::baselines {

template <typename T>
void naive_gemm(Mode mode, index_t M, index_t N, index_t K, T alpha,
                const T* A, index_t lda, const T* B, index_t ldb, T beta,
                T* C, index_t ldc) {
  auto a_at = [&](index_t i, index_t k) {
    return (mode.a == Trans::N) ? A[i * lda + k] : A[k * lda + i];
  };
  auto b_at = [&](index_t k, index_t j) {
    return (mode.b == Trans::N) ? B[k * ldb + j] : B[j * ldb + k];
  };
  for (index_t i = 0; i < M; ++i) {
    for (index_t j = 0; j < N; ++j) {
      T sum{};
      for (index_t k = 0; k < K; ++k)
        sum = std::fma(a_at(i, k), b_at(k, j), sum);
      T& c = C[i * ldc + j];
      c = (beta == T{0}) ? alpha * sum : std::fma(beta, c, alpha * sum);
    }
  }
}

template void naive_gemm<float>(Mode, index_t, index_t, index_t, float,
                                const float*, index_t, const float*, index_t,
                                float, float*, index_t);
template void naive_gemm<double>(Mode, index_t, index_t, index_t, double,
                                 const double*, index_t, const double*,
                                 index_t, double, double*, index_t);

}  // namespace shalom::baselines
