// Reference GEMM: the correctness oracle for every other implementation.
//
// A plain triple loop with no blocking, no packing and no vectorization
// hints. Deliberately simple so it is "obviously correct" - all tests
// compare optimized implementations against this. Its multiply-adds are
// explicit std::fma, rounded exactly as ukr::kern_scalar rounds them.
#pragma once

#include "common/matrix.h"
#include "core/types.h"

namespace shalom::baselines {

/// C = alpha * op(A) . op(B) + beta * C, row-major, scalar triple loop.
template <typename T>
void naive_gemm(Mode mode, index_t M, index_t N, index_t K, T alpha,
                const T* A, index_t lda, const T* B, index_t ldb, T beta,
                T* C, index_t ldc);

}  // namespace shalom::baselines
