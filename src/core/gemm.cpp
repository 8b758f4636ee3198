#include "core/gemm.h"

#include <string>

#include "common/error.h"
#include "common/fault.h"
#include "core/plan.h"

namespace shalom {

// The decision chain (blocking, packing, fused-pack eligibility, arena
// sizing) and the loop nest both live in core/plan.cpp: gemm_serial is one
// throwaway plan built and executed in place, which keeps it bitwise
// identical to plan_execute on a held plan of the same shape.
template <typename T>
void gemm_serial(Mode mode, index_t M, index_t N, index_t K, T alpha,
                 const T* A, index_t lda, const T* B, index_t ldb, T beta,
                 T* C, index_t ldc, const Config& cfg) {
  detail::check_gemm_args(mode, M, N, K, A, lda, B, ldb, C, ldc);
  if (M == 0 || N == 0) return;
  if (K == 0 || alpha == T{0}) {
    detail::scale_c(M, N, beta, C, ldc);
    return;
  }
  Config serial_cfg = cfg;
  serial_cfg.threads = 1;
  const GemmPlan<T> plan = plan_create<T>(mode, M, N, K, serial_cfg);
  detail::execute_serial(plan, alpha, A, lda, B, ldb, beta, C, ldc);
}

template void gemm_serial<float>(Mode, index_t, index_t, index_t, float,
                                 const float*, index_t, const float*,
                                 index_t, float, float*, index_t,
                                 const Config&);
template void gemm_serial<double>(Mode, index_t, index_t, index_t, double,
                                  const double*, index_t, const double*,
                                  index_t, double, double*, index_t,
                                  const Config&);

namespace detail {

namespace {

/// Records one anomalous operand and, under kFail, aborts the call before
/// any arithmetic can smear the non-finite values across C.
void numeric_anomaly(const char* operand, numerics::Policy policy) {
  telemetry::note_numeric_anomaly();
  if (policy == numerics::Policy::kFail)
    throw numeric_error(std::string("shalom: non-finite value (NaN/Inf) "
                                    "detected in operand ") +
                        operand);
}

}  // namespace

template <typename T>
void numeric_guard_operands(Mode mode, index_t M, index_t N, index_t K,
                            const T* A, index_t lda, const T* B, index_t ldb,
                            T beta, const T* C, index_t ldc,
                            numerics::Policy policy) {
  if (policy == numerics::Policy::kIgnore) return;
  // Validate the argument contract before scanning: the sampler trusts
  // (rows, cols, ld), and the dispatch path re-validates identically so
  // this adds no new failure mode.
  check_gemm_args(mode, M, N, K, A, lda, B, ldb, C, ldc);
  if (M > 0 && K > 0) {
    const index_t ar = (mode.a == Trans::N) ? M : K;
    const index_t ac = (mode.a == Trans::N) ? K : M;
    if (numerics::has_nonfinite(A, ar, ac, lda)) numeric_anomaly("A", policy);
  }
  if (K > 0 && N > 0) {
    const index_t br = (mode.b == Trans::N) ? K : N;
    const index_t bc = (mode.b == Trans::N) ? N : K;
    if (numerics::has_nonfinite(B, br, bc, ldb)) numeric_anomaly("B", policy);
  }
  // C's prior contents only flow into the result when beta reads them.
  if (beta != T{0} && M > 0 && N > 0 &&
      numerics::has_nonfinite(C, M, N, ldc))
    numeric_anomaly("C", policy);
}

template <typename T>
void numeric_guard_result(index_t M, index_t N, const T* C, index_t ldc,
                          numerics::Policy policy) {
  if (policy == numerics::Policy::kIgnore) return;
  if (M > 0 && N > 0 && numerics::has_nonfinite(C, M, N, ldc)) {
    telemetry::note_numeric_anomaly();
    if (policy == numerics::Policy::kFail)
      throw numeric_error(
          "shalom: non-finite value (NaN/Inf) in the computed result C");
  }
}

template void numeric_guard_operands<float>(Mode, index_t, index_t, index_t,
                                            const float*, index_t,
                                            const float*, index_t, float,
                                            const float*, index_t,
                                            numerics::Policy);
template void numeric_guard_operands<double>(Mode, index_t, index_t, index_t,
                                             const double*, index_t,
                                             const double*, index_t, double,
                                             const double*, index_t,
                                             numerics::Policy);
template void numeric_guard_result<float>(index_t, index_t, const float*,
                                          index_t, numerics::Policy);
template void numeric_guard_result<double>(index_t, index_t, const double*,
                                           index_t, numerics::Policy);

}  // namespace detail

}  // namespace shalom
