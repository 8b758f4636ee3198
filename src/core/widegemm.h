// Wide-vector GEMM: the paper's Section 5.5 port.
//
// "Our approach can be applied to a longer vector length with a revised
// mr and nr computed according to the available number and length of
// vector registers." gemm_wide does exactly that: FP32 NN GEMM at a
// vector width of 128, 256 or 512 bits (SVE stand-ins on x86), whose
// register tile comes from the SAME analytic model (Eq. 1/2) evaluated at
// the wider lane count:
//
//     width   lanes j   model tile (32 regs)   CMR
//     128 b      4            7 x 12           8.84
//     256 b      8            9 x 16          11.52
//     512 b     16           15 x 16          15.48
//
// (test_widegemm.cpp asserts the solver yields these tiles.) Nothing here
// is a second kernel or loop nest: detail::plan_wide plans the call as a
// SerialPlan with both operands packed at the width's tile, which runs in
// gemm's own serial loop nest and kern_main, instantiated at the width
// (broadcast-from-memory A at 256 and 512 bits). Quarantine of the width's
// families and the pack-arena audit come with that nest. The small-matrix
// selective machinery stays 128-bit; this path demonstrates width scaling
// on the compute kernel, which is what Section 5.5 claims.
#pragma once

#include "core/plan.h"

namespace shalom::wide {

/// FP32 NN-mode GEMM at the chosen vector width (128, 256 or 512 bits):
/// always-pack Goto blocking with the width's analytic tile.
template <int Bits>
void gemm_wide(index_t M, index_t N, index_t K, float alpha, const float* A,
               index_t lda, const float* B, index_t ldb, float beta,
               float* C, index_t ldc,
               const arch::MachineDescriptor& mach = arch::host_machine()) {
  static_assert(Bits == 128 || Bits == 256 || Bits == 512);
  detail::execute_serial(detail::plan_wide(Bits, M, N, K, mach), alpha, A,
                         lda, B, ldb, beta, C, ldc);
}

}  // namespace shalom::wide
