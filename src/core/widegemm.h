// Wide-vector GEMM: the paper's Section 5.5 port.
//
// "Our approach can be applied to a longer vector length with a revised
// mr and nr computed according to the available number and length of
// vector registers." This header instantiates exactly that: an FP32
// Goto-style GEMM templated on the vector width (128/256/512 bits; SVE
// stand-ins on x86), whose register tile comes from the SAME analytic
// model (Eq. 1/2) evaluated at the wider lane count:
//
//     width   lanes j   model tile (32 regs)   CMR
//     128 b      4            7 x 12           8.84
//     256 b      8            9 x 16          11.52
//     512 b     16           15 x 16          15.48
//
// (test_widegemm.cpp asserts the solver yields these tiles.) The kernel
// uses the broadcast-from-memory form natural to wide ISAs: per k, NRV
// wide B loads + MR scalar broadcasts from the packed A column + MR*NRV
// FMAs. Both operands are packed (the small-matrix selective machinery
// stays 128-bit; this path demonstrates width scaling on the compute
// kernel, which is what Section 5.5 claims).
#pragma once

#include <algorithm>

#include "common/aligned_buffer.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/selfcheck.h"
#include "core/kernel_contracts.h"
#include "core/microkernel.h"
#include "core/model.h"
#include "core/pack.h"
#include "simd/vecwide.h"

namespace shalom::wide {

/// Register tile the analytic model yields for 32 registers at this
/// width; kept in sync with model::solve_tile by test_widegemm.cpp.
template <int Bits>
struct WideTile;
template <>
struct WideTile<128> {
  static constexpr int kMr = 7, kNrv = 3;
};
template <>
struct WideTile<256> {
  static constexpr int kMr = 9, kNrv = 2;
};
template <>
struct WideTile<512> {
  static constexpr int kMr = 15, kNrv = 1;
};

/// Registration-site contract: each width's tile must be exactly what the
/// analytic model yields for 32 registers at that lane count, and must
/// fit the register budget. A drifted specialization fails here instead
/// of in test_widegemm's runtime solver comparison.
#define SHALOM_CHECK_WIDE_TILE(Bits)                                       \
  static_assert(                                                           \
      contracts::fits_register_budget(WideTile<Bits>::kMr,                 \
                                      WideTile<Bits>::kNrv),               \
      "register budget violated: mr + nr/j + mr*nr/j <= 31 (paper Eq. 1 " \
      "evaluated at the " #Bits "-bit lane count)");                       \
  static_assert(                                                           \
      contracts::solve_tile(contracts::kVectorRegisters, (Bits) / 32)      \
                  .mr == WideTile<Bits>::kMr &&                            \
          contracts::solve_tile(contracts::kVectorRegisters, (Bits) / 32)  \
                  .nr == WideTile<Bits>::kNrv * ((Bits) / 32),             \
      "CMR optimality violated: WideTile<" #Bits "> must equal the "      \
      "analytic model tile solve_tile(32, " #Bits "/32) (paper S 5.5)")

SHALOM_CHECK_WIDE_TILE(128);
SHALOM_CHECK_WIDE_TILE(256);
SHALOM_CHECK_WIDE_TILE(512);
#undef SHALOM_CHECK_WIDE_TILE

/// One (MR x NRV*lanes) tile update over packed operands; m_eff/n_eff
/// select the stored sub-tile (packed buffers are zero-padded, so the
/// compute always runs the full tile).
template <int Bits>
void wide_tile(int m_eff, int n_eff, index_t kc, const float* a_sliver,
               const float* b_sliver, float* c, index_t ldc, float alpha,
               float beta) {
  using W = simd::wide<Bits>;
  using V = typename W::type;
  constexpr int kMr = WideTile<Bits>::kMr;
  constexpr int kNrv = WideTile<Bits>::kNrv;
  constexpr int kLanes = V::kLanes;
  constexpr int kNr = kNrv * kLanes;

  V acc[kMr][kNrv];
  ukr::unroll<kMr>([&](auto i) {
    ukr::unroll<kNrv>([&](auto jv) { acc[i][jv] = W::zero(); });
  });

  for (index_t k = 0; k < kc; ++k) {
    const float* arow = a_sliver + k * kMr;
    const float* brow = b_sliver + k * kNr;
    V bv[kNrv];
    ukr::unroll<kNrv>(
        [&](auto jv) { bv[jv] = W::ld(brow + jv * kLanes); });
    ukr::unroll<kMr>([&](auto i) {
      const V as = W::bcast(arow[i]);
      ukr::unroll<kNrv>([&](auto jv) {
        acc[i][jv] = W::fma(acc[i][jv], as, bv[jv]);
      });
    });
  }

  const V valpha = W::bcast(alpha);
  const V vbeta = W::bcast(beta);
  for (int i = 0; i < m_eff; ++i) {
    float* crow = c + i * ldc;
    for (int jv = 0; jv * kLanes < n_eff; ++jv) {
      const int cols = std::min(kLanes, n_eff - jv * kLanes);
      V r = W::fma(W::zero(), acc[i][jv], valpha);
      if (cols == kLanes) {
        if (beta != 0.f) r = W::fma(r, W::ld(crow + jv * kLanes), vbeta);
        W::st(crow + jv * kLanes, r);
      } else {
        if (beta != 0.f)
          r = W::fma(r, W::ldp(crow + jv * kLanes, cols), vbeta);
        W::stp(crow + jv * kLanes, r, cols);
      }
    }
  }
}

/// FP32 NN-mode GEMM at the chosen vector width: always-pack Goto
/// blocking with the width's analytic tile.
template <int Bits>
void gemm_wide(index_t M, index_t N, index_t K, float alpha, const float* A,
               index_t lda, const float* B, index_t ldb, float beta,
               float* C, index_t ldc,
               const arch::MachineDescriptor& mach = arch::host_machine()) {
  constexpr int kMr = WideTile<Bits>::kMr;
  constexpr int kLanes = Bits / 32;
  constexpr int kNr = WideTile<Bits>::kNrv * kLanes;

  if (M == 0 || N == 0) return;
  if (K == 0 || alpha == 0.f) {
    for (index_t i = 0; i < M; ++i)
      for (index_t j = 0; j < N; ++j) {
        float& cv = C[i * ldc + j];
        cv = beta == 0.f ? 0.f : beta * cv;
      }
    return;
  }

  // Quarantine gate: a wide_tile variant that failed its selfcheck probe
  // (common/selfcheck.h) is routed to the scalar reference loop instead.
  if (!selfcheck::variant_ok(selfcheck::wide_variant(Bits))) {
    for (index_t i = 0; i < M; ++i) {
      float* crow = C + i * ldc;
      for (index_t j = 0; j < N; ++j) {
        float sum = 0.f;
        for (index_t k = 0; k < K; ++k) sum += A[i * lda + k] * B[k * ldb + j];
        crow[j] = beta == 0.f ? alpha * sum : beta * crow[j] + alpha * sum;
      }
    }
    return;
  }

  const model::Blocking blk =
      model::solve_blocking<float>(mach, {kMr, kNr}, M, N, K);
  AlignedBuffer& arena = thread_pack_arena();
  const index_t ac_elems = pack::a_panel_elems(blk.mc, blk.kc, kMr);
  const index_t bc_elems = pack::b_panel_elems(blk.kc, blk.nc, kNr);
  arena.reserve(static_cast<std::size_t>(ac_elems + bc_elems +
                                         2 * ukr::kPackSlackElems) *
                sizeof(float));
  float* const ac = arena.as<float>();
  float* const bc = ac + ac_elems + ukr::kPackSlackElems;

  for (index_t jj = 0; jj < N; jj += blk.nc) {
    const index_t ncur = std::min<index_t>(blk.nc, N - jj);
    for (index_t kk = 0; kk < K; kk += blk.kc) {
      const index_t kcur = std::min<index_t>(blk.kc, K - kk);
      const float beta_eff = kk == 0 ? beta : 1.f;
      pack::pack_b_n(B + kk * ldb + jj, ldb, kcur, ncur, kNr, bc);
      for (index_t ii = 0; ii < M; ii += blk.mc) {
        const index_t mcur = std::min<index_t>(blk.mc, M - ii);
        pack::pack_a_n(A + ii * lda + kk, lda, mcur, kcur, kMr, ac);
        for (index_t j0 = 0; j0 < ncur; j0 += kNr) {
          const int n_eff =
              static_cast<int>(std::min<index_t>(kNr, ncur - j0));
          const float* b_sliver =
              bc + (j0 / kNr) * pack::b_sliver_elems(kcur, kNr);
          for (index_t i0 = 0; i0 < mcur; i0 += kMr) {
            const int m_eff =
                static_cast<int>(std::min<index_t>(kMr, mcur - i0));
            const float* a_sliver =
                ac + (i0 / kMr) * pack::a_sliver_elems(kcur, kMr);
            wide_tile<Bits>(m_eff, n_eff, kcur, a_sliver, b_sliver,
                            C + (ii + i0) * ldc + jj + j0, ldc, alpha,
                            beta_eff);
          }
        }
      }
    }
  }

  // Guarded-arena audit (SHALOM_GUARD): a violated canary means the wide
  // tile wrote outside the arena - quarantine it and fail the call.
  if (!arena.verify_guards()) {
    telemetry::note(Counter::kArenaCorruptions);
    selfcheck::quarantine(selfcheck::wide_variant(Bits));
    throw corruption_error(
        "pack-arena guard canary violated after wide-GEMM execution "
        "(wide tile quarantined, result must be discarded)");
  }
}

}  // namespace shalom::wide
