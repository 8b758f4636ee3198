// Shared Goto-algorithm driver for the always-pack baseline libraries.
//
// OpenBLAS and BLIS both follow Fig. 1 of the paper literally: loop order
// jj (nc) -> kk (kc) -> ii (mc), B packed per (jj, kk) panel and A packed
// per (ii) block, packing running as its own pass *before* the kernel -
// never overlapped - and packing happening unconditionally, whatever the
// matrix size. This header implements that structure once, templated on
// the register tile, so each baseline instantiates its own kernel family
// (8x4-style tiles vs LibShalom's 7x12).
#pragma once

#include <algorithm>

#include "common/aligned_buffer.h"
#include "core/dispatch.h"
#include "core/model.h"
#include "core/pack.h"
#include "core/types.h"

namespace shalom::baselines {

/// Always-pack Goto GEMM with an MR x (NRV*lanes) scheduled kernel and
/// scalar edge handling (`scalar_edges` = the OpenBLAS-style dedicated
/// remainder routine of Fig. 6a; false computes edges with the padded
/// packed buffers and partial C stores, the BLIS zero-pad strategy).
template <typename T, int MR, int NRV, bool ScalarEdges>
void goto_gemm(Mode mode, index_t M, index_t N, index_t K, T alpha,
               const T* A, index_t lda, const T* B, index_t ldb, T beta,
               T* C, index_t ldc, const arch::MachineDescriptor& mach) {
  using ukr::AAccess;
  using ukr::BAccess;
  constexpr int L = simd::vec_of_t<T>::kLanes;
  constexpr int NR = NRV * L;

  if (M == 0 || N == 0) return;
  if (K == 0 || alpha == T{0}) {
    for (index_t i = 0; i < M; ++i)
      for (index_t j = 0; j < N; ++j) {
        T& c = C[i * ldc + j];
        c = (beta == T{0}) ? T{} : beta * c;
      }
    return;
  }

  const model::Blocking blk =
      model::solve_blocking<T>(mach, {MR, NR}, M, N, K);

  AlignedBuffer& arena = thread_pack_arena();
  const index_t bc_elems = pack::b_panel_elems(blk.kc, blk.nc, NR);
  const index_t ac_elems = pack::a_panel_elems(blk.mc, blk.kc, MR);
  arena.reserve(static_cast<std::size_t>(ac_elems + bc_elems +
                                         2 * ukr::kPackSlackElems) *
                sizeof(T));
  T* const ac = arena.as<T>();
  T* const bc = ac + ac_elems + ukr::kPackSlackElems;

  for (index_t jj = 0; jj < N; jj += blk.nc) {
    const index_t ncur = std::min<index_t>(blk.nc, N - jj);
    for (index_t kk = 0; kk < K; kk += blk.kc) {
      const index_t kcur = std::min<index_t>(blk.kc, K - kk);
      const T beta_eff = (kk == 0) ? beta : T{1};

      // Pack the whole B panel for this (jj, kk) - a separate pass.
      if (mode.b == Trans::N) {
        pack::pack_b_n(B + kk * ldb + jj, ldb, kcur, ncur, NR, bc);
      } else {
        pack::pack_b_t(B + jj * ldb + kk, ldb, kcur, ncur, NR, bc);
      }

      for (index_t ii = 0; ii < M; ii += blk.mc) {
        const index_t mcur = std::min<index_t>(blk.mc, M - ii);
        // Pack the A block - also a separate pass.
        if (mode.a == Trans::N) {
          pack::pack_a_n(A + ii * lda + kk, lda, mcur, kcur, MR, ac);
        } else {
          pack::pack_a_t(A + kk * lda + ii, lda, mcur, kcur, MR, ac);
        }

        // GEBP kernel loops.
        for (index_t j0 = 0; j0 < ncur; j0 += NR) {
          const int n_eff =
              static_cast<int>(std::min<index_t>(NR, ncur - j0));
          const T* b_sliver =
              bc + (j0 / NR) * pack::b_sliver_elems(kcur, NR);
          for (index_t i0 = 0; i0 < mcur; i0 += MR) {
            const int m_eff =
                static_cast<int>(std::min<index_t>(MR, mcur - i0));
            const T* a_sliver =
                ac + (i0 / MR) * pack::a_sliver_elems(kcur, MR);
            T* c_tile = C + (ii + i0) * ldc + jj + j0;
            const bool edge = m_eff < MR || n_eff < NR;
            if (edge && ScalarEdges) {
              ukr::kern_scalar<T, AAccess::kPacked, BAccess::kPacked>(
                  m_eff, n_eff, kcur, a_sliver, MR, b_sliver, NR, c_tile,
                  ldc, alpha, beta_eff);
            } else {
              ukr::run_main_tile<T, AAccess::kPacked, BAccess::kPacked, 128,
                                 ukr::Pack{}, MR, NRV>(
                  m_eff, n_eff, kcur, a_sliver, MR, b_sliver, NR, c_tile,
                  ldc, alpha, beta_eff);
            }
          }
        }
      }
    }
  }
}

}  // namespace shalom::baselines
