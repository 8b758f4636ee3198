#include "cachesim/walkers.h"

#include <algorithm>

#include "core/model.h"

namespace shalom::cachesim {

namespace {

constexpr addr_t kPage = 4096;

/// Synthetic allocation layout: distinct page-aligned regions.
struct Layout {
  addr_t a, b, c, ac, bc;

  template <typename T>
  static Layout make(index_t M, index_t N, index_t K, index_t ac_elems) {
    auto align = [](addr_t x) { return (x + kPage - 1) / kPage * kPage; };
    Layout l{};
    addr_t cur = 16 * kPage;
    l.a = cur;
    cur = align(cur + static_cast<addr_t>(M) * K * sizeof(T));
    l.b = cur;
    cur = align(cur + static_cast<addr_t>(N) * K * sizeof(T));  // NT: N x K
    l.c = cur;
    cur = align(cur + static_cast<addr_t>(M) * N * sizeof(T));
    l.ac = cur;
    cur = align(cur + static_cast<addr_t>(ac_elems) * sizeof(T));
    l.bc = cur;
    return l;
  }
};

SimResult finish(const Hierarchy& h) {
  return {h.accesses(), h.l1_misses(), h.l2_misses(), h.l3_misses(),
          h.tlb_misses()};
}

/// Walks the C-tile update: mr rows of nr elements, read + write.
template <typename T>
void touch_c_tile(Hierarchy& h, addr_t c, index_t ldc, int mr, int nr) {
  for (int i = 0; i < mr; ++i) {
    const addr_t row = c + static_cast<addr_t>(i) * ldc * sizeof(T);
    h.access(row, static_cast<unsigned>(nr * sizeof(T)));  // read
    h.access(row, static_cast<unsigned>(nr * sizeof(T)));  // write
  }
}

}  // namespace

template <typename T>
SimResult walk_goto_nt(const arch::MachineDescriptor& machine, index_t M,
                       index_t N, index_t K, int mr, int nr) {
  Hierarchy h(machine);
  const model::Blocking blk =
      model::solve_blocking<T>(machine, {mr, nr}, M, N, K);
  const index_t ldb = K;  // B stored N x K under NT
  const index_t ldc = N;
  const index_t lda = K;
  const Layout lay = Layout::make<T>(M, N, K, blk.mc * blk.kc + 64);

  for (index_t jj = 0; jj < N; jj += blk.nc) {
    const index_t ncur = std::min<index_t>(blk.nc, N - jj);
    for (index_t kk = 0; kk < K; kk += blk.kc) {
      const index_t kcur = std::min<index_t>(blk.kc, K - kk);

      // Pack pass for the B panel: read each op(B) column (= B storage
      // row segment, contiguous along k), write the sliver region.
      for (index_t j0 = 0; j0 < ncur; j0 += nr) {
        const index_t width = std::min<index_t>(nr, ncur - j0);
        for (index_t j = 0; j < width; ++j) {
          h.access(lay.b + ((jj + j0 + j) * ldb + kk) * sizeof(T),
                   static_cast<unsigned>(kcur * sizeof(T)));
        }
        h.access(lay.bc + (j0 / nr) * blk.kc * nr * sizeof(T),
                 static_cast<unsigned>(kcur * nr * sizeof(T)));
      }

      for (index_t ii = 0; ii < M; ii += blk.mc) {
        const index_t mcur = std::min<index_t>(blk.mc, M - ii);

        // Pack pass for the A block: read rows, write slivers.
        for (index_t i = 0; i < mcur; ++i)
          h.access(lay.a + ((ii + i) * lda + kk) * sizeof(T),
                   static_cast<unsigned>(kcur * sizeof(T)));
        h.access(lay.ac, static_cast<unsigned>(
                             std::min<index_t>(mcur * kcur, blk.mc * blk.kc) *
                             sizeof(T)));

        // Packed-packed kernel loops.
        for (index_t j0 = 0; j0 < ncur; j0 += nr) {
          const addr_t bc_sliver =
              lay.bc + (j0 / nr) * blk.kc * nr * sizeof(T);
          for (index_t i0 = 0; i0 < mcur; i0 += mr) {
            const addr_t ac_sliver =
                lay.ac + (i0 / mr) * kcur * mr * sizeof(T);
            for (index_t k = 0; k < kcur; ++k) {
              h.access(ac_sliver + k * mr * sizeof(T),
                       static_cast<unsigned>(mr * sizeof(T)));
              h.access(bc_sliver + k * nr * sizeof(T),
                       static_cast<unsigned>(nr * sizeof(T)));
            }
            touch_c_tile<T>(h, lay.c + ((ii + i0) * ldc + jj + j0) *
                                           sizeof(T),
                            ldc, mr, nr);
          }
        }
      }
    }
  }
  return finish(h);
}

template <typename T>
SimResult walk_shalom_nt(const arch::MachineDescriptor& machine, index_t M,
                         index_t N, index_t K) {
  Hierarchy h(machine);
  constexpr int kMr = 7;
  const int nr = 12 * 4 / static_cast<int>(sizeof(T));  // 12 FP32 / 6 FP64
  const model::Blocking blk =
      model::solve_blocking<T>(machine, {kMr, nr}, M, N, K);
  const index_t ldb = K;
  const index_t ldc = N;
  const index_t lda = K;
  const Layout lay = Layout::make<T>(M, N, K, 64);

  // Loop exchange: ii before kk (Section 8.4's locality argument), A in
  // place, B packed inside the micro-kernel.
  for (index_t jj = 0; jj < N; jj += blk.nc) {
    const index_t ncur = std::min<index_t>(blk.nc, N - jj);
    for (index_t ii = 0; ii < M; ii += blk.mc) {
      const index_t mcur = std::min<index_t>(blk.mc, M - ii);
      for (index_t kk = 0; kk < K; kk += blk.kc) {
        const index_t kcur = std::min<index_t>(blk.kc, K - kk);

        for (index_t j0 = 0; j0 < ncur; j0 += nr) {
          const index_t width = std::min<index_t>(nr, ncur - j0);
          const addr_t bc_sliver = lay.bc + (j0 / nr) % 2 *
                                       (blk.kc * nr + 64) * sizeof(T);

          // Fused inner-product pack kernel: per 3-column group, walk the
          // first A stripe and the 3 B rows along k, scattering into Bc.
          const index_t stripe = std::min<index_t>(kMr, mcur);
          for (index_t jb = 0; jb < width; jb += 3) {
            const index_t w = std::min<index_t>(3, width - jb);
            for (index_t k = 0; k < kcur; k += 4) {
              const unsigned klen = static_cast<unsigned>(
                  std::min<index_t>(4, kcur - k) * sizeof(T));
              for (index_t i = 0; i < stripe; ++i)
                h.access(lay.a + ((ii + i) * lda + kk + k) * sizeof(T),
                         klen);
              for (index_t jc = 0; jc < w; ++jc)
                h.access(lay.b + ((jj + j0 + jb + jc) * ldb + kk + k) *
                                     sizeof(T),
                         klen);
              // Scatter: rows k..k+3 of the sliver, w elements each.
              for (index_t kk2 = 0; kk2 < std::min<index_t>(4, kcur - k);
                   ++kk2)
                h.access(bc_sliver + ((k + kk2) * nr + jb) * sizeof(T),
                         static_cast<unsigned>(w * sizeof(T)));
            }
          }
          touch_c_tile<T>(h,
                          lay.c + ((ii)*ldc + jj + j0) * sizeof(T), ldc,
                          static_cast<int>(stripe),
                          static_cast<int>(width));

          // Remaining stripes: direct A + packed B main kernel.
          for (index_t i0 = kMr; i0 < mcur; i0 += kMr) {
            const index_t meff = std::min<index_t>(kMr, mcur - i0);
            for (index_t k = 0; k < kcur; k += 4) {
              const unsigned klen = static_cast<unsigned>(
                  std::min<index_t>(4, kcur - k) * sizeof(T));
              for (index_t i = 0; i < meff; ++i)
                h.access(lay.a + ((ii + i0 + i) * lda + kk + k) * sizeof(T),
                         klen);
              for (index_t kk2 = 0; kk2 < std::min<index_t>(4, kcur - k);
                   ++kk2)
                h.access(bc_sliver + (k + kk2) * nr * sizeof(T),
                         static_cast<unsigned>(width * sizeof(T)));
            }
            touch_c_tile<T>(h,
                            lay.c + ((ii + i0) * ldc + jj + j0) * sizeof(T),
                            ldc, static_cast<int>(meff),
                            static_cast<int>(width));
          }
        }
      }
    }
  }
  return finish(h);
}

template SimResult walk_goto_nt<float>(const arch::MachineDescriptor&,
                                       index_t, index_t, index_t, int, int);
template SimResult walk_shalom_nt<float>(const arch::MachineDescriptor&,
                                         index_t, index_t, index_t);

}  // namespace shalom::cachesim
