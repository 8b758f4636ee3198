// BLASFEO-strategy comparator.
//
// BLASFEO (Frison et al., TOMS 2018/2020) targets matrices that fit the L2
// cache: it converts whole operands to a panel-major format once (no
// multi-level cache blocking), runs an 8x8-class kernel over the panels,
// and selectively skips converting a small A. It has no multi-threaded
// GEMM, so the registry marks it serial/small-only and the benches exclude
// it from the irregular-shape experiments, as the paper does.
#include "baselines/goto_common.h"
#include "baselines/registry.h"

namespace shalom::baselines {

namespace {

template <typename T, int MR, int NRV>
void blasfeo_gemm(Mode mode, index_t M, index_t N, index_t K, T alpha,
                  const T* A, index_t lda, const T* B, index_t ldb, T beta,
                  T* C, index_t ldc) {
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

  // Panel-major conversion of the whole operands (BLASFEO's blasfeo_pack_*
  // API). Heuristic from the paper's related-work description: a small
  // untransposed A is used in place.
  const arch::MachineDescriptor& mach = arch::host_machine();
  const bool convert_a =
      mode.a == Trans::T ||
      static_cast<std::size_t>(M) * K * sizeof(T) > mach.l1d.size_bytes;

  AlignedBuffer& arena = thread_pack_arena();
  const index_t ac_elems = convert_a ? pack::a_panel_elems(M, K, MR) : 0;
  const index_t bc_elems = pack::b_panel_elems(K, N, NR);
  arena.reserve(static_cast<std::size_t>(ac_elems + bc_elems +
                                         2 * ukr::kPackSlackElems) *
                sizeof(T));
  T* const ac = arena.as<T>();
  T* const bc = ac + ac_elems + ukr::kPackSlackElems;

  if (convert_a) {
    if (mode.a == Trans::N) {
      pack::pack_a_n(A, lda, M, K, MR, ac);
    } else {
      pack::pack_a_t(A, lda, M, K, MR, ac);
    }
  }
  if (mode.b == Trans::N) {
    pack::pack_b_n(B, ldb, K, N, NR, bc);
  } else {
    pack::pack_b_t(B, ldb, K, N, NR, bc);
  }

  // Single-level kernel loops over the converted panels: no jj/ii/kk
  // blocking, the whole K runs in one sweep (L2-resident by assumption).
  for (index_t j0 = 0; j0 < N; j0 += NR) {
    const int n_eff = static_cast<int>(std::min<index_t>(NR, N - j0));
    const T* b_sliver = bc + (j0 / NR) * pack::b_sliver_elems(K, NR);
    for (index_t i0 = 0; i0 < M; i0 += MR) {
      const int m_eff = static_cast<int>(std::min<index_t>(MR, M - i0));
      T* c_tile = C + i0 * ldc + j0;
      if (convert_a) {
        const T* a_sliver = ac + (i0 / MR) * pack::a_sliver_elems(K, MR);
        ukr::run_main_tile<T, AAccess::kPacked, BAccess::kPacked, 128,
                           ukr::Pack{}, MR, NRV>(
            m_eff, n_eff, K, a_sliver, MR, b_sliver, NR, c_tile, ldc, alpha,
            beta);
      } else {
        ukr::run_main_tile<T, AAccess::kDirect, BAccess::kPacked, 128,
                           ukr::Pack{}, MR, NRV>(
            m_eff, n_eff, K, A + i0 * lda, lda, b_sliver, NR, c_tile, ldc,
            alpha, beta);
      }
    }
  }
}

}  // namespace

const Library& blasfeo_like() {
  static const Library lib{
      "BLASFEO*",
      [](Mode m, index_t M, index_t N, index_t K, float al, const float* A,
         index_t lda, const float* B, index_t ldb, float be, float* C,
         index_t ldc, int /*threads*/) {
        blasfeo_gemm<float, 8, 2>(m, M, N, K, al, A, lda, B, ldb, be, C,
                                  ldc);
      },
      [](Mode m, index_t M, index_t N, index_t K, double al,
         const double* A, index_t lda, const double* B, index_t ldb,
         double be, double* C, index_t ldc, int /*threads*/) {
        blasfeo_gemm<double, 8, 2>(m, M, N, K, al, A, lda, B, ldb, be, C,
                                   ldc);
      },
      /*supports_parallel=*/false,
      /*small_only=*/true,
  };
  return lib;
}

}  // namespace shalom::baselines
