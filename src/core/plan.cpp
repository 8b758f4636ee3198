#include "core/plan.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <thread>
#include <tuple>
#include <type_traits>

#include "common/aligned_buffer.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/guard.h"
#include "common/thread_annotations.h"
#include "core/dispatch.h"
#include "core/pack.h"
#include "core/parallel.h"
#include "core/threadpool.h"

namespace shalom {

namespace detail {

template <typename T>
void scale_c(index_t M, index_t N, T beta, T* C, index_t ldc) {
  if (beta == T{1}) return;
  for (index_t i = 0; i < M; ++i) {
    T* row = C + i * ldc;
    if (beta == T{0}) {
      std::fill(row, row + N, T{});
    } else {
      for (index_t j = 0; j < N; ++j) row[j] *= beta;
    }
  }
}

template void scale_c<float>(index_t, index_t, float, float*, index_t);
template void scale_c<double>(index_t, index_t, double, double*, index_t);

/// Rejects shapes whose operand element counts (M*K, K*N, M*N) or byte
/// sizes would overflow index_t: every later sizing expression (lda math,
/// arena_bytes, partition solving) assumes these products are representable,
/// so overflow here would be UB, not just a failed allocation.
template <typename T>
void check_shape_bounds(index_t M, index_t N, index_t K) {
  constexpr index_t kMaxElems =
      std::numeric_limits<index_t>::max() / static_cast<index_t>(sizeof(T));
  if (K > 0)
    SHALOM_REQUIRE(M <= kMaxElems / K, ": M*K overflows; M=", M, " K=", K);
  if (N > 0) {
    SHALOM_REQUIRE(K <= kMaxElems / N, ": K*N overflows; K=", K, " N=", N);
    SHALOM_REQUIRE(M <= kMaxElems / N, ": M*N overflows; M=", M, " N=", N);
  }
}

template void check_shape_bounds<float>(index_t, index_t, index_t);
template void check_shape_bounds<double>(index_t, index_t, index_t);

template <typename T>
void check_gemm_args(Mode mode, index_t M, index_t N, index_t K, const T* A,
                     index_t lda, const T* B, index_t ldb, const T* C,
                     index_t ldc) {
  SHALOM_REQUIRE(M >= 0 && N >= 0 && K >= 0, " M=", M, " N=", N, " K=", K);
  check_shape_bounds<T>(M, N, K);
  const index_t a_cols = (mode.a == Trans::N) ? K : M;
  const index_t b_cols = (mode.b == Trans::N) ? N : K;
  SHALOM_REQUIRE(lda >= std::max<index_t>(1, a_cols), " lda=", lda);
  SHALOM_REQUIRE(ldb >= std::max<index_t>(1, b_cols), " ldb=", ldb);
  SHALOM_REQUIRE(ldc >= std::max<index_t>(1, N), " ldc=", ldc);
  if (M > 0 && N > 0) SHALOM_REQUIRE(C != nullptr);
  if (M > 0 && K > 0) SHALOM_REQUIRE(A != nullptr);
  if (K > 0 && N > 0) SHALOM_REQUIRE(B != nullptr);
}

template void check_gemm_args<float>(Mode, index_t, index_t, index_t,
                                     const float*, index_t, const float*,
                                     index_t, const float*, index_t);
template void check_gemm_args<double>(Mode, index_t, index_t, index_t,
                                      const double*, index_t, const double*,
                                      index_t, const double*, index_t);

int resolve_threads(int threads) {
  if (threads != 0) return threads;
  // SHALOM_THREADS caps the "all cores" resolution (parsed once; malformed
  // values warn and are ignored).
  static const long env_threads = env::get_long("SHALOM_THREADS", 0, 1, 4096);
  if (env_threads > 0) return static_cast<int>(env_threads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {

/// Everything the inner tile loop needs about one (ii, kk) block.
template <typename T>
struct BlockCtx {
  // A access: direct (row-major, stride lda) or packed column slivers.
  bool a_packed = false;
  const T* a_base = nullptr;  // block corner (direct) or packed buffer
  index_t a_ld = 0;           // lda (direct) or mr sliver stride (packed)

  // B access for the current sliver.
  const T* b_src = nullptr;
  index_t b_ld = 0;  // ldb (direct) or nr (packed)
  bool b_packed = false;
};

/// Runs the i0 row-tile loop for one B sliver.
template <typename T>
void run_row_tiles(const BlockCtx<T>& ctx, const model::Tile& tile,
                   bool optimized_edges, bool force_scalar, index_t i_start,
                   index_t mcur, int n_eff, index_t kcur, T* c_col,
                   index_t ldc, T alpha, T beta_eff) {
  using ukr::AAccess;
  using ukr::BAccess;
  for (index_t i0 = i_start; i0 < mcur; i0 += tile.mr) {
    const int m_eff = static_cast<int>(
        std::min<index_t>(tile.mr, mcur - i0));
    const T* a_tile =
        ctx.a_packed
            ? ctx.a_base + (i0 / tile.mr) * pack::a_sliver_elems(kcur, tile.mr)
            : ctx.a_base + i0 * ctx.a_ld;
    T* c_tile = c_col + i0 * ldc;
    const bool edge = m_eff < tile.mr || n_eff < tile.nr;

    if (force_scalar || (edge && !optimized_edges)) {
      // Ablation: remainder tiles processed by the unscheduled scalar
      // routine (the cost model of existing libraries' edge handling).
      if (ctx.a_packed) {
        ukr::kern_scalar<T, AAccess::kPacked, BAccess::kDirect>(
            m_eff, n_eff, kcur, a_tile, ctx.a_ld, ctx.b_src, ctx.b_ld,
            c_tile, ldc, alpha, beta_eff);
      } else {
        ukr::kern_scalar<T, AAccess::kDirect, BAccess::kDirect>(
            m_eff, n_eff, kcur, a_tile, ctx.a_ld, ctx.b_src, ctx.b_ld,
            c_tile, ldc, alpha, beta_eff);
      }
      continue;
    }

    if (ctx.a_packed) {
      if (ctx.b_packed) {
        ukr::run_main_tile<T, AAccess::kPacked, BAccess::kPacked>(
            m_eff, n_eff, kcur, a_tile, ctx.a_ld, ctx.b_src, ctx.b_ld,
            c_tile, ldc, alpha, beta_eff);
      } else {
        ukr::run_main_tile<T, AAccess::kPacked, BAccess::kDirect>(
            m_eff, n_eff, kcur, a_tile, ctx.a_ld, ctx.b_src, ctx.b_ld,
            c_tile, ldc, alpha, beta_eff);
      }
    } else {
      if (ctx.b_packed) {
        ukr::run_main_tile<T, AAccess::kDirect, BAccess::kPacked>(
            m_eff, n_eff, kcur, a_tile, ctx.a_ld, ctx.b_src, ctx.b_ld,
            c_tile, ldc, alpha, beta_eff);
      } else {
        ukr::run_main_tile<T, AAccess::kDirect, BAccess::kDirect>(
            m_eff, n_eff, kcur, a_tile, ctx.a_ld, ctx.b_src, ctx.b_ld,
            c_tile, ldc, alpha, beta_eff);
      }
    }
  }
}

/// Degraded-mode executor: the plan wanted packed operands but the pack
/// arena could not be reserved, so run the same blocked loop nest reading
/// A and B in place (the paper's selective-packing "no-pack" path applied
/// unconditionally). Keeps the plan's exact blocking and tile traversal so
/// each accumulator sees the identical FMA sequence - for N/T-A with
/// direct-N B the results are bitwise-identical to the packed execution.
/// Transposed B has no direct-access kernel (the NT path needs either a
/// packed sliver or the horizontal-reduction fused kernel, both
/// arena-backed), so those blocks fall back to the scalar kernel-order
/// loop: still correct, just slow - this path only runs under memory
/// pressure.
template <typename T>
void execute_serial_nopack(const GemmPlan<T>& plan, T alpha, const T* A,
                           index_t lda, const T* B, index_t ldb, T beta,
                           T* C, index_t ldc) {
  using ukr::AAccess;
  using ukr::BAccess;
  const index_t M = plan.m, N = plan.n, K = plan.k;
  const Mode mode = plan.mode;
  const model::Blocking& blk = plan.blk;
  const model::Tile& tile = plan.tile;

  // This degraded path dispatches in-place kernel families the plan's
  // packed execution never consulted, so re-check quarantine state here
  // (cold path; one atomic load per family after the first probe).
  const AAccess aa_np =
      (mode.a == Trans::N) ? AAccess::kDirect : AAccess::kDirectTrans;
  const bool main_ok =
      !plan.force_scalar_kernels &&
      selfcheck::variant_ok(ukr::main_variant<T>(aa_np, BAccess::kDirect));
  const bool edges_ok =
      plan.optimized_edges && main_ok &&
      selfcheck::variant_ok(ukr::edge_variant<T>(aa_np, BAccess::kDirect));

  for (index_t jj = 0; jj < N; jj += blk.nc) {
    const index_t ncur = std::min<index_t>(blk.nc, N - jj);
    for (index_t ii = 0; ii < M; ii += blk.mc) {
      const index_t mcur = std::min<index_t>(blk.mc, M - ii);
      for (index_t kk = 0; kk < K; kk += blk.kc) {
        const index_t kcur = std::min<index_t>(blk.kc, K - kk);
        const T beta_eff = (kk == 0) ? beta : T{1};

        if (mode.b == Trans::T) {
          for (index_t i = 0; i < mcur; ++i) {
            const T* a_row = (mode.a == Trans::N)
                                 ? A + (ii + i) * lda + kk
                                 : A + kk * lda + ii + i;
            const index_t a_step = (mode.a == Trans::N) ? 1 : lda;
            T* c_row = C + (ii + i) * ldc + jj;
            for (index_t j = 0; j < ncur; ++j) {
              const T* b_col = B + (jj + j) * ldb + kk;
              T sum{};
              for (index_t k = 0; k < kcur; ++k)
                sum += a_row[k * a_step] * b_col[k];
              c_row[j] = (beta_eff == T{0}) ? alpha * sum
                                            : beta_eff * c_row[j] + alpha * sum;
            }
          }
          continue;
        }

        for (index_t j0 = 0; j0 < ncur; j0 += tile.nr) {
          const int n_eff =
              static_cast<int>(std::min<index_t>(tile.nr, ncur - j0));
          const T* const b_src = B + kk * ldb + jj + j0;
          T* const c_col = C + ii * ldc + jj + j0;
          for (index_t i0 = 0; i0 < mcur; i0 += tile.mr) {
            const int m_eff =
                static_cast<int>(std::min<index_t>(tile.mr, mcur - i0));
            T* const c_tile = c_col + i0 * ldc;
            const bool edge = m_eff < tile.mr || n_eff < tile.nr;
            if (mode.a == Trans::N) {
              const T* a_tile = A + (ii + i0) * lda + kk;
              if (!main_ok || (edge && !edges_ok)) {
                ukr::kern_scalar<T, AAccess::kDirect, BAccess::kDirect>(
                    m_eff, n_eff, kcur, a_tile, lda, b_src, ldb, c_tile,
                    ldc, alpha, beta_eff);
              } else {
                ukr::run_main_tile<T, AAccess::kDirect, BAccess::kDirect>(
                    m_eff, n_eff, kcur, a_tile, lda, b_src, ldb, c_tile,
                    ldc, alpha, beta_eff);
              }
            } else {
              // op(A) column k is the contiguous run a[k*lda + i]: the
              // kPacked scalar indexing doubles as in-place transposed
              // access with lda as the sliver stride.
              const T* a_tile = A + kk * lda + ii + i0;
              if (!main_ok || (edge && !edges_ok)) {
                ukr::kern_scalar<T, AAccess::kPacked, BAccess::kDirect>(
                    m_eff, n_eff, kcur, a_tile, lda, b_src, ldb, c_tile,
                    ldc, alpha, beta_eff);
              } else {
                ukr::run_main_tile<T, AAccess::kDirectTrans,
                                   BAccess::kDirect>(
                    m_eff, n_eff, kcur, a_tile, lda, b_src, ldb, c_tile,
                    ldc, alpha, beta_eff);
              }
            }
          }
        }
      }
    }
  }
}

/// Quarantine executor: every main-kernel family this plan would dispatch
/// failed its selfcheck probe, so trust nothing downstream of the scalar
/// reference - no packing, no fused kernels, no register tiles. Runs the
/// plan's cache blocking (so beta_eff semantics match the optimized
/// executor) with the same in-place triple loop as baselines::naive_gemm;
/// within one k-block the accumulation order is identical to naive's.
template <typename T>
void execute_serial_scalar(const GemmPlan<T>& plan, T alpha, const T* A,
                           index_t lda, const T* B, index_t ldb, T beta,
                           T* C, index_t ldc) {
  const index_t M = plan.m, N = plan.n, K = plan.k;
  const Mode mode = plan.mode;
  const model::Blocking& blk = plan.blk;
  for (index_t jj = 0; jj < N; jj += blk.nc) {
    const index_t ncur = std::min<index_t>(blk.nc, N - jj);
    for (index_t ii = 0; ii < M; ii += blk.mc) {
      const index_t mcur = std::min<index_t>(blk.mc, M - ii);
      for (index_t kk = 0; kk < K; kk += blk.kc) {
        const index_t kcur = std::min<index_t>(blk.kc, K - kk);
        const T beta_eff = (kk == 0) ? beta : T{1};
        for (index_t i = ii; i < ii + mcur; ++i) {
          for (index_t j = jj; j < jj + ncur; ++j) {
            T sum{};
            for (index_t k = kk; k < kk + kcur; ++k) {
              const T av =
                  (mode.a == Trans::N) ? A[i * lda + k] : A[k * lda + i];
              const T bv =
                  (mode.b == Trans::N) ? B[k * ldb + j] : B[j * ldb + k];
              sum += av * bv;
            }
            T& cv = C[i * ldc + j];
            cv = (beta_eff == T{0}) ? alpha * sum
                                    : beta_eff * cv + alpha * sum;
          }
        }
      }
    }
  }
}

/// Post-execution canary audit of this thread's guarded pack arena
/// (SHALOM_GUARD=canary|poison, common/guard.h). A violated canary
/// proves some kernel this plan dispatched wrote outside the arena, so
/// the result cannot be trusted: quarantine the plan's main-kernel
/// family (later plans route to the scalar reference) and fail the call
/// with corruption_error (SHALOM_ERR_CORRUPTION over the C API). The
/// guard.canary fault site simulates a violation for the tests. No-op
/// when the buffer is unguarded (verify_guards is trivially true).
template <typename T>
void verify_pack_arena(const GemmPlan<T>& plan, AlignedBuffer& arena) {
  bool intact = arena.verify_guards();
  if (SHALOM_FAULT_POINT(fault::Site::kGuardCanary)) intact = false;
  if (intact) return;

  telemetry::note_arena_corruption();
  using ukr::AAccess;
  using ukr::BAccess;
  // Same main-variant mapping as plan_create's quarantine gate: the
  // trans-A no-pack plan maps to the trans-direct quarantine unit.
  const AAccess aa = plan.a_packed                ? AAccess::kPacked
                     : (plan.mode.a == Trans::N) ? AAccess::kDirect
                                                 : AAccess::kDirectTrans;
  const BAccess ba = plan.b_packed ? BAccess::kPacked : BAccess::kDirect;
  const selfcheck::Variant v = ukr::main_variant<T>(aa, ba);
  selfcheck::quarantine(v);
  char msg[192];
  std::snprintf(msg, sizeof msg,
                "pack-arena guard canary violated after execution "
                "(kernel variant '%s' wrote outside its arena; variant "
                "quarantined, result must be discarded)",
                selfcheck::variant_name(v));
  throw corruption_error(msg);
}

}  // namespace

template <typename T>
void execute_serial(const GemmPlan<T>& plan, T alpha, const T* A,
                    index_t lda, const T* B, index_t ldb, T beta, T* C,
                    index_t ldc) {
  const index_t M = plan.m, N = plan.n, K = plan.k;
  if (M == 0 || N == 0) return;
  if (K == 0 || alpha == T{0}) {
    scale_c(M, N, beta, C, ldc);
    return;
  }

  if (plan.force_scalar_kernels) {
    execute_serial_scalar(plan, alpha, A, lda, B, ldb, beta, C, ldc);
    return;
  }

  const model::Tile& tile = plan.tile;

  // Fast path for small GEMMs (the library's headline workload): the plan
  // resolved the no-packing case once; jump straight to the register-tile
  // loops over the full K.
  if (plan.small_fast_path) {
    for (index_t j0 = 0; j0 < N; j0 += tile.nr) {
      const int n_eff =
          static_cast<int>(std::min<index_t>(tile.nr, N - j0));
      for (index_t i0 = 0; i0 < M; i0 += tile.mr) {
        const int m_eff =
            static_cast<int>(std::min<index_t>(tile.mr, M - i0));
        ukr::run_main_tile<T, ukr::AAccess::kDirect, ukr::BAccess::kDirect>(
            m_eff, n_eff, K, A + i0 * lda, lda, B + j0, ldb,
            C + i0 * ldc + j0, ldc, alpha, beta);
      }
    }
    return;
  }

  const Mode mode = plan.mode;
  const model::Blocking& blk = plan.blk;
  const model::PackDecision& pack_plan = plan.pack;
  const bool a_packed = plan.a_packed;
  const bool b_packed = plan.b_packed;
  const bool a_fused = plan.a_fused;
  const bool b_fusable = plan.b_fusable;
  const index_t ac_elems = plan.ac_elems;
  const index_t bc_sliver = plan.bc_sliver;

  // Grow-only: a no-op unless this thread's arena has never served a
  // problem this large. If the reservation fails, degrade to the no-pack
  // executor instead of throwing out of the hot path.
  T* ac = nullptr;
  AlignedBuffer* arena_ptr = nullptr;
  if (a_packed || b_packed) {
    AlignedBuffer& arena = thread_pack_arena();
    try {
      if (SHALOM_FAULT_POINT(fault::Site::kAllocPackArena))
        throw std::bad_alloc();
      arena.reserve(plan.arena_bytes);
    } catch (const std::bad_alloc&) {
      telemetry::note_fallback_nopack();
      execute_serial_nopack(plan, alpha, A, lda, B, ldb, beta, C, ldc);
      return;
    }
    arena_ptr = &arena;
    ac = arena.as<T>();
  }
  T* const bc_base =
      ac != nullptr ? ac + ac_elems + ukr::kPackSlackElems : nullptr;

  for (index_t jj = 0; jj < N; jj += blk.nc) {
    const index_t ncur = std::min<index_t>(blk.nc, N - jj);
    for (index_t ii = 0; ii < M; ii += blk.mc) {
      const index_t mcur = std::min<index_t>(blk.mc, M - ii);
      for (index_t kk = 0; kk < K; kk += blk.kc) {
        const index_t kcur = std::min<index_t>(blk.kc, K - kk);
        const T beta_eff = (kk == 0) ? beta : T{1};

        BlockCtx<T> ctx;
        ctx.a_packed = a_packed;
        if (a_packed) {
          if (a_fused) {
            // Deferred: the s == 0 stripe loop below fills Ac.
          } else if (mode.a == Trans::N) {
            pack::pack_a_n(A + ii * lda + kk, lda, mcur, kcur, tile.mr, ac);
          } else {
            pack::pack_a_t(A + kk * lda + ii, lda, mcur, kcur, tile.mr, ac);
          }
          ctx.a_base = ac;
          ctx.a_ld = tile.mr;
        } else {
          SHALOM_ASSERT(mode.a == Trans::N);
          ctx.a_base = A + ii * lda + kk;
          ctx.a_ld = lda;
        }

        const index_t nslivers = (ncur + tile.nr - 1) / tile.nr;
        // True when the previous fused call already streamed the current
        // sliver into its packed buffer (pack-ahead t = 1 pipeline).
        bool prepacked = false;
        for (index_t s = 0; s < nslivers; ++s) {
          const index_t j0 = s * tile.nr;
          const int n_eff = static_cast<int>(
              std::min<index_t>(tile.nr, ncur - j0));
          T* const c_col = C + ii * ldc + jj + j0;
          index_t i_start = 0;

          if (!b_packed) {
            SHALOM_ASSERT(mode.b == Trans::N);
            ctx.b_src = B + kk * ldb + jj + j0;
            ctx.b_ld = ldb;
            ctx.b_packed = false;
          } else {
            T* const bc_cur = bc_base + (s % 2) * bc_sliver;
            T* const bc_next = bc_base + ((s + 1) % 2) * bc_sliver;
            const bool fused = b_fusable && mcur >= tile.mr;

            if (fused && mode.b == Trans::N) {
              // NN fused pack (Fig. 4). With pack-ahead (t = 1) the
              // current sliver arrives pre-packed from the previous
              // iteration, and this call streams sliver s+1 into the
              // other buffer while computing the first C stripe. Only
              // full-width next slivers are streamed ahead; an edge
              // final sliver packs itself on arrival.
              const bool next_full =
                  s + 1 < nslivers && ncur - (s + 1) * tile.nr >= tile.nr;
              const bool ahead = pack_plan.pack_ahead == 1 && next_full;
              const T* b_cur =
                  prepacked ? bc_cur : B + kk * ldb + jj + j0;
              const index_t b_cur_ld = prepacked ? tile.nr : ldb;
              const T* b_next =
                  ahead ? B + kk * ldb + jj + j0 + tile.nr : nullptr;
              ukr::run_fused_pack_nn<T>(
                  !prepacked, ahead, n_eff, kcur, A + ii * lda + kk, lda,
                  b_cur, b_cur_ld, bc_cur, b_next, ldb,
                  ahead ? bc_next : nullptr, c_col, ldc, alpha, beta_eff);
              prepacked = ahead;
              i_start = tile.mr;
            } else if (fused && mode.b == Trans::T && kcur >= 32) {
              // NT fused pack (Fig. 5 / Algorithm 3): inner-product
              // compute + scatter, 3 op(B) columns per call. The kernel
              // ends with a horizontal reduction of all mr x nr
              // accumulators, a fixed cost only a long enough K loop
              // amortizes; tiny-K slivers take the plain-pack path below
              // instead (same results, no reduction).
              if (n_eff < tile.nr)
                std::fill(bc_cur, bc_cur + kcur * tile.nr, T{});
              const T* b_cols = B + (jj + j0) * ldb + kk;
              for (int jb = 0; jb < n_eff; jb += 3) {
                const int w = std::min(3, n_eff - jb);
                const bool store_full = jb + w < n_eff;
                ukr::run_fused_pack_nt<T>(w, kcur, A + ii * lda + kk, lda,
                                          b_cols, ldb, bc_cur, jb, tile.nr,
                                          store_full, c_col, ldc, alpha,
                                          beta_eff);
              }
              i_start = tile.mr;
            } else {
              // Pack-ahead (sequential) path: baseline behaviour and the
              // TN/TT + short-stripe fallbacks.
              if (mode.b == Trans::N) {
                pack::pack_b_n(B + kk * ldb + jj + j0, ldb, kcur, n_eff,
                               tile.nr, bc_cur);
              } else {
                pack::pack_b_t(B + (jj + j0) * ldb + kk, ldb, kcur, n_eff,
                               tile.nr, bc_cur);
              }
            }
            ctx.b_src = bc_cur;
            ctx.b_ld = tile.nr;
            ctx.b_packed = true;
          }

          if (a_fused && s == 0) {
            // First sliver: every full stripe computes its C tile with
            // the fused kernel while packing its Ac sliver; an edge
            // stripe packs plainly then runs the packed-A kernel.
            for (index_t i0 = 0; i0 < mcur; i0 += tile.mr) {
              const int m_eff = static_cast<int>(
                  std::min<index_t>(tile.mr, mcur - i0));
              T* const ac_sliver =
                  ac + (i0 / tile.mr) * pack::a_sliver_elems(kcur, tile.mr);
              const T* a_cols = A + kk * lda + ii + i0;
              T* const c_tile = c_col + i0 * ldc;
              if (m_eff == tile.mr) {
                ukr::run_fused_pack_tn<T>(ctx.b_packed, n_eff, kcur,
                                          a_cols, lda, ac_sliver,
                                          ctx.b_src, ctx.b_ld, c_tile, ldc,
                                          alpha, beta_eff);
              } else {
                pack::pack_a_t(a_cols, lda, m_eff, kcur, tile.mr,
                               ac_sliver);
                if (ctx.b_packed) {
                  ukr::run_main_tile<T, ukr::AAccess::kPacked,
                                     ukr::BAccess::kPacked>(
                      m_eff, n_eff, kcur, ac_sliver, tile.mr, ctx.b_src,
                      ctx.b_ld, c_tile, ldc, alpha, beta_eff);
                } else {
                  ukr::run_main_tile<T, ukr::AAccess::kPacked,
                                     ukr::BAccess::kDirect>(
                      m_eff, n_eff, kcur, ac_sliver, tile.mr, ctx.b_src,
                      ctx.b_ld, c_tile, ldc, alpha, beta_eff);
                }
              }
            }
            continue;
          }
          run_row_tiles(ctx, tile, plan.optimized_edges,
                        plan.force_scalar_kernels, i_start, mcur, n_eff,
                        kcur, c_col, ldc, alpha, beta_eff);
        }
      }
    }
  }

  if (arena_ptr != nullptr) verify_pack_arena(plan, *arena_ptr);
}

template void execute_serial<float>(const GemmPlan<float>&, float,
                                    const float*, index_t, const float*,
                                    index_t, float, float*, index_t);
template void execute_serial<double>(const GemmPlan<double>&, double,
                                     const double*, index_t, const double*,
                                     index_t, double, double*, index_t);

template <typename T>
void execute_plan(const GemmPlan<T>& plan, T alpha, const T* A, index_t lda,
                  const T* B, index_t ldb, T beta, T* C, index_t ldc) {
  if (plan.threads <= 1) {
    execute_serial(plan, alpha, A, lda, B, ldb, beta, C, ldc);
    return;
  }
  if (plan.m == 0 || plan.n == 0) return;
  if (plan.k == 0 || alpha == T{0}) {
    scale_c(plan.m, plan.n, beta, C, ldc);
    return;
  }

  const Mode mode = plan.mode;
  const int t = plan.threads;
  // A guard-rail throw inside a worker (corruption_error from the arena
  // audit, numeric_error from the numerical guard) must fail the GEMM
  // call, not terminate the process (an exception escaping a pool task
  // is std::terminate): capture the first one and rethrow it on the
  // calling thread after the round joins.
  Mutex err_mu;
  std::exception_ptr first_error SHALOM_GUARDED_BY(err_mu);
  pool_run(
      t,
      [&](int id) {
        try {
          const GemmPlan<T>& s = plan.sub[id];
          if (s.m == 0 || s.n == 0) return;
          const int pm = id / plan.part.tn;
          const int pn = id % plan.part.tn;
          const index_t i0 = plan.rows[pm];
          const index_t j0 = plan.cols[pn];

          // Shift operand views to the thread's sub-block of
          // op(A)/op(B)/C.
          const T* a_sub = (mode.a == Trans::N) ? A + i0 * lda : A + i0;
          const T* b_sub = (mode.b == Trans::N) ? B + j0 : B + j0 * ldb;
          execute_serial(s, alpha, a_sub, lda, b_sub, ldb, beta,
                         C + i0 * ldc + j0, ldc);
        } catch (...) {
          MutexLock lock(err_mu);
          if (first_error == nullptr)
            first_error = std::current_exception();
        }
      },
      plan.watchdog_ms);
  std::exception_ptr pending;
  {
    MutexLock lock(err_mu);
    pending = first_error;
  }
  if (pending != nullptr) std::rethrow_exception(pending);
}

template void execute_plan<float>(const GemmPlan<float>&, float,
                                  const float*, index_t, const float*,
                                  index_t, float, float*, index_t);
template void execute_plan<double>(const GemmPlan<double>&, double,
                                   const double*, index_t, const double*,
                                   index_t, double, double*, index_t);

namespace {

template <typename T>
GemmPlan<T> build_plan(Mode mode, index_t M, index_t N, index_t K,
                       const Config& cfg) {
  SHALOM_REQUIRE(M >= 0 && N >= 0 && K >= 0, " M=", M, " N=", N, " K=", K);

  detail::check_shape_bounds<T>(M, N, K);

  GemmPlan<T> p;
  p.mode = mode;
  p.m = M;
  p.n = N;
  p.k = K;
  p.optimized_edges = cfg.optimized_edges;
  p.watchdog_ms = cfg.watchdog_ms;

  const arch::MachineDescriptor& mach = cfg.resolved_machine();
  constexpr int kLanes = simd::vec_of_t<T>::kLanes;
  p.tile = model::tile_for<T>(mach);
  p.tile.mr = std::min(p.tile.mr, ukr::kMaxMr);
  p.tile.nr = std::min(p.tile.nr, ukr::kMaxNrv * kLanes);

  // Degenerate shapes: execution only ever scales C (or returns).
  if (M == 0 || N == 0 || K == 0) return p;

  const int want = detail::resolve_threads(cfg.threads);
  if (want > 1) {
    const model::Partition part = model::solve_partition(want, M, N, p.tile);
    const int t = part.tm * part.tn;
    if (t > 1) {
      p.threads = t;
      p.part = part;
      p.rows = split_range(M, part.tm, p.tile.mr);
      p.cols = split_range(N, part.tn, p.tile.nr);

      Config serial_cfg = cfg;
      serial_cfg.threads = 1;
      p.sub.reserve(static_cast<std::size_t>(t));
      std::size_t max_arena = 0;
      for (int id = 0; id < t; ++id) {
        const int pm = id / part.tn;
        const int pn = id % part.tn;
        const index_t m = p.rows[pm + 1] - p.rows[pm];
        const index_t n = p.cols[pn + 1] - p.cols[pn];
        if (m == 0 || n == 0) {
          p.sub.emplace_back();  // empty cell: m == 0 marks "skip"
        } else {
          // Sub-plans never consult the tuned snapshot: a record keys
          // the whole call, not one thread's cell of it.
          p.sub.push_back(build_plan<T>(mode, m, n, K, serial_cfg));
          max_arena = std::max(max_arena, p.sub.back().arena_bytes);
        }
      }
      p.arena_bytes = max_arena;
      return p;
    }
  }

  // Serial plan: resolve the per-call decision chain once.
  using ukr::AAccess;
  using ukr::BAccess;
  if (cfg.selective_packing && cfg.optimized_edges && mode.a == Trans::N &&
      mode.b == Trans::N &&
      static_cast<std::size_t>(K) * N * sizeof(T) <= mach.l1d.size_bytes &&
      selfcheck::variant_ok(
          ukr::main_variant<T>(AAccess::kDirect, BAccess::kDirect)) &&
      selfcheck::variant_ok(
          ukr::edge_variant<T>(AAccess::kDirect, BAccess::kDirect))) {
    p.small_fast_path = true;
    return p;
  }

  p.blk = model::solve_blocking<T>(mach, p.tile, M, N, K);
  if (cfg.kc_override > 0) p.blk.kc = std::min(cfg.kc_override, K);
  if (cfg.mc_override > 0)
    p.blk.mc = std::max<index_t>(p.tile.mr,
                                 cfg.mc_override / p.tile.mr * p.tile.mr);
  if (cfg.nc_override > 0)
    p.blk.nc = std::max<index_t>(p.tile.nr,
                                 cfg.nc_override / p.tile.nr * p.tile.nr);
  p.pack = model::decide_packing<T>(mach, mode, M, N, K, cfg);

  p.a_packed = p.pack.a != model::PackPlan::kNone;
  p.b_packed = p.pack.b != model::PackPlan::kNone;

  // Quarantine gate (common/selfcheck.h): the first plan that would
  // dispatch a kernel family probes it lazily here; a failed probe routes
  // this plan - and every later one - around the family. A quarantined
  // main family forces the scalar reference kernel on every tile; a
  // quarantined edge family only disables the vectorized remainder tiles.
  {
    // The in-place transposed-A main path has no packed-B variant, so a
    // trans-A no-pack plan maps to the trans-direct quarantine unit.
    const AAccess aa = p.a_packed ? AAccess::kPacked
                       : (mode.a == Trans::N) ? AAccess::kDirect
                                              : AAccess::kDirectTrans;
    const BAccess ba = p.b_packed ? BAccess::kPacked : BAccess::kDirect;
    p.force_scalar_kernels =
        !selfcheck::variant_ok(ukr::main_variant<T>(aa, ba));
    if (p.optimized_edges)
      p.optimized_edges =
          !p.force_scalar_kernels &&
          selfcheck::variant_ok(ukr::edge_variant<T>(aa, ba));
  }

  // Fused (overlapped) A packing for the transposed-A modes (Section
  // 4.3): the first column sliver's stripes compute while streaming op(A)
  // into Ac; later slivers reuse the packed block. Gated on the
  // post-quarantine edge state (its edge stripes run packed-A main tiles)
  // and the fused-TN kernel's own verdict.
  p.a_fused = p.a_packed && p.pack.a == model::PackPlan::kPackFused &&
              mode.a == Trans::T && p.tile.mr == ukr::kMaxMr &&
              p.optimized_edges &&
              selfcheck::variant_ok(ukr::fused_tn_variant<T>());
  // Fused (overlapped) B packing needs in-place A reads and a full-height
  // first stripe (the NN/NT kernels). For TN/TT it is A that gets the
  // fused treatment (a_fused above); fusing both at once would double the
  // pack stores inside one kernel for no benefit.
  p.b_fusable = p.b_packed && p.pack.b == model::PackPlan::kPackFused &&
                !p.a_packed && p.tile.mr == ukr::kMaxMr &&
                p.tile.nr == ukr::kNrFull<T> && !p.force_scalar_kernels &&
                selfcheck::variant_ok(mode.b == Trans::N
                                          ? ukr::fused_nn_variant<T>()
                                          : ukr::fused_nt_variant<T>());

  // Arena: [Ac panel][Bc sliver 0][Bc sliver 1], each with vector slack.
  p.ac_elems =
      p.a_packed ? pack::a_panel_elems(p.blk.mc, p.blk.kc, p.tile.mr) : 0;
  p.bc_sliver = p.b_packed ? pack::b_sliver_elems(p.blk.kc, p.tile.nr) +
                                 ukr::kPackSlackElems
                           : 0;
  p.arena_bytes =
      static_cast<std::size_t>(p.ac_elems + ukr::kPackSlackElems +
                               2 * p.bc_sliver) *
      sizeof(T);
  return p;
}

// ---------------------------------------------------------------------------
// Tuned-blocking snapshot
// ---------------------------------------------------------------------------

using TunedKey = std::tuple<char, bool, bool, int, index_t, index_t, index_t>;

TunedKey key_of(const TunedBlocking& t) {
  return {t.dtype, t.trans_a, t.trans_b, t.threads, t.m, t.n, t.k};
}

/// Sorted by key_of; never mutated once published.
using TunedSnapshot = std::vector<TunedBlocking>;

/// The published snapshot (nullptr = none). Writers serialize on
/// TunedHistory::mu; readers only load the pointer.
std::atomic<const TunedSnapshot*> g_tuned{nullptr};

/// Every snapshot ever published. A reader may still hold an older one,
/// so none is freed; tables are loaded a handful of times per process.
struct TunedHistory {
  Mutex mu;
  std::vector<std::unique_ptr<const TunedSnapshot>> all SHALOM_GUARDED_BY(mu);
};

TunedHistory& tuned_history() {
  static TunedHistory* h = new TunedHistory;  // outlives every reader
  return *h;
}

/// The published entry for this exact call, or nullptr when none applies
/// (no snapshot, a non-plain Config, or no exact shape match).
template <typename T>
const TunedBlocking* find_tuned(Mode mode, index_t M, index_t N, index_t K,
                                const Config& cfg) {
  const TunedSnapshot* snap = g_tuned.load(std::memory_order_acquire);
  if (snap == nullptr) return nullptr;
  const bool plain =
      cfg.selective_packing && cfg.fused_packing && cfg.optimized_edges &&
      cfg.kc_override == 0 && cfg.mc_override == 0 &&
      cfg.nc_override == 0 &&
      (cfg.machine == nullptr ||
       arch::fingerprint(*cfg.machine) ==
           arch::fingerprint(arch::host_machine()));
  if (!plain) return nullptr;
  const TunedKey key{std::is_same_v<T, float> ? 's' : 'd',
                     mode.a == Trans::T,
                     mode.b == Trans::T,
                     detail::resolve_threads(cfg.threads),
                     M,
                     N,
                     K};
  const auto it = std::lower_bound(
      snap->begin(), snap->end(), key,
      [](const TunedBlocking& e, const TunedKey& k) { return key_of(e) < k; });
  return it != snap->end() && key_of(*it) == key ? &*it : nullptr;
}

}  // namespace

}  // namespace detail

void publish_tuned(const std::vector<TunedBlocking>& entries) {
  detail::TunedHistory& h = detail::tuned_history();
  MutexLock lock(h.mu);
  std::map<detail::TunedKey, TunedBlocking> merged;
  if (const detail::TunedSnapshot* cur =
          detail::g_tuned.load(std::memory_order_acquire))
    for (const TunedBlocking& e : *cur) merged[detail::key_of(e)] = e;
  for (const TunedBlocking& e : entries) merged[detail::key_of(e)] = e;
  auto next = std::make_unique<detail::TunedSnapshot>();
  next->reserve(merged.size());
  for (const auto& kv : merged) next->push_back(kv.second);
  const detail::TunedSnapshot* published = next.get();
  h.all.push_back(std::move(next));
  detail::g_tuned.store(published, std::memory_order_release);
}

void reset_tuned() {
  detail::TunedHistory& h = detail::tuned_history();
  MutexLock lock(h.mu);
  detail::g_tuned.store(nullptr, std::memory_order_release);
}

template <typename T>
GemmPlan<T> plan_create(Mode mode, index_t M, index_t N, index_t K,
                        const Config& cfg) {
  if (const TunedBlocking* t = detail::find_tuned<T>(mode, M, N, K, cfg)) {
    Config tuned = cfg;
    tuned.kc_override = t->kc;
    tuned.mc_override = t->mc;
    tuned.nc_override = t->nc;
    return detail::build_plan<T>(mode, M, N, K, tuned);
  }
  return detail::build_plan<T>(mode, M, N, K, cfg);
}

template GemmPlan<float> plan_create<float>(Mode, index_t, index_t, index_t,
                                            const Config&);
template GemmPlan<double> plan_create<double>(Mode, index_t, index_t,
                                              index_t, const Config&);

template <typename T>
void plan_execute(const GemmPlan<T>& plan, T alpha, const T* A, index_t lda,
                  const T* B, index_t ldb, T beta, T* C, index_t ldc) {
  detail::check_gemm_args(plan.mode, plan.m, plan.n, plan.k, A, lda, B, ldb,
                          C, ldc);
  detail::execute_plan(plan, alpha, A, lda, B, ldb, beta, C, ldc);
}

template void plan_execute<float>(const GemmPlan<float>&, float,
                                  const float*, index_t, const float*,
                                  index_t, float, float*, index_t);
template void plan_execute<double>(const GemmPlan<double>&, double,
                                   const double*, index_t, const double*,
                                   index_t, double, double*, index_t);

}  // namespace shalom
