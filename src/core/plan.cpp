#include "core/plan.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <new>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>

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
  if (beta == T{1} || M == 0 || N == 0) return;
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
/// arena layout, partition solving) assumes these products are representable,
/// so overflow here would be UB, not just a failed allocation.
/// Overflow-checked multiplies: three divisions cost more than a 5x5x5 plan.
template <typename T>
void check_shape_bounds(index_t M, index_t N, index_t K) {
  const auto fits = [](index_t rows, index_t cols) {
    index_t elems = 0, bytes = 0;
    return !__builtin_mul_overflow(rows, cols, &elems) &&
           !__builtin_mul_overflow(elems, static_cast<index_t>(sizeof(T)),
                                   &bytes);
  };
  SHALOM_REQUIRE(fits(M, K), ": M*K overflows; M=", M, " K=", K);
  SHALOM_REQUIRE(fits(K, N), ": K*N overflows; K=", K, " N=", N);
  SHALOM_REQUIRE(fits(M, N), ": M*N overflows; M=", M, " N=", N);
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

using model::PackPlan;
using ukr::AAccess;
using ukr::BAccess;

/// Runs the i0 row-tile loop of one B sliver. `a` is the block's A corner
/// (in place) or its packed panel; `b` is the sliver, in place or packed.
/// Tiles run the Bits-wide kern_main family of the access pair, or
/// kern_scalar where the pair has none at that width.
template <typename T, AAccess AA, BAccess BA, int Bits>
void row_tiles(const model::Tile& tile, TileKernels kern, index_t i_start,
               index_t mcur, int n_eff, index_t kcur, const T* a,
               index_t lda, const T* b, index_t ldb, T* c_col, index_t ldc,
               T alpha, T beta) {
  for (index_t i0 = i_start; i0 < mcur; i0 += tile.mr) {
    const int m_eff = static_cast<int>(
        std::min<index_t>(tile.mr, mcur - i0));
    const T* const a_tile =
        AA == AAccess::kPacked
            ? a + (i0 / tile.mr) * pack::a_sliver_elems(kcur, tile.mr)
        : AA == AAccess::kDirect ? a + i0 * lda
                                 : a + i0;
    T* const c_tile = c_col + i0 * ldc;
    if constexpr (ukr::has_main_family<T>(AA, BA, Bits)) {
      const bool edge = m_eff < tile.mr || n_eff < tile.nr;
      if (kern.main && (!edge || kern.edges)) {
        ukr::run_main_tile<T, AA, BA, Bits>(m_eff, n_eff, kcur, a_tile, lda,
                                            b, ldb, c_tile, ldc, alpha,
                                            beta);
        continue;
      }
    }
    ukr::kern_scalar<T, AA, BA>(m_eff, n_eff, kcur, a_tile, lda, b, ldb,
                                c_tile, ldc, alpha, beta);
  }
}

template <typename T>
using RowTilesFn =
    decltype(&row_tiles<T, AAccess::kDirect, BAccess::kDirect, 128>);

/// row_tiles for every width and access pair, indexed
/// [width index][A access * 3 + B access]. Only the packed-packed FP32
/// pair has a vectorized family at 256 and 512 bits; the other entries
/// there run kern_scalar (a wide plan whose arena reservation failed).
template <typename T>
constexpr auto kRowTiles = []<int... I>(std::integer_sequence<int, I...>) {
  return std::array<std::array<RowTilesFn<T>, 9>, ukr::kWidthCount>{
      {{&row_tiles<T, static_cast<AAccess>(I / 3),
                   static_cast<BAccess>(I % 3), ukr::kWidths[0]>...},
       {&row_tiles<T, static_cast<AAccess>(I / 3),
                   static_cast<BAccess>(I % 3), ukr::kWidths[1]>...},
       {&row_tiles<T, static_cast<AAccess>(I / 3),
                   static_cast<BAccess>(I % 3), ukr::kWidths[2]>...}}};
}(std::make_integer_sequence<int, 9>{});

/// The kern_main family a plan's packing and width select (kMain full
/// tiles or kEdge remainder tiles): the unit plan_create's quarantine gate
/// probes and the arena audit blames. model::decide_packing packs every
/// transposed operand, so a planned operand is packed or direct.
template <typename T>
selfcheck::Variant plan_variant(const SerialPlan<T>& p,
                                selfcheck::Kind kind = selfcheck::Kind::kMain) {
  return ukr::family_variant<T>(
      kind, p.pack.a != PackPlan::kNone ? AAccess::kPacked : AAccess::kDirect,
      p.pack.b != PackPlan::kNone ? BAccess::kPacked : BAccess::kDirect,
      p.width);
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
void verify_pack_arena(const SerialPlan<T>& plan, AlignedBuffer& arena) {
  bool intact = arena.verify_guards();
  if (SHALOM_FAULT_POINT(fault::Site::kGuardCanary)) intact = false;
  if (intact) return;

  telemetry::note(Counter::kArenaCorruptions);
  const selfcheck::Variant v = plan_variant(plan);
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

/// The one serial loop nest (jj over nc, ii over mc, kk over kc, then the
/// nr slivers and mr row tiles). Every degraded mode is an access or a
/// kernel choice inside it: without an arena both operands are read in
/// place, and a quarantined plan runs kern_scalar on every tile.
template <typename T>
void execute_serial(const SerialPlan<T>& plan, T alpha, const T* A,
                    index_t lda, const T* B, index_t ldb, T beta, T* C,
                    index_t ldc) {
  const index_t M = plan.m, N = plan.n, K = plan.k;
  if (M == 0 || N == 0 || K == 0 || alpha == T{0}) {
    scale_c(M, N, beta, C, ldc);
    return;
  }

  const Mode mode = plan.mode;
  const model::Blocking& blk = plan.blk;
  const model::Tile& tile = plan.tile;
  bool a_packed = plan.pack.a != PackPlan::kNone;
  bool b_packed = plan.pack.b != PackPlan::kNone;
  TileKernels kern = plan.kern;

  // Grow-only: a no-op unless this thread's arena has never served a
  // problem this large. If the reservation fails, run the same nest with
  // both operands read in place (the paper's no-pack path applied
  // unconditionally) instead of throwing out of the hot path: the same
  // blocking and tile order, so NN/TN results stay bitwise identical.
  AlignedBuffer* arena = nullptr;
  if (a_packed || b_packed) {
    arena = &thread_pack_arena();
    try {
      if (SHALOM_FAULT_POINT(fault::Site::kAllocPackArena))
        throw std::bad_alloc();
      arena->reserve(sizeof(T) * static_cast<std::size_t>(
                                     plan.ac_elems + ukr::kPackSlackElems +
                                     2 * plan.bc_sliver));
    } catch (const std::bad_alloc&) {
      telemetry::note(Counter::kFallbackNopack);
      arena = nullptr;
      a_packed = b_packed = false;
      // The packed execution never consulted the in-place families, so
      // re-check their verdicts (cold path; one atomic load per family
      // after the first probe). A wide plan has no in-place family: its
      // tiles run kern_scalar.
      const AAccess a_in =
          (mode.a == Trans::N) ? AAccess::kDirect : AAccess::kDirectTrans;
      kern.main = kern.main &&
                  ukr::has_main_family<T>(a_in, BAccess::kDirect,
                                          plan.width) &&
                  selfcheck::variant_ok(ukr::family_variant<T>(
                      selfcheck::Kind::kMain, a_in, BAccess::kDirect));
      kern.edges = kern.main && kern.edges &&
                   selfcheck::variant_ok(ukr::family_variant<T>(
                       selfcheck::Kind::kEdge, a_in, BAccess::kDirect));
    }
  }
  T* const ac = arena != nullptr ? arena->as<T>() : nullptr;
  T* const bc_base =
      ac != nullptr ? ac + plan.ac_elems + ukr::kPackSlackElems : nullptr;
  const bool a_fused = a_packed && plan.a_fused;
  const bool b_fusable = b_packed && plan.b_fusable;

  const AAccess aa = a_packed              ? AAccess::kPacked
                     : (mode.a == Trans::N) ? AAccess::kDirect
                                            : AAccess::kDirectTrans;
  const BAccess ba = b_packed              ? BAccess::kPacked
                     : (mode.b == Trans::N) ? BAccess::kDirect
                                            : BAccess::kDirectTrans;
  const RowTilesFn<T> run_tiles =
      kRowTiles<T>[ukr::width_index(plan.width)]
                  [static_cast<int>(aa) * 3 + static_cast<int>(ba)];

  for (index_t jj = 0; jj < N; jj += blk.nc) {
    const index_t ncur = std::min<index_t>(blk.nc, N - jj);
    for (index_t ii = 0; ii < M; ii += blk.mc) {
      const index_t mcur = std::min<index_t>(blk.mc, M - ii);
      for (index_t kk = 0; kk < K; kk += blk.kc) {
        const index_t kcur = std::min<index_t>(blk.kc, K - kk);
        const T beta_eff = (kk == 0) ? beta : T{1};

        const T* a_blk;
        index_t a_ld;
        if (a_packed) {
          if (a_fused) {
            // Deferred: the s == 0 stripe loop below fills Ac.
          } else if (mode.a == Trans::N) {
            pack::pack_a_n(A + ii * lda + kk, lda, mcur, kcur, tile.mr, ac);
          } else {
            pack::pack_a_t(A + kk * lda + ii, lda, mcur, kcur, tile.mr, ac);
          }
          a_blk = ac;
          a_ld = tile.mr;
        } else {
          a_blk = (mode.a == Trans::N) ? A + ii * lda + kk : A + kk * lda + ii;
          a_ld = lda;
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

          const T* b_src;
          index_t b_ld;
          if (!b_packed) {
            b_src = (mode.b == Trans::N) ? B + kk * ldb + jj + j0
                                         : B + (jj + j0) * ldb + kk;
            b_ld = ldb;
          } else {
            T* const bc_cur = bc_base + (s % 2) * plan.bc_sliver;
            T* const bc_next = bc_base + ((s + 1) % 2) * plan.bc_sliver;
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
              const bool ahead = plan.pack.pack_ahead == 1 && next_full;
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
            b_src = bc_cur;
            b_ld = tile.nr;
          }

          if (a_fused && s == 0) {
            // First sliver: every full stripe computes its C tile with
            // the fused kernel while packing its Ac sliver; an edge
            // stripe packs plainly, then runs as a packed-A row tile.
            for (; i_start + tile.mr <= mcur; i_start += tile.mr) {
              ukr::run_fused_pack_tn<T>(
                  b_packed, n_eff, kcur, A + kk * lda + ii + i_start, lda,
                  ac + (i_start / tile.mr) *
                           pack::a_sliver_elems(kcur, tile.mr),
                  b_src, b_ld, c_col + i_start * ldc, ldc, alpha, beta_eff);
            }
            if (i_start < mcur)
              pack::pack_a_t(A + kk * lda + ii + i_start, lda,
                             mcur - i_start, kcur, tile.mr,
                             ac + (i_start / tile.mr) *
                                      pack::a_sliver_elems(kcur, tile.mr));
          }
          run_tiles(tile, kern, i_start, mcur, n_eff, kcur, a_blk, a_ld,
                    b_src, b_ld, c_col, ldc, alpha, beta_eff);
        }
      }
    }
  }

  if (arena != nullptr) verify_pack_arena(plan, *arena);
}

template void execute_serial<float>(const SerialPlan<float>&, float,
                                    const float*, index_t, const float*,
                                    index_t, float, float*, index_t);
template void execute_serial<double>(const SerialPlan<double>&, double,
                                     const double*, index_t, const double*,
                                     index_t, double, double*, index_t);

namespace {

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

/// The published entry for this exact call at `threads` workers, or
/// nullptr when none applies (no snapshot, a non-plain Config, or no
/// exact shape match).
template <typename T>
const TunedBlocking* find_tuned(Mode mode, index_t M, index_t N, index_t K,
                                const Config& cfg, int threads) {
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
                     threads,
                     M,
                     N,
                     K};
  const auto it = std::lower_bound(
      snap->begin(), snap->end(), key,
      [](const TunedBlocking& e, const TunedKey& k) { return key_of(e) < k; });
  return it != snap->end() && key_of(*it) == key ? &*it : nullptr;
}

// ---------------------------------------------------------------------------
// Plan builder
// ---------------------------------------------------------------------------

/// What every serial plan of one call shares, resolved once per call: the
/// Config's feature flags, the machine, the clamped 128-bit tile, and the
/// blocking overrides (Config's, or the published tuned record's for the
/// whole call; 0 keeps the analytic value).
struct CallInputs {
  const Config& cfg;
  const arch::MachineDescriptor& mach;
  model::Tile tile;
  model::Blocking over;
};

template <typename T>
CallInputs resolve_call(Mode mode, index_t M, index_t N, index_t K,
                        const Config& cfg, int threads) {
  const arch::MachineDescriptor& mach = cfg.resolved_machine();
  constexpr int kLanes = simd::vec_of_t<T>::kLanes;
  model::Tile tile = model::tile_for<T>(mach);
  tile.mr = std::min(tile.mr, ukr::kMaxMr);
  tile.nr = std::min(tile.nr, ukr::kMaxNrv * kLanes);
  const TunedBlocking* t = find_tuned<T>(mode, M, N, K, cfg, threads);
  const model::Blocking over =
      t != nullptr ? model::Blocking{t->mc, t->kc, t->nc}
                   : model::Blocking{cfg.mc_override, cfg.kc_override,
                                     cfg.nc_override};
  return {cfg, mach, tile, over};
}

/// The serial decision chain, for the whole call or one parallel cell.
/// Fills `p` where it lives: copying a freshly built plan costs a
/// store-forwarding stall that shows at the tiny shapes.
template <typename T>
void build_serial(const CallInputs& in, Mode mode, index_t M, index_t N,
                  index_t K, SerialPlan<T>& p) {
  p.mode = mode;
  p.m = M;
  p.n = N;
  p.k = K;
  p.tile = in.tile;
  // Degenerate shapes: execution only ever scales C, and no kernel family
  // is probed.
  if (M == 0 || N == 0 || K == 0) return;

  // A small NN problem whose B stays L1-resident (the library's headline
  // workload) runs as one block over the whole problem with both operands
  // read in place: no blocking model, no packing, and no overrides.
  const Config& cfg = in.cfg;
  if (cfg.selective_packing && cfg.optimized_edges && mode.a == Trans::N &&
      mode.b == Trans::N &&
      static_cast<std::size_t>(K) * N * sizeof(T) <= in.mach.l1d.size_bytes &&
      selfcheck::variant_ok(ukr::family_variant<T>(
          selfcheck::Kind::kMain, AAccess::kDirect, BAccess::kDirect)) &&
      selfcheck::variant_ok(ukr::family_variant<T>(
          selfcheck::Kind::kEdge, AAccess::kDirect, BAccess::kDirect))) {
    p.blk = {M, K, N};
    return;
  }

  p.blk = model::solve_blocking<T>(in.mach, p.tile, M, N, K);
  if (in.over.kc > 0) p.blk.kc = std::min(in.over.kc, K);
  if (in.over.mc > 0)
    p.blk.mc =
        std::max<index_t>(p.tile.mr, in.over.mc / p.tile.mr * p.tile.mr);
  if (in.over.nc > 0)
    p.blk.nc =
        std::max<index_t>(p.tile.nr, in.over.nc / p.tile.nr * p.tile.nr);
  p.pack = model::decide_packing<T>(in.mach, mode, M, N, K, cfg);

  // Quarantine gate (common/selfcheck.h): the first plan that would
  // dispatch a kernel family probes it lazily here; a failed probe routes
  // this plan - and every later one - around the family. A quarantined
  // main family makes every tile run kern_scalar with both operands read
  // in place (no packing, no arena); a quarantined edge family only
  // disables the vectorized remainder tiles.
  if (!selfcheck::variant_ok(plan_variant(p))) {
    p.kern = {false, false};
    p.pack = {};
    return;
  }
  p.kern.edges = cfg.optimized_edges &&
                 selfcheck::variant_ok(plan_variant(p, selfcheck::Kind::kEdge));

  // Arena: [Ac panel][Bc sliver 0][Bc sliver 1], each with vector slack.
  const bool a_packed = p.pack.a != PackPlan::kNone;
  const bool b_packed = p.pack.b != PackPlan::kNone;
  p.ac_elems = a_packed ? pack::a_panel_elems(p.blk.mc, p.blk.kc, p.tile.mr)
                        : 0;
  p.bc_sliver = b_packed ? pack::b_sliver_elems(p.blk.kc, p.tile.nr) +
                               ukr::kPackSlackElems
                         : 0;
  // Fused (overlapped) A packing for the transposed-A modes (Section
  // 4.3): the first column sliver's stripes compute while streaming op(A)
  // into Ac; later slivers reuse the packed block. Gated on the
  // post-quarantine edge state (its edge stripes run packed-A main tiles)
  // and the fused-TN kernel's own verdict.
  p.a_fused = p.pack.a == PackPlan::kPackFused && mode.a == Trans::T &&
              p.tile.mr == ukr::kMaxMr && p.kern.edges &&
              selfcheck::variant_ok(ukr::family_variant<T>(
                  selfcheck::Kind::kFusedTn, AAccess::kDirectTrans,
                  b_packed ? BAccess::kPacked : BAccess::kDirect));
  // Fused (overlapped) B packing needs in-place A reads and a full-height
  // first stripe (the NN/NT kernels). For TN/TT it is A that gets the
  // fused treatment (a_fused above); fusing both at once would double the
  // pack stores inside one kernel for no benefit.
  p.b_fusable = p.pack.b == PackPlan::kPackFused && !a_packed &&
                p.tile.mr == ukr::kMaxMr &&
                p.tile.nr == ukr::kNrFull<T> &&
                selfcheck::variant_ok(ukr::family_variant<T>(
                    mode.b == Trans::N ? selfcheck::Kind::kFusedNn
                                       : selfcheck::Kind::kFusedNt,
                    AAccess::kDirect,
                    mode.b == Trans::N ? BAccess::kDirect
                                       : BAccess::kDirectTrans));
}

template <typename T>
GemmPlan<T> build_plan(Mode mode, index_t M, index_t N, index_t K,
                       const Config& cfg, int threads) {
  const CallInputs in = resolve_call<T>(mode, M, N, K, cfg, threads);
  GemmPlan<T> p;
  p.watchdog_ms = cfg.watchdog_ms;
  const model::Partition part =
      threads > 1 && M > 0 && N > 0 && K > 0
          ? model::solve_partition(threads, M, N, in.tile)
          : model::Partition{};
  if (part.tm * part.tn == 1) {
    build_serial<T>(in, mode, M, N, K, p);
    return p;
  }

  // Parallel plan: the tile-aligned Tm x Tn grid, one serial cell per
  // thread. The partition gives every cell at least one tile.
  static_cast<SerialPlan<T>&>(p) = {
      .mode = mode, .m = M, .n = N, .k = K, .tile = in.tile};
  const std::vector<index_t> rows = split_range(M, part.tm, in.tile.mr);
  const std::vector<index_t> cols = split_range(N, part.tn, in.tile.nr);
  p.cells.resize(static_cast<std::size_t>(part.tm * part.tn));
  for (int pm = 0; pm < part.tm; ++pm) {
    for (int pn = 0; pn < part.tn; ++pn) {
      typename GemmPlan<T>::Cell& cell = p.cells[pm * part.tn + pn];
      cell.i0 = rows[pm];
      cell.j0 = cols[pn];
      build_serial<T>(in, mode, rows[pm + 1] - rows[pm],
                      cols[pn + 1] - cols[pn], K, cell.plan);
    }
  }
  return p;
}

}  // namespace

template <typename T>
SerialPlan<T> plan_serial(Mode mode, index_t M, index_t N, index_t K,
                          const Config& cfg) {
  SerialPlan<T> p;
  build_serial<T>(resolve_call<T>(mode, M, N, K, cfg, 1), mode, M, N, K, p);
  return p;
}

template SerialPlan<float> plan_serial<float>(Mode, index_t, index_t,
                                              index_t, const Config&);
template SerialPlan<double> plan_serial<double>(Mode, index_t, index_t,
                                                index_t, const Config&);

SerialPlan<float> plan_wide(int bits, index_t M, index_t N, index_t K,
                            const arch::MachineDescriptor& mach) {
  SHALOM_REQUIRE(ukr::width_index(bits) >= 0, " bits=", bits);
  // Without selective packing the builder packs both operands ahead.
  Config always_pack;
  always_pack.selective_packing = false;
  const contracts::Tile t = ukr::family_tile<float>(bits);
  SerialPlan<float> p;
  p.width = bits;
  build_serial<float>({always_pack, mach, {t.mr, t.nr}, {}},
                      {Trans::N, Trans::N}, M, N, K, p);
  return p;
}

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
  SHALOM_REQUIRE(M >= 0 && N >= 0 && K >= 0, " M=", M, " N=", N, " K=", K);
  detail::check_shape_bounds<T>(M, N, K);
  return detail::build_plan<T>(mode, M, N, K, cfg,
                               detail::resolve_threads(cfg.threads));
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
  if (plan.cells.empty()) {
    detail::execute_serial(plan, alpha, A, lda, B, ldb, beta, C, ldc);
    return;
  }

  const Mode mode = plan.mode;
  // A guard-rail throw inside a worker (corruption_error from the arena
  // audit, numeric_error from the numerical guard) must fail the GEMM
  // call, not terminate the process (an exception escaping a pool task
  // is std::terminate): capture the first one and rethrow it on the
  // calling thread after the round joins.
  Mutex err_mu;
  std::exception_ptr first_error SHALOM_GUARDED_BY(err_mu);
  pool_run(
      static_cast<int>(plan.cells.size()),
      [&](int id) {
        try {
          const auto& [i0, j0, cell] = plan.cells[id];
          // Shift operand views to the thread's sub-block of
          // op(A)/op(B)/C.
          const T* a_sub = (mode.a == Trans::N) ? A + i0 * lda : A + i0;
          const T* b_sub = (mode.b == Trans::N) ? B + j0 : B + j0 * ldb;
          detail::execute_serial(cell, alpha, a_sub, lda, b_sub, ldb, beta,
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

template void plan_execute<float>(const GemmPlan<float>&, float,
                                  const float*, index_t, const float*,
                                  index_t, float, float*, index_t);
template void plan_execute<double>(const GemmPlan<double>&, double,
                                   const double*, index_t, const double*,
                                   index_t, double, double*, index_t);

}  // namespace shalom
