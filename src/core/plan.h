// Execution plans: snapshots of every per-call GEMM decision.
//
// A SerialPlan holds every decision of one single-threaded run (width,
// tile, blocking, packing, tile kernels, fused flags, arena layout). It is
// trivially copyable, so gemm_serial builds one on the stack, and it is
// all detail::execute_serial reads. A GemmPlan (plan_create) adds the
// worker count, the watchdog period and, for a parallel plan, one cell per
// thread of the Tm x Tn grid: its block's offset in C and a SerialPlan of
// the block. One builder makes every serial plan and cell, from the
// machine and tile the call resolved once.
//
// plan_execute runs the exact same loop nest as the per-call driver, so
// results are bitwise identical to a direct gemm() with the same Config.
// Plans are immutable after creation and safe to execute concurrently from
// multiple threads: serial (threads == 1) executions are fully independent
// (each uses the calling thread's pack arena), while parallel plans run
// their fork-join rounds on the shared fork-join ThreadPool, where
// rounds from independent callers overlap (core/threadpool.h).
//
// Tuned blockings (tuning/table.h) reach plans through one immutable
// override snapshot that the builder reads (publish_tuned below), so a
// caller-held plan and a gemm call of the same shape pick up the same
// blocking.
#pragma once

#include <type_traits>
#include <vector>

#include "common/matrix.h"
#include "core/model.h"
#include "core/types.h"

namespace shalom {

/// Which kernel runs each tile: the vectorized kern_main family (full tiles
/// when `main`, remainder tiles when `edges` too) or kern_scalar.
struct TileKernels {
  bool main = true;
  bool edges = true;
};

/// Immutable single-threaded plan for one (mode, M, N, K, Config) shape.
/// Scalars (alpha/beta) and operand pointers stay runtime arguments.
template <typename T>
struct SerialPlan {
  Mode mode{};
  index_t m = 0, n = 0, k = 0;
  /// Vector width in bits of the kernels the plan dispatches: 128 for
  /// every gemm plan; wide::gemm_wide plans 256- and 512-bit FP32 tiles.
  int width = 128;
  /// Register tile, clamped to the instantiated kernel family.
  model::Tile tile{};
  /// Cache blocking. A small NN plan (B L1-resident, full optimizations)
  /// is one block {M, K, N} with nothing packed.
  model::Blocking blk{};
  model::PackDecision pack{};  ///< kNone = the operand is read in place
  /// Gated by the selfcheck verdicts (common/selfcheck.h); a quarantined
  /// main family clears `kern` and `pack`: kern_scalar runs in place.
  TileKernels kern{};
  /// Fused-pack eligibility (paper Sections 4.3 / 5.3), resolved once.
  bool a_fused = false, b_fusable = false;
  /// Pack-arena layout: [Ac panel][slack][Bc sliver 0][Bc sliver 1].
  index_t ac_elems = 0, bc_sliver = 0;
};

static_assert(std::is_trivially_copyable_v<SerialPlan<float>> &&
              std::is_trivially_copyable_v<SerialPlan<double>>);

/// Immutable execution plan for one (mode, M, N, K, Config) GEMM shape.
/// A parallel plan's own SerialPlan fields hold only the shape and tile.
template <typename T>
struct GemmPlan : SerialPlan<T> {
  /// One thread's block of C: rows i0 + [0, m), columns j0 + [0, n).
  struct Cell {
    index_t i0 = 0, j0 = 0;
    SerialPlan<T> plan;
  };

  /// Config::watchdog_ms at creation (0 disables; core/threadpool.h),
  /// applied to every parallel round this plan runs.
  int watchdog_ms = 0;
  std::vector<Cell> cells;  ///< row-major over the grid; empty if serial

  /// Worker count: one per cell, 1 for a serial plan.
  int threads() const {
    return cells.empty() ? 1 : static_cast<int>(cells.size());
  }
};

/// Builds a plan. cfg.threads == 0 resolves to all host cores; the
/// partition solver may still collapse the plan to serial. A plain Config
/// (see publish_tuned) takes the published tuned blocking for its exact
/// shape. Pack arenas are reserved by the executing thread on first use,
/// grow-only. Throws invalid_argument on negative dimensions.
template <typename T>
GemmPlan<T> plan_create(Mode mode, index_t M, index_t N, index_t K,
                        const Config& cfg = {});

/// Executes the plan: C = alpha * op(A) . op(B) + beta * C with the plan's
/// snapshot dimensions. Validates pointers and leading dimensions against
/// the plan (throws invalid_argument), then runs the serial or fork-join
/// driver. Safe to call repeatedly and from multiple threads at once.
template <typename T>
void plan_execute(const GemmPlan<T>& plan, T alpha, const T* A, index_t lda,
                  const T* B, index_t ldb, T beta, T* C, index_t ldc);

/// One tuned cache blocking for an exact shape (persisted by
/// tuning/table.h as TunedRecord).
struct TunedBlocking {
  char dtype = 's';           ///< 's' (float) or 'd' (double)
  bool trans_a = false;
  bool trans_b = false;
  int threads = 1;            ///< resolved worker count the tuning targeted
  index_t m = 0, n = 0, k = 0;
  index_t kc = 0, mc = 0, nc = 0;  ///< tuned blocking (all >= 1)
};

/// Adds `entries` to the process-wide tuned-blocking snapshot; an entry
/// replaces a published one of the same shape. plan_create applies an
/// entry only to a plain Config - default feature flags, zero blocking
/// overrides, the host machine - on an exact match of dtype, mode, M, N,
/// K and resolved thread count. The snapshot is immutable: publishing
/// swaps one atomic pointer, so plan_create's lookup takes no lock.
void publish_tuned(const std::vector<TunedBlocking>& entries);

/// Empties the snapshot: every plan uses the analytic blocking again.
void reset_tuned();

namespace detail {

/// Shared argument contract of every dense GEMM entry point.
template <typename T>
void check_gemm_args(Mode mode, index_t M, index_t N, index_t K, const T* A,
                     index_t lda, const T* B, index_t ldb, const T* C,
                     index_t ldc);

/// The plan gemm_serial runs: plan_create's builder at one thread (tuned
/// lookup included), without re-validating the arguments.
template <typename T>
SerialPlan<T> plan_serial(Mode mode, index_t M, index_t N, index_t K,
                          const Config& cfg);

/// Runs the one serial loop nest of a plan (no validation). M, N or K = 0,
/// or alpha = 0, only scales C. A failed pack-arena reservation re-runs
/// the nest with in-place operand access. Never pass a GemmPlan with
/// cells: its own SerialPlan fields carry no blocking.
template <typename T>
void execute_serial(const SerialPlan<T>& plan, T alpha, const T* A,
                    index_t lda, const T* B, index_t ldb, T beta, T* C,
                    index_t ldc);

/// The plan wide::gemm_wide<bits> runs: FP32 NN with both operands
/// packed at the width's analytic tile (paper Section 5.5), cache-blocked
/// for `mach`, from the same builder as a gemm plan. bits is 128, 256 or
/// 512.
SerialPlan<float> plan_wide(int bits, index_t M, index_t N, index_t K,
                            const arch::MachineDescriptor& mach);

/// C *= beta (beta==0 writes zeros without reading C; empty C untouched).
template <typename T>
void scale_c(index_t M, index_t N, T beta, T* C, index_t ldc);

/// cfg.threads semantics: 0 = all host cores, else the given count.
int resolve_threads(int threads);

}  // namespace detail

}  // namespace shalom
