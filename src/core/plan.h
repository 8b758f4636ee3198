// Execution plans: snapshots of every per-call GEMM decision.
//
// A GemmPlan captures everything `shalom::gemm` derives from (mode, M, N,
// K, Config) before any arithmetic happens: the register tile, the cache
// blocking (core/model.h), the packing decision and fused-pack eligibility
// flags, the pack-arena byte budget, and - for multi-threaded plans - the
// Tm x Tn partition together with one serial sub-plan per thread cell.
// Every gemm call builds a plan in place and executes it; a caller that
// repeats one shape can hold the plan and call plan_execute() many times,
// skipping the analytic models and the partition solve.
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
// override snapshot that plan_create reads (publish_tuned below), so a
// caller-held plan and a gemm call of the same shape pick up the same
// blocking.
#pragma once

#include <vector>

#include "common/matrix.h"
#include "core/model.h"
#include "core/types.h"

namespace shalom {

/// Immutable execution plan for one (mode, M, N, K, Config) GEMM shape.
/// Scalars (alpha/beta) and operand pointers stay runtime arguments.
template <typename T>
struct GemmPlan {
  Mode mode{};
  index_t m = 0, n = 0, k = 0;
  /// Resolved worker count (never 0). 1 = serial plan.
  int threads = 1;
  /// Watchdog period snapshotted from Config::watchdog_ms at creation
  /// (0 disables; see core/threadpool.h). Applied to every parallel
  /// round this plan runs.
  int watchdog_ms = 0;

  /// Vector width in bits of the kernels the plan dispatches: 128 for
  /// every gemm plan; wide::gemm_wide plans 256- and 512-bit FP32 tiles.
  int width = 128;
  /// Register tile, clamped to the instantiated kernel family.
  model::Tile tile{};
  /// Cache blocking. A small NN plan (B L1-resident, full optimizations)
  /// is one block {M, K, N} with nothing packed.
  model::Blocking blk{};
  model::PackDecision pack{};
  bool a_packed = false, b_packed = false;
  /// Fused-pack eligibility (paper Sections 4.3 / 5.3), resolved once.
  bool a_fused = false, b_fusable = false;
  bool optimized_edges = true;
  /// Quarantine routing (common/selfcheck.h): the main kernel family this
  /// plan would dispatch failed its selfcheck probe, so nothing is packed
  /// and every tile runs kern_scalar in place.
  bool force_scalar_kernels = false;

  /// Pack-arena layout: [Ac panel][slack][Bc sliver 0][Bc sliver 1].
  index_t ac_elems = 0, bc_sliver = 0;
  std::size_t arena_bytes = 0;

  /// Parallel snapshot (threads > 1): thread grid, tile-aligned row/col
  /// boundaries, and one serial sub-plan per cell (empty cells have m==0).
  model::Partition part{};
  std::vector<index_t> rows, cols;
  std::vector<GemmPlan<T>> sub;
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

/// plan_execute without the argument re-validation: the gemm entry
/// points check once up front and then dispatch here.
template <typename T>
void execute_plan(const GemmPlan<T>& plan, T alpha, const T* A, index_t lda,
                  const T* B, index_t ldb, T beta, T* C, index_t ldc);

/// Runs the one serial loop nest of a threads==1 plan (no validation, no
/// trivial-case handling beyond what the loops themselves do). A failed
/// pack-arena reservation re-runs the nest with in-place operand access.
template <typename T>
void execute_serial(const GemmPlan<T>& plan, T alpha, const T* A,
                    index_t lda, const T* B, index_t ldb, T beta, T* C,
                    index_t ldc);

/// The plan wide::gemm_wide<bits> runs: FP32 NN with both operands
/// packed at the width's analytic tile (paper Section 5.5), cache-blocked
/// for `mach`, through the same quarantine gate and arena layout as a
/// gemm plan. bits is 128, 256 or 512.
GemmPlan<float> plan_wide(int bits, index_t M, index_t N, index_t K,
                          const arch::MachineDescriptor& mach);

/// C *= beta (beta==0 writes zeros without reading C).
template <typename T>
void scale_c(index_t M, index_t N, T beta, T* C, index_t ldc);

/// cfg.threads semantics: 0 = all host cores, else the given count.
int resolve_threads(int threads);

}  // namespace detail

}  // namespace shalom
