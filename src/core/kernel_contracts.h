// Compile-time kernel contracts: the paper's analytic model (Section 5.2
// register tiling, Section 6 partitioning) as constexpr validators, plus
// the single source of truth for the constants those sections fix.
//
// Every micro-kernel registration site (the dispatch.h tables at every
// vector width, the kernel templates in microkernel.h) applies these via
// static_assert, so a tile or variant that violates the
// model fails to compile with a message naming the violated inequality
// instead of shipping a kernel that silently spills registers or leaves
// remainder tiles undispatchable.
//
// Inequalities enforced (32 ASIMD vector registers, j lanes per vector;
// j = 4 for FP32 / 2 for FP64 at 128 bits, 8 / 16 for FP32 at 256 / 512
// bits, whose tiles solve_tile derives the same way: 9x16 and 15x16):
//
//   Register budget (Eq. 1):   mr + nr/j + mr*nr/j <= 31
//     mr*(nr/j) accumulators + nr/j B-vector loads + mr A broadcasts must
//     fit the file with one register reserved for prefetch (S 5.2.1).
//   CMR optimality (Eq. 2):    cmr(mr, nr) = 2*mr*nr / (mr + nr) maximal
//     over all tiles satisfying the budget (ties broken towards the
//     larger C tile, matching model::solve_tile).
//   Pack-stride divisibility:  nr % j == 0
//     packed B row slivers are read as whole vectors, so the sliver
//     stride must be a multiple of the lane count.
//   Edge coverage:             every remainder tile (m_eff, n_eff) in
//     1..mr x 1..nr must dispatch to a non-null kernel (S 5.4 / Fig. 6b).
//   Partition constraint (S 6, Eq. 4): Tn = ceil(sqrt(T*N/M)) moved to a
//     divisor of T, so T mod Tn == 0 always holds for the chosen grid.
#pragma once

#include "common/matrix.h"

namespace shalom::contracts {

// -------------------------------------------------------------------------
// Machine constants (ARMv8 ASIMD baseline the whole library is tiled for).
// model.cpp, dispatch.h (every width's family tile) and the selfcheck case
// table all derive from these; do not duplicate the literals at use sites.
// -------------------------------------------------------------------------

/// Architectural vector register count (ARMv8 ASIMD: v0..v31).
inline constexpr int kVectorRegisters = 32;

/// Registers the kernel schedule keeps out of the tile: one, reserved for
/// the software-prefetch address stream (paper Section 5.2.1).
inline constexpr int kReservedRegisters = 1;

/// Usable register budget for the (mr, nr) tile: 31 on the baseline.
inline constexpr int kRegisterBudget = kVectorRegisters - kReservedRegisters;

/// Upper bound on the kc blocking parameter. The L1-resident sliver
/// argument behind model::solve_blocking stops paying off past this depth
/// on every cache geometry the paper measures; autotune candidates are
/// clamped to the same bound so tuner and model explore one space.
inline constexpr index_t kMaxKc = 512;

/// Extra elements allocated past every packed buffer so packed-A vector
/// loads (and the A pack hook's overlapping two-store trick) may read one
/// full vector beyond the last column. Must cover the widest 128-bit lane
/// count (4 FP32 lanes); the 256/512-bit kernels broadcast packed A from
/// memory and read no slack.
inline constexpr index_t kPackSlackElems = 8;

// -------------------------------------------------------------------------
// Register-budget contract (Eq. 1).
// -------------------------------------------------------------------------

/// Registers a kernel with `mr` rows and `nrv` = nr/j column vectors
/// needs: mr*nrv accumulators + nrv B loads + mr A broadcasts.
constexpr int register_cost(int mr, int nrv) {
  return mr + nrv + mr * nrv;
}

constexpr bool fits_register_budget(int mr, int nrv) {
  return mr >= 1 && nrv >= 1 && register_cost(mr, nrv) <= kRegisterBudget;
}

// -------------------------------------------------------------------------
// CMR contract (Eq. 2).
// -------------------------------------------------------------------------

/// Computation-to-memory ratio of an (mr, nr) register tile.
constexpr double tile_cmr(int mr, int nr) {
  return 2.0 * mr * nr / static_cast<double>(mr + nr);
}

struct Tile {
  int mr = 0;
  int nr = 0;
};

/// The CMR-optimal register tile for a machine with `vector_registers`
/// registers of `lanes_per_vector` lanes - the same search (and the same
/// larger-C-tile tie-break) model::solve_tile memoizes at runtime; this
/// constexpr form is the definition both share.
constexpr Tile solve_tile(int vector_registers, int lanes_per_vector) {
  const int budget = vector_registers - kReservedRegisters;
  const int j = lanes_per_vector;
  Tile best;
  double best_cmr = -1.0;
  for (int mr = 1; mr <= budget; ++mr) {
    for (int nr = j; nr <= budget * j; nr += j) {
      if (register_cost(mr, nr / j) > budget) break;
      const double cmr = tile_cmr(mr, nr);
      if (cmr > best_cmr ||
          (cmr == best_cmr && mr * nr > best.mr * best.nr)) {
        best_cmr = cmr;
        best = {mr, nr};
      }
    }
  }
  return best;
}

/// True when (mr, nr) has maximal CMR among all tiles that fit the budget
/// of this machine: the monotonicity check applied to every registered
/// tile family.
constexpr bool cmr_optimal(int mr, int nr, int vector_registers,
                           int lanes_per_vector) {
  const Tile t = solve_tile(vector_registers, lanes_per_vector);
  return tile_cmr(mr, nr) >= tile_cmr(t.mr, t.nr);
}

// -------------------------------------------------------------------------
// Pack-stride contract.
// -------------------------------------------------------------------------

/// Packed B row slivers of stride nr are read as whole j-lane vectors.
constexpr bool divides_pack_stride(int nr, int lanes_per_vector) {
  return lanes_per_vector >= 1 && nr % lanes_per_vector == 0;
}

// -------------------------------------------------------------------------
// Edge-coverage contract (S 5.4).
// -------------------------------------------------------------------------

/// Checks that `has_kernel(m_eff, n_eff)` holds for every remainder tile
/// 1..max_mr x 1..max_nr. dispatch.h instantiates this against its
/// constexpr function-pointer tables.
template <typename Fn>
constexpr bool covers_all_edges(int max_mr, int max_nr, Fn has_kernel) {
  for (int m = 1; m <= max_mr; ++m)
    for (int n = 1; n <= max_nr; ++n)
      if (!has_kernel(m, n)) return false;
  return true;
}

// -------------------------------------------------------------------------
// Partition contract (S 6, Eq. 4).
// -------------------------------------------------------------------------

/// The thread grid must divide evenly: T mod Tn == 0 (and the derived
/// Tm = T / Tn is then integral by construction).
constexpr bool valid_partition(int t, int tn) {
  return t >= 1 && tn >= 1 && tn <= t && t % tn == 0;
}

// -------------------------------------------------------------------------
// The baseline instantiation caps, derived - not restated - from the
// model. dispatch.h's kernel family bounds alias these.
// -------------------------------------------------------------------------

/// Analytic FP32 tile at the baseline width: (7, 12).
inline constexpr Tile kTileF32 = solve_tile(kVectorRegisters, 4);
/// Analytic FP64 tile at the baseline width: (7, 6).
inline constexpr Tile kTileF64 = solve_tile(kVectorRegisters, 2);

/// Kernel-family caps: every statically instantiated variant has
/// mr <= kMaxMr and nr <= kMaxNrv vectors.
inline constexpr int kMaxMr = kTileF32.mr;
inline constexpr int kMaxNrv = kTileF32.nr / 4;

static_assert(kTileF32.mr == 7 && kTileF32.nr == 12,
              "paper S 5.2: the FP32 model tile on 32 registers must be "
              "7x12 (register budget mr + nr/j + mr*nr/j <= 31, j = 4)");
static_assert(kTileF64.mr == 7 && kTileF64.nr == 6,
              "paper S 5.2: the FP64 model tile on 32 registers must be "
              "7x6 (register budget mr + nr/j + mr*nr/j <= 31, j = 2)");
static_assert(kTileF64.mr == kMaxMr && kTileF64.nr == kMaxNrv * 2,
              "FP32 and FP64 tiles must share the (kMaxMr, kMaxNrv) "
              "instantiation caps");
static_assert(fits_register_budget(kMaxMr, kMaxNrv),
              "register budget violated: mr + nr/j + mr*nr/j <= 31");
static_assert(divides_pack_stride(kTileF32.nr, 4) &&
                  divides_pack_stride(kTileF64.nr, 2),
              "pack-stride divisibility violated: nr % j == 0");
static_assert(kPackSlackElems >= 4,
              "pack slack must cover one full 128-bit FP32 vector (4 "
              "lanes) of overlap past the buffer");

}  // namespace shalom::contracts
