// The per-kind half of the selfcheck probe: the case table (cases_of), and
// the declarations of the tile runners (run_tile) and of the one harness,
// run_cases(), that lays out, runs and checks every case. Both are defined
// in selfcheck.cpp, so including this header compiles no kernel. A runner
// is a plain function pointer, so a test can hand the harness a
// deliberately wrong kernel.
#pragma once

#include <initializer_list>
#include <type_traits>

#include "common/selfcheck.h"
#include "core/kernel_contracts.h"
#include "core/widegemm.h"

namespace shalom::selfcheck::probe {

/// Small fixed-capacity list, so case-table rows stay constexpr.
template <typename E, int N>
struct List {
  E v[N] = {};
  int n = 0;
  constexpr List(std::initializer_list<E> items) {
    for (const E& e : items) v[n++] = e;
  }
  constexpr const E* begin() const { return v; }
  constexpr const E* end() const { return v + n; }
};

/// C = alpha * A * B + beta * C; with beta == 0 the harness fills C with
/// NaN, which a kernel must not read.
struct AlphaBeta {
  double alpha, beta;
};

/// One probed tile: its size, how the kernel reads B (fused NN's pack_cur
/// and fused TN's b_packed choose), and whether fused NN packs ahead.
struct TileCase {
  int m_eff, n_eff;
  Access b;
  bool ahead;
};

/// The packed side-output a kind's kernel writes besides C, checked
/// bitwise: none, Bc (fused NN, and the next sliver when packing ahead;
/// fused NT scatters B^T into it) or Ac with its tail slack (fused TN).
enum class Side : int { kNone, kPackB, kPackA };

/// One row of the case table; `tiles` holds up to every remainder tile of
/// the FP32 128-bit register tile.
struct Cases {
  int mr, nr;  // the kind's register tile: C rows and sliver widths
  Access a;    // how the kernel reads A
  List<index_t, 4> kcs;
  List<TileCase, contracts::kTileF32.mr * contracts::kTileF32.nr> tiles;
  List<AlphaBeta, 3> abs;
  Side side;
};

/// The case table, one row per kind; `b` is the variant's B access, L its
/// lane count. The kc lists cross the kernels' k-unroll boundaries, and
/// the tile sets hold the full tile and the edges each kind dispatches.
constexpr Cases cases_of(Kind kind, Access a, Access b, int mr, int nr,
                         int L) {
  constexpr AlphaBeta kOverwrite{1.0, 0.0}, kScaled{-0.5, 0.75},
      kAccumulate{1.25, 1.0};
  constexpr Access kIn = Access::kDirect, kPk = Access::kPacked;
  switch (kind) {
    case Kind::kMain:  // the full tile
    case Kind::kEdge: {  // every remainder tile
      Cases c{mr, nr, a, {1, 3, L, 2 * L + 1}, {},
              {kOverwrite, kScaled, kAccumulate}, Side::kNone};
      for (int m = 1; m <= mr; ++m)
        for (int n = 1; n <= nr; ++n)
          if ((m == mr && n == nr) == (kind == Kind::kMain))
            c.tiles.v[c.tiles.n++] = {m, n, b, false};
      return c;
    }
    case Kind::kFusedNn:
      return {mr, nr, a, {3, 2 * L + 1, 4 * L},
              {{mr, nr, kIn, false}, {mr, nr - 1, kIn, false},
               {mr, 1, kIn, false}, {mr, nr, kIn, true},
               {mr, nr, kPk, false}},
              {kOverwrite, kScaled}, Side::kPackB};
    case Kind::kFusedTn:
      return {mr, nr, a, {1, 2, L + 1},
              {{mr, nr, kIn, false}, {mr, nr - 1, kIn, false},
               {mr, 3, kIn, false}, {mr, 1, kIn, false},
               {mr, nr, kPk, false}, {mr, nr - 1, kPk, false},
               {mr, 3, kPk, false}, {mr, 1, kPk, false}},
              {kOverwrite, kAccumulate}, Side::kPackA};
    case Kind::kFusedNt:
      return {mr, nr, a, {L, 2 * L + 3, 35},
              {{mr, nr, b, false}, {mr, nr - 1, b, false},
               {mr, 4, b, false}, {mr, 1, b, false}},
              {kOverwrite, kScaled}, Side::kPackB};
    case Kind::kWide:
      break;
  }
  return {mr, nr, a, {1, 5, 17},
          {{mr, nr, b, false}, {mr - 2, nr - 3, b, false}, {1, 1, b, false}},
          {kOverwrite, kScaled}, Side::kNone};
}

/// One laid-out probe tile, as a runner receives it.
template <typename T>
struct Tile {
  int m_eff, n_eff;
  index_t kc;
  const T* a;
  index_t lda;
  const T* b;
  index_t ldb;
  Access b_access;
  const T* b_next;  // next full sliver (fused NN pack-ahead), else nullptr
  T* side;          // packed side-output (Bc or Ac), else nullptr
  T* side_next;     // packed next sliver (fused NN pack-ahead), else nullptr
  T* c;
  index_t ldc;
  T alpha, beta;
};

template <typename T>
using Runner = void (*)(const Tile<T>&);

/// Runs every case of `cases` through `run` and checks C and the side
/// output; false on the first wrong value or touched canary.
template <typename T>
bool run_cases(const Cases& cases, Runner<T> run);

/// Element type of variant row I.
template <int I>
using row_t =
    std::conditional_t<kVariants[I].dtype == Dtype::kF64, double, float>;

/// The case-table row of variant row I, at the row's own register tile.
template <int I>
constexpr Cases row_cases() {
  constexpr VariantRow r = kVariants[I];
  if constexpr (r.kind == Kind::kWide) {
    constexpr int L = r.width / 32;
    return cases_of(r.kind, r.a, r.b, wide::WideTile<r.width>::kMr,
                    wide::WideTile<r.width>::kNrv * L, L);
  } else {
    constexpr int L = simd::vec_of_t<row_t<I>>::kLanes;
    return cases_of(r.kind, r.a, r.b, contracts::kMaxMr,
                    contracts::kMaxNrv * L, L);
  }
}

/// The runner of variant row I: one tile through the row's kernel family,
/// instantiated for every row in selfcheck.cpp (tests link to it).
template <int I>
void run_tile(const Tile<row_t<I>>& t);

}  // namespace shalom::selfcheck::probe
