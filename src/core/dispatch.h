// Runtime dispatch from (m_eff, n_eff) edge sizes to the statically
// instantiated micro-kernel variants.
//
// The register tile is (mr, nr) = (7, 12) FP32 / (7, 6) FP64 on 32-register
// machines at 128 bits (9x16 and 15x16 FP32 at 256 and 512 bits), but
// every GEMM has remainder tiles: m_eff in 1..mr and n_eff in 1..nr. Each
// (m_eff, full-vectors, partial-lanes) combination maps to its own fully
// unrolled kern_main instantiation; one constexpr function-pointer table
// template, per access pair, width and pack hook, routes a runtime tile to
// the right one.
#pragma once

#include <array>
#include <iterator>
#include <type_traits>

#include "common/selfcheck.h"
#include "core/kernel_contracts.h"
#include "core/microkernel.h"

namespace shalom::ukr {

/// Upper bounds of the 128-bit kernel families: the analytic tile the
/// contract header derives for every 32-register/128-bit machine (mr=7,
/// nr <= 3 vectors); the driver clamps the model's tile to these caps.
inline constexpr int kMaxMr = contracts::kMaxMr;
inline constexpr int kMaxNrv = contracts::kMaxNrv;

static_assert(contracts::cmr_optimal(kMaxMr, kMaxNrv * 4,
                                     contracts::kVectorRegisters, 4),
              "CMR optimality violated: the instantiated FP32 family cap "
              "must match the cmr(mr,nr) = 2*mr*nr/(mr+nr) maximum over "
              "all budget-feasible tiles (paper Eq. 2)");
static_assert(contracts::cmr_optimal(kMaxMr, kMaxNrv * 2,
                                     contracts::kVectorRegisters, 2),
              "CMR optimality violated: the instantiated FP64 family cap "
              "must match the cmr(mr,nr) = 2*mr*nr/(mr+nr) maximum over "
              "all budget-feasible tiles (paper Eq. 2)");

/// The analytic tile of T's kernel family at a vector width: the caps of
/// every variant in it - 7x12 FP32 / 7x6 FP64 at 128 bits, 9x16 and 15x16
/// FP32 at 256 and 512 bits (paper Section 5.5: the same model at the
/// wider lane count).
template <typename T>
constexpr contracts::Tile family_tile(int bits) {
  return contracts::solve_tile(contracts::kVectorRegisters,
                               bits / (8 * static_cast<int>(sizeof(T))));
}

/// Full vectors per row of the family's widest tile.
template <typename T>
constexpr int family_nrv(int bits) {
  return family_tile<T>(bits).nr / (bits / (8 * static_cast<int>(sizeof(T))));
}

static_assert(family_tile<float>(128).mr == kMaxMr &&
                  family_nrv<float>(128) == kMaxNrv &&
                  family_tile<double>(128).mr == kMaxMr &&
                  family_nrv<double>(128) == kMaxNrv,
              "the 128-bit families are the (kMaxMr, kMaxNrv) caps");

template <typename T>
using MainKernelFn = void (*)(index_t kc, const T* a, index_t lda,
                              const T* b, index_t ldb, T* c, index_t ldc,
                              T alpha, T beta, int ntail, T* packed,
                              const T* b_next, index_t ldb_next,
                              T* packed_next);

/// Where a kernel's pack hook stores (see ukr::Pack); empty without one.
template <typename T>
struct PackOut {
  T* packed = nullptr;
  const T* b_next = nullptr;
  index_t ldb_next = 0;
  T* packed_next = nullptr;
};

/// Table of kern_main variants at one width and pack hook:
/// [mr-1][full_vectors][has_tail]. Entries that cannot occur (nrv == 0
/// with no tail; nrv == MaxNrv with a tail, which would exceed nr) are
/// null. A pack hook runs on full-height stripes only, so a table with one
/// fills the mr = MaxMr row alone. MaxMr/MaxNrv default to the width's
/// family caps; they are parameters so the baseline libraries can
/// instantiate their own tile families (e.g. BLASFEO's 8x8) without
/// touching LibShalom's.
template <typename T, AAccess AA, BAccess BA, int Bits = 128, Pack P = Pack{},
          int MaxMr = family_tile<T>(Bits).mr,
          int MaxNrv = family_nrv<T>(Bits)>
struct MainTable {
  MainKernelFn<T> fn[MaxMr][MaxNrv + 1][2] = {};
  /// True where fill installed a variant. The coverage check reads this,
  /// not fn: GCC's UBSan mode (-fno-delete-null-pointer-checks) makes a
  /// function address compared with nullptr a non-constant expression.
  bool has[MaxMr][MaxNrv + 1][2] = {};

  constexpr MainTable() {
    fill_mr(std::make_integer_sequence<int, MaxMr>{});
  }

  template <int... MrIdx>
  constexpr void fill_mr(std::integer_sequence<int, MrIdx...>) {
    (fill_nrv<MrIdx + 1>(std::make_integer_sequence<int, MaxNrv + 1>{}),
     ...);
  }

  template <int Mr, int... Nrv>
  constexpr void fill_nrv(std::integer_sequence<int, Nrv...>) {
    if constexpr (Mr == MaxMr || P.none()) {
      ((Nrv > 0 ? put(Mr, Nrv, 0,
                      &kern_main<T, Mr, (Nrv > 0 ? Nrv : 1), false, AA, BA,
                                 Bits, P>)
                : void()),
       ...);
      ((Nrv < MaxNrv
            ? put(Mr, Nrv, 1,
                  &kern_main<T, Mr, (Nrv < MaxNrv ? Nrv : 0), true, AA, BA,
                             Bits, P>)
            : void()),
       ...);
    }
  }

  constexpr void put(int mr, int nrv, int tail, MainKernelFn<T> f) {
    fn[mr - 1][nrv][tail] = f;
    has[mr - 1][nrv][tail] = true;
  }
};

template <typename T, AAccess AA, BAccess BA, int Bits = 128, Pack P = Pack{},
          int MaxMr = family_tile<T>(Bits).mr,
          int MaxNrv = family_nrv<T>(Bits)>
inline constexpr MainTable<T, AA, BA, Bits, P, MaxMr, MaxNrv> kMainTable{};

/// Edge-coverage contract: every remainder tile (m_eff, n_eff) of T's
/// family at Bits must route to a non-null variant.
template <typename T, AAccess AA, BAccess BA, int Bits = 128>
constexpr bool main_table_covers_edges() {
  constexpr contracts::Tile t = family_tile<T>(Bits);
  return contracts::covers_all_edges(t.mr, t.nr, [](int m, int n) {
    constexpr int L = simd::vec_of_t<T, Bits>::kLanes;
    return kMainTable<T, AA, BA, Bits>.has[m - 1][n / L][(n % L) != 0];
  });
}

/// Access pairs with an instantiated kern_main family of T at a width.
/// At 128 bits: direct or packed A with direct or packed B, plus
/// transposed in-place A with direct B (the no-pack TN/TT path). At 256
/// and 512 bits: FP32 packed A with packed B. Transposed in-place B has no
/// vectorized family; its tiles run kern_scalar, as do the pairs without a
/// family at a wider width.
template <typename T>
constexpr bool has_main_family(AAccess aa, BAccess ba, int bits = 128) {
  if (bits != 128)
    return std::is_same_v<T, float> && aa == AAccess::kPacked &&
           ba == BAccess::kPacked;
  return ba != BAccess::kDirectTrans &&
         (aa != AAccess::kDirectTrans || ba == BAccess::kDirect);
}

/// Registration-site checks for every family the drivers dispatch
/// through. A table gap would otherwise only surface as a runtime
/// SHALOM_ASSERT on the first GEMM that hits the missing remainder.
#define SHALOM_CHECK_MAIN_TABLE(T)                                        \
  static_assert(                                                          \
      main_table_covers_edges<T, AAccess::kDirect, BAccess::kDirect>() && \
          main_table_covers_edges<T, AAccess::kDirect,                    \
                                  BAccess::kPacked>() &&                  \
          main_table_covers_edges<T, AAccess::kPacked,                    \
                                  BAccess::kDirect>() &&                  \
          main_table_covers_edges<T, AAccess::kPacked,                    \
                                  BAccess::kPacked>() &&                  \
          main_table_covers_edges<T, AAccess::kDirectTrans,               \
                                  BAccess::kDirect>(),                    \
      "edge-tile coverage violated: every remainder tile (m_eff, n_eff) " \
      "in 1..mr x 1..nr must dispatch to a non-null " #T                  \
      " kernel variant (paper S 5.4)")

SHALOM_CHECK_MAIN_TABLE(float);
SHALOM_CHECK_MAIN_TABLE(double);
#undef SHALOM_CHECK_MAIN_TABLE
static_assert(
    main_table_covers_edges<float, AAccess::kPacked, BAccess::kPacked,
                            256>() &&
        main_table_covers_edges<float, AAccess::kPacked, BAccess::kPacked,
                                512>(),
    "edge-tile coverage violated: every remainder tile of the 256- and "
    "512-bit FP32 tiles must dispatch to a non-null kernel variant");

/// Runs one C tile of size m_eff x n_eff (1 <= m_eff <= MaxMr,
/// 1 <= n_eff <= MaxNrv * lanes) against the selected kernel variant; `pk`
/// is where its pack hook stores.
template <typename T, AAccess AA, BAccess BA, int Bits = 128, Pack P = Pack{},
          int MaxMr = family_tile<T>(Bits).mr,
          int MaxNrv = family_nrv<T>(Bits)>
SHALOM_INLINE void run_main_tile(int m_eff, int n_eff, index_t kc,
                                 const T* a, index_t lda, const T* b,
                                 index_t ldb, T* c, index_t ldc, T alpha,
                                 T beta, const PackOut<T>& pk = {}) {
  constexpr int L = simd::vec_of_t<T, Bits>::kLanes;
  const int nrv = n_eff / L;
  const int ntail = n_eff % L;
  const auto fn = kMainTable<T, AA, BA, Bits, P, MaxMr, MaxNrv>
                      .fn[m_eff - 1][nrv][ntail > 0];
  SHALOM_ASSERT(fn != nullptr);
  fn(kc, a, lda, b, ldb, c, ldc, alpha, beta, ntail, pk.packed, pk.b_next,
     pk.ldb_next, pk.packed_next);
}

/// The fused kernels always pack the canonical full sliver width.
template <typename T>
inline constexpr int kNrFull = kMaxNrv * simd::vec_of_t<T>::kLanes;

/// Fused NN pack (Algorithm 1 lines 6-8, Fig. 4): the first, full-height
/// stripe of a B sliver against in-place A, packing the sliver into `bc`
/// as it loads it. pack_cur = false means `b` already points at the
/// packed current sliver (steady state of the t = 1 pack-ahead pipeline,
/// ldb = kNrFull). ahead = true streams the next sliver (which must be
/// full width) into bc_next.
template <typename T>
SHALOM_INLINE void run_fused_pack_nn(bool pack_cur, bool ahead, int n_eff,
                                     index_t kc, const T* a, index_t lda,
                                     const T* b, index_t ldb, T* bc,
                                     const T* b_next, index_t ldb_next,
                                     T* bc_next, T* c, index_t ldc, T alpha,
                                     T beta) {
  constexpr AAccess kIn = AAccess::kDirect;
  constexpr Pack kCur{.b = true}, kAhead{.ahead = true},
      kCurAhead{.b = true, .ahead = true};
  const PackOut<T> pk{bc, b_next, ldb_next, bc_next};
  if (pack_cur && ahead) {
    run_main_tile<T, kIn, BAccess::kDirect, 128, kCurAhead>(
        kMaxMr, n_eff, kc, a, lda, b, ldb, c, ldc, alpha, beta, pk);
  } else if (pack_cur) {
    run_main_tile<T, kIn, BAccess::kDirect, 128, kCur>(
        kMaxMr, n_eff, kc, a, lda, b, ldb, c, ldc, alpha, beta, pk);
  } else if (ahead) {
    run_main_tile<T, kIn, BAccess::kPacked, 128, kAhead>(
        kMaxMr, n_eff, kc, a, lda, b, ldb, c, ldc, alpha, beta, pk);
  } else {
    run_main_tile<T, kIn, BAccess::kPacked>(kMaxMr, n_eff, kc, a, lda, b,
                                            ldb, c, ldc, alpha, beta);
  }
}

/// Fused TN/TT pack (Section 4.3): one full-height (kMaxMr) stripe against
/// transposed-in-place A, packing its Ac column sliver as it loads it.
/// b_packed selects zero-padded packed-B reads vs in-place reads.
template <typename T>
SHALOM_INLINE void run_fused_pack_tn(bool b_packed, int n_eff, index_t kc,
                                     const T* a, index_t lda, T* ac,
                                     const T* b, index_t ldb, T* c,
                                     index_t ldc, T alpha, T beta) {
  constexpr AAccess kTr = AAccess::kDirectTrans;
  constexpr Pack kPackA{.a = true};
  if (b_packed) {
    run_main_tile<T, kTr, BAccess::kPacked, 128, kPackA>(
        kMaxMr, n_eff, kc, a, lda, b, ldb, c, ldc, alpha, beta, {ac});
  } else {
    run_main_tile<T, kTr, BAccess::kDirect, 128, kPackA>(
        kMaxMr, n_eff, kc, a, lda, b, ldb, c, ldc, alpha, beta, {ac});
  }
}

// ---------------------------------------------------------------------------
// Fused NT pack kernel dispatch (JB = 1..3 column groups).
// ---------------------------------------------------------------------------

template <typename T>
using FusedNtFn = void (*)(index_t kc, const T* a, index_t lda, const T* b,
                           index_t ldb, T* bc, int jofs, int nr_full,
                           bool store_full, T* c, index_t ldc, T alpha,
                           T beta);

/// store_full: a later column group of this sliver exists, so the scatter
/// may write one transposed lane past its own columns (see the kernel).
template <typename T>
SHALOM_INLINE void run_fused_pack_nt(int jb, index_t kc, const T* a,
                                     index_t lda, const T* b, index_t ldb,
                                     T* bc, int jofs, int nr_full,
                                     bool store_full, T* c, index_t ldc,
                                     T alpha, T beta) {
  static constexpr FusedNtFn<T> table[3] = {
      &kern_fused_pack_nt<T, kMaxMr, 1>,
      &kern_fused_pack_nt<T, kMaxMr, 2>,
      &kern_fused_pack_nt<T, kMaxMr, 3>,
  };
  SHALOM_ASSERT(jb >= 1 && jb <= 3);
  table[jb - 1](kc, a, lda, b, ldb, bc, jofs, nr_full, store_full, c, ldc,
                alpha, beta);
}

// ---------------------------------------------------------------------------
// Selfcheck variant mapping: which quarantine unit covers each statically
// instantiated family, looked up in the selfcheck variant list. Plan
// building and the executor consult selfcheck::variant_ok() with these ids
// before routing a tile to a vectorized kernel (common/selfcheck.h).
// ---------------------------------------------------------------------------

template <typename T>
inline constexpr selfcheck::Dtype kDtype =
    std::is_same_v<T, double> ? selfcheck::Dtype::kF64
                              : selfcheck::Dtype::kF32;

// The selfcheck list spells operand accesses with its own enum (it may
// not include core/); both kernel access enums share its numbering.
template <typename E>
constexpr bool numbered_like_list() {
  using selfcheck::Access;
  return static_cast<int>(E::kDirect) == static_cast<int>(Access::kDirect) &&
         static_cast<int>(E::kPacked) == static_cast<int>(Access::kPacked) &&
         static_cast<int>(E::kDirectTrans) == static_cast<int>(Access::kTrans);
}
static_assert(numbered_like_list<AAccess>() && numbered_like_list<BAccess>());

/// The vector widths with a kernel family; a family's width index is its
/// position here.
inline constexpr int kWidths[] = {128, 256, 512};
inline constexpr int kWidthCount = static_cast<int>(std::size(kWidths));

constexpr int width_index(int bits) {
  for (int w = 0; w < kWidthCount; ++w)
    if (kWidths[w] == bits) return w;
  return -1;
}

/// Variant ids of T's families by [width][kind][A access][B access],
/// resolved from the selfcheck list at compile time (-1: no family).
template <typename T>
inline constexpr auto kFamilyVariants = [] {
  constexpr int kKinds = static_cast<int>(selfcheck::Kind::kFusedTn) + 1;
  std::array<std::array<std::array<std::array<int, 3>, 3>, kKinds>,
             kWidthCount>
      t{};
  for (int w = 0; w < kWidthCount; ++w)
    for (int k = 0; k < kKinds; ++k)
      for (int a = 0; a < 3; ++a)
        for (int b = 0; b < 3; ++b)
          t[w][k][a][b] = selfcheck::find_variant(
              static_cast<selfcheck::Kind>(k), kDtype<T>, kWidths[w],
              static_cast<selfcheck::Access>(a),
              static_cast<selfcheck::Access>(b));
  return t;
}();

/// Variant id (the quarantine unit) of the `kind` family at `bits` that
/// reads A and B with these accesses.
template <typename T>
constexpr selfcheck::Variant family_variant(selfcheck::Kind kind, AAccess aa,
                                            BAccess ba, int bits = 128) {
  return static_cast<selfcheck::Variant>(
      kFamilyVariants<T>[width_index(bits)][static_cast<int>(kind)]
                        [static_cast<int>(aa)][static_cast<int>(ba)]);
}

/// Every family the executor dispatches has its list row: full and edge
/// kern_main tiles for each has_main_family pair at every width, and the
/// fused kernels (NN: A and B in place; NT: B^T in place; TN: A^T in place
/// with B in place or packed).
template <typename T>
constexpr bool families_listed() {
  using K = selfcheck::Kind;
  const auto has = [](K k, AAccess a, BAccess b, int bits = 128) {
    return static_cast<int>(family_variant<T>(k, a, b, bits)) >= 0;
  };
  for (const int bits : kWidths)
    for (const AAccess a : {AAccess::kDirect, AAccess::kPacked,
                            AAccess::kDirectTrans})
      for (const BAccess b : {BAccess::kDirect, BAccess::kPacked,
                              BAccess::kDirectTrans})
        if (has_main_family<T>(a, b, bits) &&
            !(has(K::kMain, a, b, bits) && has(K::kEdge, a, b, bits)))
          return false;
  return has(K::kFusedNn, AAccess::kDirect, BAccess::kDirect) &&
         has(K::kFusedNt, AAccess::kDirect, BAccess::kDirectTrans) &&
         has(K::kFusedTn, AAccess::kDirectTrans, BAccess::kDirect) &&
         has(K::kFusedTn, AAccess::kDirectTrans, BAccess::kPacked);
}
static_assert(families_listed<float>() && families_listed<double>(),
              "a dispatched kernel family has no selfcheck variant row");

}  // namespace shalom::ukr
