// Runtime dispatch from (m_eff, n_eff) edge sizes to the statically
// instantiated micro-kernel variants.
//
// The register tile is (mr, nr) = (7, 12) FP32 / (7, 6) FP64 on 32-register
// machines, but every GEMM has remainder tiles: m_eff in 1..mr and n_eff in
// 1..nr. Each (m_eff, full-vectors, partial-lanes) combination maps to its
// own fully unrolled kernel instantiation; this header builds the constexpr
// function-pointer tables that route a runtime tile to the right one.
#pragma once

#include <array>
#include <type_traits>

#include "common/selfcheck.h"
#include "core/kernel_contracts.h"
#include "core/microkernel.h"

namespace shalom::ukr {

/// Upper bounds of the instantiated kernel family: the analytic tile the
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

template <typename T>
using MainKernelFn = void (*)(index_t kc, const T* a, index_t lda,
                              const T* b, index_t ldb, T* c, index_t ldc,
                              T alpha, T beta, int ntail);

/// Table of main-kernel variants: [mr-1][full_vectors][has_tail].
/// Entries that cannot occur (nrv == 0 with no tail; nrv == MaxNrv with a
/// tail, which would exceed nr) are null. MaxMr/MaxNrv are parameters so
/// the baseline libraries can instantiate their own tile families (e.g.
/// BLASFEO's 8x8) without touching LibShalom's.
template <typename T, AAccess AA, BAccess BA, int MaxMr = kMaxMr,
          int MaxNrv = kMaxNrv>
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
    ((Nrv > 0 ? put(Mr, Nrv, 0,
                    &kern_main<T, Mr, (Nrv > 0 ? Nrv : 1), false, AA, BA>)
              : void()),
     ...);
    ((Nrv < MaxNrv
          ? put(Mr, Nrv, 1,
                &kern_main<T, Mr, (Nrv < MaxNrv ? Nrv : 0), true, AA, BA>)
          : void()),
     ...);
  }

  constexpr void put(int mr, int nrv, int tail, MainKernelFn<T> f) {
    fn[mr - 1][nrv][tail] = f;
    has[mr - 1][nrv][tail] = true;
  }
};

template <typename T, AAccess AA, BAccess BA, int MaxMr = kMaxMr,
          int MaxNrv = kMaxNrv>
inline constexpr MainTable<T, AA, BA, MaxMr, MaxNrv> kMainTable{};

/// Edge-coverage contract: every remainder tile (m_eff, n_eff) in
/// 1..MaxMr x 1..MaxNrv*lanes must route to a non-null variant.
template <typename T, AAccess AA, BAccess BA, int MaxMr = kMaxMr,
          int MaxNrv = kMaxNrv>
constexpr bool main_table_covers_edges() {
  constexpr int L = simd::vec_of_t<T>::kLanes;
  return contracts::covers_all_edges(MaxMr, MaxNrv * L, [](int m, int n) {
    constexpr int Lanes = simd::vec_of_t<T>::kLanes;
    return kMainTable<T, AA, BA, MaxMr, MaxNrv>
        .has[m - 1][n / Lanes][(n % Lanes) != 0];
  });
}

/// Access pairs with an instantiated kern_main family: direct or packed A
/// with direct or packed B, plus transposed in-place A with direct B (the
/// no-pack TN/TT path). Transposed in-place B has no vectorized family; its
/// tiles run kern_scalar.
constexpr bool has_main_family(AAccess aa, BAccess ba) {
  return ba != BAccess::kDirectTrans &&
         (aa != AAccess::kDirectTrans || ba == BAccess::kDirect);
}

/// Registration-site checks for every access pair the drivers dispatch
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

/// Runs one C tile of size m_eff x n_eff (1 <= m_eff <= MaxMr,
/// 1 <= n_eff <= MaxNrv * lanes) against the selected kernel variant.
template <typename T, AAccess AA, BAccess BA, int MaxMr = kMaxMr,
          int MaxNrv = kMaxNrv>
SHALOM_INLINE void run_main_tile(int m_eff, int n_eff, index_t kc,
                                 const T* a, index_t lda, const T* b,
                                 index_t ldb, T* c, index_t ldc, T alpha,
                                 T beta) {
  constexpr int L = simd::vec_of_t<T>::kLanes;
  const int nrv = n_eff / L;
  const int ntail = n_eff % L;
  const auto fn =
      kMainTable<T, AA, BA, MaxMr, MaxNrv>.fn[m_eff - 1][nrv][ntail > 0];
  SHALOM_ASSERT(fn != nullptr);
  fn(kc, a, lda, b, ldb, c, ldc, alpha, beta, ntail);
}

// ---------------------------------------------------------------------------
// Fused NN pack kernel dispatch (first stripe is always a full mr rows;
// the sliver width may be an edge).
// ---------------------------------------------------------------------------

template <typename T>
using FusedNnFn = void (*)(index_t kc, const T* a, index_t lda, const T* b,
                           index_t ldb, T* bc, const T* b_next,
                           index_t ldb_next, T* bc_next, T* c, index_t ldc,
                           T alpha, T beta, int ntail);

/// The fused kernels always pack the canonical full sliver width.
template <typename T>
inline constexpr int kNrFull = kMaxNrv * simd::vec_of_t<T>::kLanes;

template <typename T, bool PackCur, bool Ahead>
struct FusedNnTable {
  FusedNnFn<T> fn[kMaxNrv + 1][2] = {};

  constexpr FusedNnTable() {
    fill(std::make_integer_sequence<int, kMaxNrv + 1>{});
  }

  template <int... Nrv>
  constexpr void fill(std::integer_sequence<int, Nrv...>) {
    ((fn[Nrv][0] = (Nrv > 0) ? &kern_fused_pack_nn<T, kMaxMr,
                                                   (Nrv > 0 ? Nrv : 1),
                                                   false, PackCur, Ahead,
                                                   kNrFull<T>>
                             : nullptr),
     ...);
    ((fn[Nrv][1] =
          (Nrv < kMaxNrv)
              ? &kern_fused_pack_nn<T, kMaxMr, (Nrv < kMaxNrv ? Nrv : 0),
                                    true, PackCur, Ahead, kNrFull<T>>
              : nullptr),
     ...);
  }
};

template <typename T, bool PackCur, bool Ahead>
inline constexpr FusedNnTable<T, PackCur, Ahead> kFusedNnTable{};

/// pack_cur = false means `b` already points at the packed current sliver
/// (steady state of the t = 1 pack-ahead pipeline). ahead = true streams
/// the next sliver (which must be full width) into bc_next.
template <typename T>
SHALOM_INLINE void run_fused_pack_nn(bool pack_cur, bool ahead, int n_eff,
                                     index_t kc, const T* a, index_t lda,
                                     const T* b, index_t ldb, T* bc,
                                     const T* b_next, index_t ldb_next,
                                     T* bc_next, T* c, index_t ldc, T alpha,
                                     T beta) {
  constexpr int L = simd::vec_of_t<T>::kLanes;
  const int nrv = n_eff / L;
  const int ntail = n_eff % L;
  FusedNnFn<T> fn;
  if (pack_cur) {
    fn = ahead ? kFusedNnTable<T, true, true>.fn[nrv][ntail > 0]
               : kFusedNnTable<T, true, false>.fn[nrv][ntail > 0];
  } else {
    fn = ahead ? kFusedNnTable<T, false, true>.fn[nrv][ntail > 0]
               : kFusedNnTable<T, false, false>.fn[nrv][ntail > 0];
  }
  SHALOM_ASSERT(fn != nullptr);
  fn(kc, a, lda, b, ldb, bc, b_next, ldb_next, bc_next, c, ldc, alpha, beta,
     ntail);
}

// ---------------------------------------------------------------------------
// Fused TN/TT pack-A kernel dispatch.
// ---------------------------------------------------------------------------

template <typename T>
using FusedTnFn = void (*)(index_t kc, const T* a, index_t lda, T* ac,
                           const T* b, index_t ldb, T* c, index_t ldc,
                           T alpha, T beta, int ntail);

template <typename T, BAccess BA>
struct FusedTnTable {
  FusedTnFn<T> fn[kMaxNrv + 1][2] = {};

  constexpr FusedTnTable() {
    fill(std::make_integer_sequence<int, kMaxNrv + 1>{});
  }

  template <int... Nrv>
  constexpr void fill(std::integer_sequence<int, Nrv...>) {
    ((fn[Nrv][0] = (Nrv > 0) ? &kern_fused_pack_tn<T, kMaxMr,
                                                   (Nrv > 0 ? Nrv : 1),
                                                   false, BA>
                             : nullptr),
     ...);
    ((fn[Nrv][1] =
          (Nrv < kMaxNrv)
              ? &kern_fused_pack_tn<T, kMaxMr, (Nrv < kMaxNrv ? Nrv : 0),
                                    true, BA>
              : nullptr),
     ...);
  }
};

template <typename T, BAccess BA>
inline constexpr FusedTnTable<T, BA> kFusedTnTable{};

/// Computes one full-height (kMaxMr) stripe against transposed-in-place A
/// while packing the Ac column sliver. b_packed selects zero-padded
/// packed-B reads vs in-place reads.
template <typename T>
SHALOM_INLINE void run_fused_pack_tn(bool b_packed, int n_eff, index_t kc,
                                     const T* a, index_t lda, T* ac,
                                     const T* b, index_t ldb, T* c,
                                     index_t ldc, T alpha, T beta) {
  constexpr int L = simd::vec_of_t<T>::kLanes;
  const int nrv = n_eff / L;
  const int ntail = n_eff % L;
  const auto fn =
      b_packed ? kFusedTnTable<T, BAccess::kPacked>.fn[nrv][ntail > 0]
               : kFusedTnTable<T, BAccess::kDirect>.fn[nrv][ntail > 0];
  SHALOM_ASSERT(fn != nullptr);
  fn(kc, a, lda, ac, b, ldb, c, ldc, alpha, beta, ntail);
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

/// Variant ids of T's 128-bit families by [kind][A access][B access],
/// resolved from the selfcheck list at compile time (-1: no family).
template <typename T>
inline constexpr auto kFamilyVariants = [] {
  constexpr int kKinds = static_cast<int>(selfcheck::Kind::kWide) + 1;
  std::array<std::array<std::array<int, 3>, 3>, kKinds> t{};
  for (int k = 0; k < kKinds; ++k)
    for (int a = 0; a < 3; ++a)
      for (int b = 0; b < 3; ++b)
        t[k][a][b] = selfcheck::find_variant(
            static_cast<selfcheck::Kind>(k), kDtype<T>, 128,
            static_cast<selfcheck::Access>(a),
            static_cast<selfcheck::Access>(b));
  return t;
}();

/// Variant id (the quarantine unit) of the `kind` family that reads A and
/// B with these accesses.
template <typename T>
constexpr selfcheck::Variant family_variant(selfcheck::Kind kind, AAccess aa,
                                            BAccess ba) {
  return static_cast<selfcheck::Variant>(
      kFamilyVariants<T>[static_cast<int>(kind)][static_cast<int>(aa)]
                        [static_cast<int>(ba)]);
}

/// Every family the executor dispatches has its list row: full and edge
/// kern_main tiles for each has_main_family pair, and the fused kernels
/// (NN: A and B in place; NT: B^T in place; TN: A^T in place with B in
/// place or packed).
template <typename T>
constexpr bool families_listed() {
  using K = selfcheck::Kind;
  const auto has = [](K k, AAccess a, BAccess b) {
    return static_cast<int>(family_variant<T>(k, a, b)) >= 0;
  };
  for (const AAccess a : {AAccess::kDirect, AAccess::kPacked,
                          AAccess::kDirectTrans})
    for (const BAccess b : {BAccess::kDirect, BAccess::kPacked,
                            BAccess::kDirectTrans})
      if (has_main_family(a, b) &&
          !(has(K::kMain, a, b) && has(K::kEdge, a, b)))
        return false;
  return has(K::kFusedNn, AAccess::kDirect, BAccess::kDirect) &&
         has(K::kFusedNt, AAccess::kDirect, BAccess::kDirectTrans) &&
         has(K::kFusedTn, AAccess::kDirectTrans, BAccess::kDirect) &&
         has(K::kFusedTn, AAccess::kDirectTrans, BAccess::kPacked);
}
static_assert(families_listed<float>() && families_listed<double>(),
              "a dispatched kernel family has no selfcheck variant row");

}  // namespace shalom::ukr
