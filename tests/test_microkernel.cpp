// Direct tests of the micro-kernel layer: every dispatchable tile variant
// (m_eff x n_eff, all access-policy combinations) against a scalar
// reference, plus the fused packing kernels' dual outputs (C tile AND
// packed buffer, the latter compared bit-for-bit against the plain
// packing routines).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/dispatch.h"
#include "core/pack.h"
#include "tests/guard_page.h"

namespace shalom::ukr {
namespace {

constexpr index_t kKc = 37;  // not a lane multiple: exercises the k tail

/// Scalar oracle for one C tile update with the canonical access forms.
template <typename T>
void tile_oracle(AAccess aa, int m, int n, index_t kc, const T* a,
                 index_t lda, const T* b, index_t ldb, T alpha, T beta,
                 Matrix<T>& c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      T sum{};
      for (index_t k = 0; k < kc; ++k) {
        const T av = aa == AAccess::kDirect ? a[i * lda + k] : a[k * lda + i];
        sum += av * b[k * ldb + j];
      }
      c(i, j) = beta == T{0} ? alpha * sum : beta * c(i, j) + alpha * sum;
    }
  }
}

template <typename T>
struct KernelFixture {
  // Direct A: 7 rows x kc (row-major, padded ld); packed A: column sliver.
  Matrix<T> a_direct{kMaxMr, kKc + 3, kKc + 3};
  std::vector<T> a_packed;
  Matrix<T> b_direct{kKc, 16, 16};
  std::vector<T> b_packed;
  int nr_full;

  KernelFixture() {
    constexpr int L = simd::vec_of_t<T>::kLanes;
    nr_full = kMaxNrv * L;
    fill_random(a_direct, 21);
    Matrix<T> b_src(kKc, nr_full);
    fill_random(b_src, 22);
    // Keep direct B consistent with the packed copy.
    for (index_t k = 0; k < kKc; ++k)
      for (int j = 0; j < nr_full; ++j) b_direct(k, j) = b_src(k, j);
    b_packed.assign(pack::b_panel_elems(kKc, nr_full, nr_full) +
                        kPackSlackElems,
                    T{});
    pack::pack_b_n(b_src.data(), b_src.ld(), kKc, nr_full, nr_full,
                   b_packed.data());
    a_packed.assign(pack::a_panel_elems(kMaxMr, kKc, kMaxMr) +
                        kPackSlackElems,
                    T{});
    pack::pack_a_n(a_direct.data(), a_direct.ld(), kMaxMr, kKc, kMaxMr,
                   a_packed.data());
  }
};

template <typename T, AAccess AA, BAccess BA>
void check_all_tiles() {
  constexpr int L = simd::vec_of_t<T>::kLanes;
  KernelFixture<T> fx;
  const T* a = AA == AAccess::kDirect ? fx.a_direct.data()
                                      : fx.a_packed.data();
  const index_t lda =
      AA == AAccess::kDirect ? fx.a_direct.ld() : index_t{kMaxMr};
  const T* b =
      BA == BAccess::kDirect ? fx.b_direct.data() : fx.b_packed.data();
  const index_t ldb = BA == BAccess::kDirect ? fx.b_direct.ld()
                                             : index_t{fx.nr_full};

  for (int m = 1; m <= kMaxMr; ++m) {
    for (int n = 1; n <= kMaxNrv * L; ++n) {
      for (T beta : {T{0}, T{1}, T(0.5)}) {
        Matrix<T> c(kMaxMr, 16), c_ref(kMaxMr, 16);
        fill_random(c, 31);
        c_ref = c;
        const T alpha = T(1.25);
        run_main_tile<T, AA, BA>(m, n, kKc, a, lda, b, ldb, c.data(),
                                 c.ld(), alpha, beta);
        tile_oracle<T>(AA, m, n, kKc, a, lda, b, ldb, alpha, beta, c_ref);
        const double tol = std::is_same_v<T, float> ? 1e-4 : 1e-12;
        for (index_t i = 0; i < kMaxMr; ++i)
          for (index_t j = 0; j < 16; ++j)
            ASSERT_NEAR(c(i, j), c_ref(i, j), tol)
                << "m=" << m << " n=" << n << " beta=" << beta << " at ("
                << i << "," << j << ")";
      }
    }
  }
}

TEST(MainKernel, F32DirectDirect) {
  check_all_tiles<float, AAccess::kDirect, BAccess::kDirect>();
}
TEST(MainKernel, F32DirectPacked) {
  check_all_tiles<float, AAccess::kDirect, BAccess::kPacked>();
}
TEST(MainKernel, F32PackedPacked) {
  check_all_tiles<float, AAccess::kPacked, BAccess::kPacked>();
}
TEST(MainKernel, F32PackedDirect) {
  check_all_tiles<float, AAccess::kPacked, BAccess::kDirect>();
}
TEST(MainKernel, F64DirectDirect) {
  check_all_tiles<double, AAccess::kDirect, BAccess::kDirect>();
}
TEST(MainKernel, F64DirectPacked) {
  check_all_tiles<double, AAccess::kDirect, BAccess::kPacked>();
}
TEST(MainKernel, F64PackedPacked) {
  check_all_tiles<double, AAccess::kPacked, BAccess::kPacked>();
}

TEST(MainKernel, BetaZeroIgnoresNanInC) {
  // BLAS semantics: beta == 0 must not read C (NaN * 0 would poison it).
  KernelFixture<float> fx;
  Matrix<float> c(kMaxMr, 16);
  c.fill(std::numeric_limits<float>::quiet_NaN());
  run_main_tile<float, AAccess::kDirect, BAccess::kDirect>(
      7, 12, kKc, fx.a_direct.data(), fx.a_direct.ld(), fx.b_direct.data(),
      fx.b_direct.ld(), c.data(), c.ld(), 1.f, 0.f);
  for (index_t i = 0; i < 7; ++i)
    for (index_t j = 0; j < 12; ++j) EXPECT_FALSE(std::isnan(c(i, j)));
}

template <typename T>
void check_fused_nn(int n_eff, bool ahead) {
  constexpr int L = simd::vec_of_t<T>::kLanes;
  const int nr_full = kMaxNrv * L;
  Matrix<T> a(kMaxMr, kKc);
  Matrix<T> b(kKc, 2 * nr_full);  // current + next sliver side by side
  fill_random(a, 41);
  fill_random(b, 42);

  std::vector<T> bc(nr_full * kKc + kPackSlackElems, T{-7});
  std::vector<T> bc_next(nr_full * kKc + kPackSlackElems, T{-7});
  Matrix<T> c(kMaxMr, nr_full), c_ref(kMaxMr, nr_full);
  fill_random(c, 43);
  c_ref = c;

  run_fused_pack_nn<T>(/*pack_cur=*/true, ahead, n_eff, kKc, a.data(),
                       a.ld(), b.data(), b.ld(), bc.data(),
                       b.data() + nr_full, b.ld(),
                       ahead ? bc_next.data() : nullptr, c.data(), c.ld(),
                       T(1.5), T(0.5));

  // (1) C stripe matches the scalar oracle.
  tile_oracle<T>(AAccess::kDirect, kMaxMr, n_eff, kKc, a.data(), a.ld(),
                 b.data(), b.ld(), T(1.5), T(0.5), c_ref);
  const double tol = std::is_same_v<T, float> ? 1e-4 : 1e-12;
  for (index_t i = 0; i < kMaxMr; ++i)
    for (int j = 0; j < n_eff; ++j)
      ASSERT_NEAR(c(i, j), c_ref(i, j), tol) << i << "," << j;

  // (2) The packed sliver is bit-identical to the plain packing routine.
  std::vector<T> bc_oracle(nr_full * kKc + kPackSlackElems, T{});
  pack::pack_b_n(b.data(), b.ld(), kKc, n_eff, nr_full, bc_oracle.data());
  for (index_t k = 0; k < kKc; ++k)
    for (int j = 0; j < nr_full; ++j)
      ASSERT_EQ(bc[k * nr_full + j], bc_oracle[k * nr_full + j])
          << "bc k=" << k << " j=" << j << " n_eff=" << n_eff;

  // (3) With pack-ahead, the next (full) sliver is packed too.
  if (ahead) {
    std::vector<T> next_oracle(nr_full * kKc + kPackSlackElems, T{});
    pack::pack_b_n(b.data() + nr_full, b.ld(), kKc, nr_full, nr_full,
                   next_oracle.data());
    for (index_t k = 0; k < kKc; ++k)
      for (int j = 0; j < nr_full; ++j)
        ASSERT_EQ(bc_next[k * nr_full + j], next_oracle[k * nr_full + j])
            << "bc_next k=" << k << " j=" << j;
  }
}

TEST(FusedPackNN, AllWidthsF32) {
  for (int n_eff = 1; n_eff <= 12; ++n_eff) {
    check_fused_nn<float>(n_eff, false);
    check_fused_nn<float>(n_eff, true);
  }
}

TEST(FusedPackNN, AllWidthsF64) {
  for (int n_eff = 1; n_eff <= 6; ++n_eff) {
    check_fused_nn<double>(n_eff, false);
    check_fused_nn<double>(n_eff, true);
  }
}

TEST(FusedPackNN, ReadsPackedCurrentSliver) {
  // PackCur = false: b points at an already-packed sliver.
  constexpr int nr_full = 12;
  Matrix<float> a(kMaxMr, kKc);
  Matrix<float> b(kKc, nr_full);
  fill_random(a, 51);
  fill_random(b, 52);
  std::vector<float> bc(nr_full * kKc + kPackSlackElems);
  pack::pack_b_n(b.data(), b.ld(), kKc, nr_full, nr_full, bc.data());

  Matrix<float> c(kMaxMr, nr_full), c_ref(kMaxMr, nr_full);
  run_fused_pack_nn<float>(/*pack_cur=*/false, false, nr_full, kKc,
                           a.data(), a.ld(), bc.data(), nr_full, nullptr,
                           nullptr, 0, nullptr, c.data(), c.ld(), 1.f, 0.f);
  tile_oracle<float>(AAccess::kDirect, kMaxMr, nr_full, kKc, a.data(),
                     a.ld(), b.data(), b.ld(), 1.f, 0.f, c_ref);
  for (index_t i = 0; i < kMaxMr; ++i)
    for (int j = 0; j < nr_full; ++j)
      ASSERT_NEAR(c(i, j), c_ref(i, j), 1e-4f);
}

TEST(FusedPackNT, ComputesAndScatters) {
  constexpr int nr_full = 12;
  Matrix<float> a(kMaxMr, kKc);
  Matrix<float> b(nr_full, kKc);  // op(B) columns = B storage rows
  fill_random(a, 61);
  fill_random(b, 62);

  std::vector<float> bc(nr_full * kKc + kPackSlackElems, 0.f);
  Matrix<float> c(kMaxMr, nr_full), c_ref(kMaxMr, nr_full);
  fill_random(c, 63);
  c_ref = c;

  for (int jb = 0; jb < nr_full; jb += 3)
    run_fused_pack_nt<float>(3, kKc, a.data(), a.ld(), b.data(), b.ld(),
                             bc.data(), jb, nr_full,
                             /*store_full=*/jb + 3 < nr_full, c.data(),
                             c.ld(), 2.f, 1.f);

  // C oracle: inner product over op(B) = B^T.
  for (index_t i = 0; i < kMaxMr; ++i) {
    for (int j = 0; j < nr_full; ++j) {
      float sum = 0.f;
      for (index_t k = 0; k < kKc; ++k) sum += a(i, k) * b(j, k);
      c_ref(i, j) = c_ref(i, j) + 2.f * sum;
    }
  }
  for (index_t i = 0; i < kMaxMr; ++i)
    for (int j = 0; j < nr_full; ++j)
      ASSERT_NEAR(c(i, j), c_ref(i, j), 1e-3f) << i << "," << j;

  // Bc oracle: identical to the plain transpose-pack.
  std::vector<float> bc_oracle(nr_full * kKc + kPackSlackElems, 0.f);
  pack::pack_b_t(b.data(), b.ld(), kKc, nr_full, nr_full,
                 bc_oracle.data());
  for (index_t k = 0; k < kKc; ++k)
    for (int j = 0; j < nr_full; ++j)
      ASSERT_EQ(bc[k * nr_full + j], bc_oracle[k * nr_full + j])
          << "k=" << k << " j=" << j;
}

TEST(FusedPackNT, PartialColumnGroups) {
  // JB = 1 and 2 groups (sliver edge widths).
  constexpr int nr_full = 12;
  Matrix<float> a(kMaxMr, kKc);
  Matrix<float> b(nr_full, kKc);
  fill_random(a, 71);
  fill_random(b, 72);
  for (int width : {1, 2, 4, 5}) {
    std::vector<float> bc(nr_full * kKc + kPackSlackElems, 0.f);
    Matrix<float> c(kMaxMr, nr_full);
    for (int jb = 0; jb < width; jb += 3) {
      const int w = std::min(3, width - jb);
      run_fused_pack_nt<float>(w, kKc, a.data(), a.ld(), b.data(), b.ld(),
                               bc.data(), jb, nr_full,
                               /*store_full=*/jb + w < width, c.data(),
                               c.ld(), 1.f, 0.f);
    }
    for (index_t i = 0; i < kMaxMr; ++i) {
      for (int j = 0; j < width; ++j) {
        float sum = 0.f;
        for (index_t k = 0; k < kKc; ++k) sum += a(i, k) * b(j, k);
        ASSERT_NEAR(c(i, j), sum, 1e-3f) << "width=" << width;
      }
    }
  }
}

TEST(MainKernel, DirectTransAccess) {
  // a(i,k) = a[k*lda + i]: the TN/TT in-place path with overlapping
  // column loads. Compare against the packed-A oracle formula.
  constexpr index_t lda = kMaxMr + 5;  // extra rows below the stripe
  Matrix<float> a(kKc, lda);
  Matrix<float> b(kKc, 16);
  fill_random(a, 91);
  fill_random(b, 92);
  for (int m = 1; m <= kMaxMr; ++m) {
    for (int n : {1, 5, 8, 12}) {
      Matrix<float> c(kMaxMr, 16), c_ref(kMaxMr, 16);
      fill_random(c, 93);
      c_ref = c;
      run_main_tile<float, AAccess::kDirectTrans, BAccess::kDirect>(
          m, n, kKc, a.data(), a.ld(), b.data(), b.ld(), c.data(), c.ld(),
          1.5f, 0.5f);
      tile_oracle<float>(AAccess::kPacked, m, n, kKc, a.data(), a.ld(),
                         b.data(), b.ld(), 1.5f, 0.5f, c_ref);
      for (index_t i = 0; i < m; ++i)
        for (index_t j = 0; j < n; ++j)
          ASSERT_NEAR(c(i, j), c_ref(i, j), 1e-4f)
              << "m=" << m << " n=" << n << " (" << i << "," << j << ")";
    }
  }
}

TEST(FusedPackTN, ComputesAndPacksAc) {
  // One full stripe: C tile matches the oracle AND Ac matches pack_a_t.
  constexpr index_t lda = kMaxMr;  // stripe exactly fills the rows
  Matrix<float> a(kKc, lda);       // transposed storage: K x M
  Matrix<float> b(kKc, 16);
  fill_random(a, 94);
  fill_random(b, 95);
  for (int n : {3, 8, 12}) {
    std::vector<float> ac(kMaxMr * kKc + kPackSlackElems, -5.f);
    Matrix<float> c(kMaxMr, 16), c_ref(kMaxMr, 16);
    fill_random(c, 96);
    c_ref = c;
    run_fused_pack_tn<float>(/*b_packed=*/false, n, kKc, a.data(), a.ld(),
                             ac.data(), b.data(), b.ld(), c.data(), c.ld(),
                             2.f, 1.f);
    tile_oracle<float>(AAccess::kPacked, kMaxMr, n, kKc, a.data(), a.ld(),
                       b.data(), b.ld(), 2.f, 1.f, c_ref);
    for (index_t i = 0; i < kMaxMr; ++i)
      for (int j = 0; j < n; ++j)
        ASSERT_NEAR(c(i, j), c_ref(i, j), 1e-4f) << i << "," << j;

    std::vector<float> ac_oracle(kMaxMr * kKc + kPackSlackElems, 0.f);
    pack::pack_a_t(a.data(), a.ld(), kMaxMr, kKc, kMaxMr,
                   ac_oracle.data());
    for (index_t k = 0; k < kKc; ++k)
      for (int i = 0; i < kMaxMr; ++i)
        ASSERT_EQ(ac[k * kMaxMr + i], ac_oracle[k * kMaxMr + i])
            << "k=" << k << " i=" << i;
  }
}

// N-remainder tiles whose operands end exactly at a PROT_NONE page: the
// last B row and the last C row of every NTail width reach the guard with
// their last real element, so a partial load or store touching a lane past
// the edge faults. ASan does not instrument the masked intrinsics behind
// load_partial / store_partial; this test is the out-of-bounds evidence
// for kern_main (direct B), its fused-NN pack hook, and the TN path's
// partial column load (m < lanes, transposed A ending at the guard).
template <typename T>
void check_tails_at_guard_page() {
  constexpr int L = simd::vec_of_t<T>::kLanes;
  const int nr_full = kMaxNrv * L;
  Matrix<T> a(kMaxMr, kKc);
  fill_random(a, 71);
  testing::GuardedPages b_page, c_page, at_page;
  const double tol = std::is_same_v<T, float> ? 1e-4 : 1e-12;

  for (int n = 1; n < nr_full; ++n) {
    if (n % L == 0) continue;  // full-vector widths have no partial access
    T* b = b_page.ending_at_guard<T>(kKc * n);  // ldb = n: B ends at guard
    for (index_t i = 0; i < kKc * n; ++i) b[i] = T((i * 7) % 13) / T(8);
    for (T beta : {T{0}, T(0.5)}) {
      for (int kind = 0; kind < 3; ++kind) {
        const int m = kind == 2 ? L - 1 : kMaxMr;
        T* c = c_page.ending_at_guard<T>(m * n);  // ldc = n
        Matrix<T> c_ref(m, n);
        for (int i = 0; i < m; ++i)
          for (int j = 0; j < n; ++j)
            c_ref(i, j) = c[i * n + j] = T(i - j) / T(4);
        if (kind == 0) {
          run_main_tile<T, AAccess::kDirect, BAccess::kDirect>(
              m, n, kKc, a.data(), a.ld(), b, n, c, n, T(1.25), beta);
          tile_oracle<T>(AAccess::kDirect, m, n, kKc, a.data(), a.ld(), b,
                         n, T(1.25), beta, c_ref);
        } else if (kind == 1) {
          std::vector<T> bc(nr_full * kKc + kPackSlackElems);
          run_fused_pack_nn<T>(/*pack_cur=*/true, /*ahead=*/false, n, kKc,
                               a.data(), a.ld(), b, n, bc.data(), nullptr,
                               0, nullptr, c, n, T(1.25), beta);
          tile_oracle<T>(AAccess::kDirect, m, n, kKc, a.data(), a.ld(), b,
                         n, T(1.25), beta, c_ref);
        } else {
          T* at = at_page.ending_at_guard<T>(kKc * m);  // K x m, lda = m
          for (index_t k = 0; k < kKc; ++k)
            for (int i = 0; i < m; ++i) at[k * m + i] = a(i, k);
          run_main_tile<T, AAccess::kDirectTrans, BAccess::kDirect>(
              m, n, kKc, at, m, b, n, c, n, T(1.25), beta);
          tile_oracle<T>(AAccess::kPacked, m, n, kKc, at, m, b, n, T(1.25),
                         beta, c_ref);
        }
        for (int i = 0; i < m; ++i)
          for (int j = 0; j < n; ++j)
            ASSERT_NEAR(c[i * n + j], c_ref(i, j), tol)
                << "kind=" << kind << " n=" << n << " beta=" << beta
                << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(MainKernel, F32TailsAtGuardPage) { check_tails_at_guard_page<float>(); }
TEST(MainKernel, F64TailsAtGuardPage) { check_tails_at_guard_page<double>(); }

// A pack hook changes what kern_main stores besides C, never C itself:
// the fused NN tile must equal the direct-direct tile and the fused TN
// tile the trans-direct tile, bit for bit, for every n_eff and for kc on
// both sides of the k-unroll boundary (DESIGN.md's NN/TN bitwise promise,
// checked at the kernel the fused paths run).
template <typename T>
bool bitwise_equal(const Matrix<T>& x, const Matrix<T>& y) {
  const auto elems = static_cast<std::size_t>(x.rows() * x.ld());
  return std::memcmp(x.data(), y.data(), sizeof(T) * elems) == 0;
}

template <typename T>
void check_pack_hooks_bitwise(bool trans_a) {
  constexpr int L = simd::vec_of_t<T>::kLanes;
  constexpr int nr_full = kMaxNrv * L;
  for (const index_t kc : {index_t{1}, index_t{L - 1}, index_t{L},
                           index_t{L + 1}, index_t{4 * L + 3}}) {
    Matrix<T> a(kMaxMr, kc), at(kc, kMaxMr);
    Matrix<T> b(kc, 2 * nr_full);  // current + next sliver side by side
    fill_random(a, 101);
    fill_random(b, 102);
    for (index_t k = 0; k < kc; ++k)
      for (int i = 0; i < kMaxMr; ++i) at(k, i) = a(i, k);
    std::vector<T> b_packed(nr_full * kc + kPackSlackElems, T{});
    pack::pack_b_n(b.data(), b.ld(), kc, nr_full, nr_full, b_packed.data());
    // Bc (kc x nr_full) or Ac (kc x kMaxMr), whichever is larger.
    std::vector<T> side(std::max(nr_full, kMaxMr) * kc + kPackSlackElems);
    std::vector<T> side_next(nr_full * kc + kPackSlackElems);

    for (int n = 1; n <= nr_full; ++n) {
      for (const T beta : {T{0}, T(0.5)}) {
        SCOPED_TRACE(::testing::Message() << "kc=" << kc << " n_eff=" << n
                                          << " beta=" << beta);
        Matrix<T> want(kMaxMr, nr_full), got(kMaxMr, nr_full);
        fill_random(want, 103);
        const Matrix<T> c0 = want;
        const T alpha = T(1.25);
        if (trans_a) {
          run_main_tile<T, AAccess::kDirectTrans, BAccess::kDirect>(
              kMaxMr, n, kc, at.data(), at.ld(), b.data(), b.ld(),
              want.data(), want.ld(), alpha, beta);
          for (const bool b_pk : {false, true}) {
            got = c0;
            run_fused_pack_tn<T>(b_pk, n, kc, at.data(), at.ld(), side.data(),
                                 b_pk ? b_packed.data() : b.data(),
                                 b_pk ? nr_full : b.ld(), got.data(),
                                 got.ld(), alpha, beta);
            EXPECT_TRUE(bitwise_equal(got, want)) << "b_packed=" << b_pk;
          }
        } else {
          run_main_tile<T, AAccess::kDirect, BAccess::kDirect>(
              kMaxMr, n, kc, a.data(), a.ld(), b.data(), b.ld(), want.data(),
              want.ld(), alpha, beta);
          for (const bool ahead : {false, true}) {
            got = c0;
            run_fused_pack_nn<T>(true, ahead, n, kc, a.data(), a.ld(),
                                 b.data(), b.ld(), side.data(),
                                 b.data() + nr_full, b.ld(),
                                 side_next.data(), got.data(), got.ld(),
                                 alpha, beta);
            EXPECT_TRUE(bitwise_equal(got, want)) << "ahead=" << ahead;
          }
          if (n == nr_full) {  // the t = 1 steady state reads packed B
            got = c0;
            run_fused_pack_nn<T>(false, true, n, kc, a.data(), a.ld(),
                                 b_packed.data(), nr_full, nullptr,
                                 b.data() + nr_full, b.ld(),
                                 side_next.data(), got.data(), got.ld(),
                                 alpha, beta);
            EXPECT_TRUE(bitwise_equal(got, want)) << "packed current sliver";
          }
        }
      }
    }
  }
}

TEST(PackHook, FusedNnTilesBitwiseEqualMainKernel) {
  check_pack_hooks_bitwise<float>(false);
  check_pack_hooks_bitwise<double>(false);
}

TEST(PackHook, FusedTnTilesBitwiseEqualMainKernel) {
  check_pack_hooks_bitwise<float>(true);
  check_pack_hooks_bitwise<double>(true);
}

TEST(ScalarKernel, MatchesOracle) {
  KernelFixture<float> fx;
  Matrix<float> c(kMaxMr, 16), c_ref(kMaxMr, 16);
  fill_random(c, 81);
  c_ref = c;
  kern_scalar<float, AAccess::kDirect, BAccess::kDirect>(
      5, 9, kKc, fx.a_direct.data(), fx.a_direct.ld(), fx.b_direct.data(),
      fx.b_direct.ld(), c.data(), c.ld(), 1.5f, 0.25f);
  tile_oracle<float>(AAccess::kDirect, 5, 9, kKc, fx.a_direct.data(),
                     fx.a_direct.ld(), fx.b_direct.data(),
                     fx.b_direct.ld(), 1.5f, 0.25f, c_ref);
  for (index_t i = 0; i < 5; ++i)
    for (index_t j = 0; j < 9; ++j)
      EXPECT_NEAR(c(i, j), c_ref(i, j), 1e-4f);
}

}  // namespace
}  // namespace shalom::ukr
