// Kernel self-verification probes (see selfcheck.h for the contract).
//
// Each probe exercises one kernel family on small deterministic inputs
// laid out exactly as the dispatch layer lays them out (direct storage
// with sentinel-filled padding that must never be read, packed slivers
// with the zero-padding the layout contract requires, NaN-filled C with
// beta == 0 to prove the kernel never reads C), and compares against a
// high-precision scalar reference. Padding/canary violations fail the
// probe just like wrong arithmetic: an out-of-bounds kernel is as
// disqualified as an inaccurate one.
//
// Layering note: this file lives in shalom_common, which does NOT link
// shalom_core. It may only instantiate header-only templates
// (core/dispatch.h kernels, core/widegemm.h's wide_tile); referencing any
// symbol compiled into shalom_core (pack.cpp, model.cpp) would break the
// link.

#include "common/selfcheck.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "common/guard.h"
#include "common/rng.h"
#include "core/dispatch.h"
#include "core/widegemm.h"

namespace shalom {

namespace {

/// Case-insensitive ASCII string equality for env-value keywords.
bool env_ieq(const char* a, const char* b) noexcept {
  for (; *a != '\0' && *b != '\0'; ++a, ++b) {
    if (std::tolower(static_cast<unsigned char>(*a)) !=
        std::tolower(static_cast<unsigned char>(*b)))
      return false;
  }
  return *a == *b;
}

}  // namespace

namespace selfcheck {
namespace {

// ---------------------------------------------------------------------------
// Deterministic probe data
// ---------------------------------------------------------------------------

template <typename T>
struct ProbeEps;
template <>
struct ProbeEps<float> {
  static constexpr double value = 1e-6;
};
template <>
struct ProbeEps<double> {
  static constexpr double value = 1e-14;
};

/// Absolute tolerance for probe values in [-1, 1): generous enough for
/// any FMA/reassociation scheme, tight enough that a wrong lane mapping
/// (the realistic miscompile) fails by orders of magnitude.
template <typename T>
double probe_tol(index_t kc) {
  return (static_cast<double>(kc) + 16.0) * 8.0 * ProbeEps<T>::value;
}

/// Deterministic pseudo-random value in [-1, 1); every (salt, i, j) maps
/// to one fixed bit pattern so failures reproduce across runs and threads.
template <typename T>
T pv(std::uint64_t salt, index_t i, index_t j) {
  SplitMix64 rng(salt ^
                 (static_cast<std::uint64_t>(i + 1) * 0x9E3779B97F4A7C15ull) ^
                 (static_cast<std::uint64_t>(j + 7) * 0xBF58476D1CE4E5B9ull));
  return static_cast<T>(rng.next_unit() * 2.0 - 1.0);
}

/// Fills slots a correct kernel must never read or write; exactly
/// representable in float so canary comparisons are bitwise.
template <typename T>
constexpr T kSentinel = static_cast<T>(1048576);

struct AlphaBeta {
  double alpha;
  double beta;
  bool nan_c;  // pre-fill the C tile with NaN (only valid when beta == 0)
};

/// Verifies a probed C buffer: the m_eff x n_eff tile matches `ref(i, j)`
/// within `tol`, every other slot (column padding, untouched rows) still
/// holds the sentinel canary.
template <typename T, typename RefFn>
bool check_c(const std::vector<T>& c, index_t ldc, int rows_alloc, int m_eff,
             int n_eff, double tol, RefFn ref) {
  for (int i = 0; i < rows_alloc; ++i) {
    for (index_t j = 0; j < ldc; ++j) {
      const T got = c[static_cast<std::size_t>(i) * ldc + j];
      if (i < m_eff && j < n_eff) {
        const double g = static_cast<double>(got);
        if (!std::isfinite(g) ||
            std::abs(g - ref(i, static_cast<int>(j))) > tol)
          return false;
      } else if (got != kSentinel<T>) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Main / edge kernel family probes
// ---------------------------------------------------------------------------

/// Probes the kern_main family for one (A access, B access) combination.
/// edges = false probes only the full (mr, nr) tile; edges = true probes
/// every remainder tile (the Fig. 6b edge instantiations).
template <typename T, ukr::AAccess AA, ukr::BAccess BA>
bool probe_main_family(bool edges) {
  using V = simd::vec_of_t<T>;
  constexpr int L = V::kLanes;
  constexpr int mr = ukr::kMaxMr;
  constexpr int nr = ukr::kMaxNrv * L;
  const T nan = std::numeric_limits<T>::quiet_NaN();

  const index_t kcs[4] = {1, 3, L, 2 * L + 1};
  const AlphaBeta cases[3] = {
      {1.0, 0.0, true}, {-0.5, 0.75, false}, {1.25, 1.0, false}};

  for (index_t kc : kcs) {
    const double tol = probe_tol<T>(kc);
    for (int m_eff = 1; m_eff <= mr; ++m_eff) {
      for (int n_eff = 1; n_eff <= nr; ++n_eff) {
        const bool full = (m_eff == mr && n_eff == nr);
        if (edges ? full : !full) continue;

        // A storage, mirroring the layout each access mode dispatches on.
        index_t lda;
        std::vector<T> abuf;
        if constexpr (AA == ukr::AAccess::kDirect) {
          // Row-major in place; ld padding is sentinel (never read).
          lda = kc + 2;
          abuf.assign(static_cast<std::size_t>(m_eff) * lda, kSentinel<T>);
          for (int i = 0; i < m_eff; ++i)
            for (index_t k = 0; k < kc; ++k)
              abuf[i * lda + k] = pv<T>(1, i, k);
        } else if constexpr (AA == ukr::AAccess::kPacked) {
          // Column slivers of stride mr: rows past m_eff are zero BY
          // CONTRACT (the packer writes them), plus tail slack.
          lda = mr;
          abuf.assign(static_cast<std::size_t>(kc) * mr +
                          ukr::kPackSlackElems,
                      T{0});
          for (index_t k = 0; k < kc; ++k)
            for (int i = 0; i < m_eff; ++i) abuf[k * mr + i] = pv<T>(1, i, k);
        } else {  // kDirectTrans: transposed in place, contiguous columns.
          lda = mr + 1;
          abuf.assign(static_cast<std::size_t>(kc) * lda, kSentinel<T>);
          for (index_t k = 0; k < kc; ++k)
            for (int i = 0; i < m_eff; ++i) abuf[k * lda + i] = pv<T>(1, i, k);
        }

        index_t ldb;
        std::vector<T> bbuf;
        if constexpr (BA == ukr::BAccess::kDirect) {
          ldb = nr + 3;
          bbuf.assign(static_cast<std::size_t>(kc) * ldb, kSentinel<T>);
          for (index_t k = 0; k < kc; ++k)
            for (int j = 0; j < n_eff; ++j) bbuf[k * ldb + j] = pv<T>(2, k, j);
        } else {
          // Row slivers of stride nr, zero-padded past the edge.
          ldb = nr;
          bbuf.assign(static_cast<std::size_t>(kc) * nr, T{0});
          for (index_t k = 0; k < kc; ++k)
            for (int j = 0; j < n_eff; ++j) bbuf[k * nr + j] = pv<T>(2, k, j);
        }

        for (const AlphaBeta& cs : cases) {
          const index_t ldc = nr + 3;
          std::vector<T> cbuf(static_cast<std::size_t>(mr) * ldc,
                              kSentinel<T>);
          for (int i = 0; i < m_eff; ++i)
            for (int j = 0; j < n_eff; ++j)
              cbuf[i * ldc + j] =
                  cs.nan_c ? nan : pv<T>(3, i, j);

          ukr::run_main_tile<T, AA, BA>(
              m_eff, n_eff, kc, abuf.data(), lda, bbuf.data(), ldb,
              cbuf.data(), ldc, static_cast<T>(cs.alpha),
              static_cast<T>(cs.beta));

          const auto ref = [&](int i, int j) {
            double sum = 0.0;
            for (index_t k = 0; k < kc; ++k)
              sum += static_cast<double>(pv<T>(1, i, k)) *
                     static_cast<double>(pv<T>(2, k, j));
            double r = cs.alpha * sum;
            if (cs.beta != 0.0)
              r += cs.beta * static_cast<double>(pv<T>(3, i, j));
            return r;
          };
          if (!check_c(cbuf, ldc, mr, m_eff, n_eff, tol, ref)) return false;
        }
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Fused NN pack-and-compute probe (Algorithm 1 / Fig. 4)
// ---------------------------------------------------------------------------

template <typename T>
bool probe_fused_nn() {
  using V = simd::vec_of_t<T>;
  constexpr int L = V::kLanes;
  constexpr int mr = ukr::kMaxMr;
  constexpr int nr = ukr::kNrFull<T>;
  const T nan = std::numeric_limits<T>::quiet_NaN();

  struct Cfg {
    bool pack_cur, ahead;
    int n_eff;
  };
  const index_t kcs[3] = {3, 2 * L + 1, 4 * L};
  const AlphaBeta cases[2] = {{1.0, 0.0, true}, {-0.5, 0.75, false}};

  for (index_t kc : kcs) {
    const double tol = probe_tol<T>(kc);
    const Cfg cfgs[5] = {{true, false, nr},
                         {true, false, nr - 1},
                         {true, false, 1},
                         {true, true, nr},
                         {false, false, nr}};
    for (const Cfg& cfg : cfgs) {
      const int n_eff = cfg.n_eff;

      const index_t lda = kc + 1;
      std::vector<T> abuf(static_cast<std::size_t>(mr) * lda, kSentinel<T>);
      for (int i = 0; i < mr; ++i)
        for (index_t k = 0; k < kc; ++k) abuf[i * lda + k] = pv<T>(11, i, k);

      // B source: either in-place rows holding the current sliver at
      // column 0 and (when packing ahead) the full-width next sliver at
      // column nr, or - the t = 1 steady state - the already-packed
      // current sliver itself.
      index_t ldb;
      std::vector<T> bbuf;
      const T* bptr;
      const T* bnext = nullptr;
      index_t ldb_next = 0;
      if (cfg.pack_cur) {
        ldb = 2 * nr + 1;
        bbuf.assign(static_cast<std::size_t>(kc) * ldb, kSentinel<T>);
        for (index_t k = 0; k < kc; ++k) {
          for (int j = 0; j < n_eff; ++j) bbuf[k * ldb + j] = pv<T>(12, k, j);
          if (cfg.ahead)
            for (int j = 0; j < nr; ++j)
              bbuf[k * ldb + nr + j] = pv<T>(13, k, j);
        }
        bptr = bbuf.data();
        if (cfg.ahead) {
          bnext = bbuf.data() + nr;
          ldb_next = ldb;
        }
      } else {
        ldb = nr;
        bbuf.assign(static_cast<std::size_t>(kc) * nr, T{0});
        for (index_t k = 0; k < kc; ++k)
          for (int j = 0; j < n_eff; ++j) bbuf[k * nr + j] = pv<T>(12, k, j);
        bptr = bbuf.data();
      }

      std::vector<T> bc(static_cast<std::size_t>(kc) * nr, kSentinel<T>);
      std::vector<T> bc_next(static_cast<std::size_t>(kc) * nr,
                             kSentinel<T>);

      for (const AlphaBeta& cs : cases) {
        if (cfg.pack_cur) std::fill(bc.begin(), bc.end(), kSentinel<T>);
        if (cfg.ahead)
          std::fill(bc_next.begin(), bc_next.end(), kSentinel<T>);

        const index_t ldc = nr + 2;
        std::vector<T> cbuf(static_cast<std::size_t>(mr) * ldc,
                            kSentinel<T>);
        for (int i = 0; i < mr; ++i)
          for (int j = 0; j < n_eff; ++j)
            cbuf[i * ldc + j] = cs.nan_c ? nan : pv<T>(3, i, j);

        ukr::run_fused_pack_nn<T>(
            cfg.pack_cur, cfg.ahead, n_eff, kc, abuf.data(), lda, bptr, ldb,
            bc.data(), bnext, ldb_next, bc_next.data(), cbuf.data(), ldc,
            static_cast<T>(cs.alpha), static_cast<T>(cs.beta));

        const auto ref = [&](int i, int j) {
          double sum = 0.0;
          for (index_t k = 0; k < kc; ++k)
            sum += static_cast<double>(pv<T>(11, i, k)) *
                   static_cast<double>(pv<T>(12, k, j));
          double r = cs.alpha * sum;
          if (cs.beta != 0.0)
            r += cs.beta * static_cast<double>(pv<T>(3, i, j));
          return r;
        };
        if (!check_c(cbuf, ldc, mr, mr, n_eff, tol, ref)) return false;

        // Pack output is a bitwise copy, zero-padded to the full sliver
        // width (downstream packed-B kernels rely on the zeros).
        if (cfg.pack_cur) {
          for (index_t k = 0; k < kc; ++k)
            for (int j = 0; j < nr; ++j) {
              const T want = j < n_eff ? pv<T>(12, k, j) : T{0};
              if (bc[k * nr + j] != want) return false;
            }
        }
        if (cfg.ahead) {
          for (index_t k = 0; k < kc; ++k)
            for (int j = 0; j < nr; ++j)
              if (bc_next[k * nr + j] != pv<T>(13, k, j)) return false;
        }
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Fused TN/TT pack-A probe (Section 4.3)
// ---------------------------------------------------------------------------

template <typename T>
bool probe_fused_tn() {
  using V = simd::vec_of_t<T>;
  constexpr int L = V::kLanes;
  constexpr int mr = ukr::kMaxMr;
  constexpr int nr = ukr::kMaxNrv * L;
  const T nan = std::numeric_limits<T>::quiet_NaN();

  const index_t kcs[3] = {1, 2, L + 1};
  const int n_effs[4] = {nr, nr - 1, 3, 1};
  const AlphaBeta cases[2] = {{1.0, 0.0, true}, {1.25, 1.0, false}};

  for (int bp = 0; bp < 2; ++bp) {
    const bool b_packed = bp != 0;
    for (index_t kc : kcs) {
      const double tol = probe_tol<T>(kc);
      for (int n_eff : n_effs) {
        // Transposed-in-place A: op(A) column k is the contiguous run
        // a[k*lda .. k*lda+mr); the slot at index mr is sentinel.
        const index_t lda = mr + 1;
        std::vector<T> abuf(static_cast<std::size_t>(kc) * lda,
                            kSentinel<T>);
        for (index_t k = 0; k < kc; ++k)
          for (int i = 0; i < mr; ++i) abuf[k * lda + i] = pv<T>(21, i, k);

        index_t ldb;
        std::vector<T> bbuf;
        if (b_packed) {
          ldb = nr;
          bbuf.assign(static_cast<std::size_t>(kc) * nr, T{0});
        } else {
          ldb = nr + 2;
          bbuf.assign(static_cast<std::size_t>(kc) * ldb, kSentinel<T>);
        }
        for (index_t k = 0; k < kc; ++k)
          for (int j = 0; j < n_eff; ++j) bbuf[k * ldb + j] = pv<T>(22, k, j);

        for (const AlphaBeta& cs : cases) {
          std::vector<T> ac(static_cast<std::size_t>(kc) * mr +
                                ukr::kPackSlackElems,
                            kSentinel<T>);
          const index_t ldc = nr + 2;
          std::vector<T> cbuf(static_cast<std::size_t>(mr) * ldc,
                              kSentinel<T>);
          for (int i = 0; i < mr; ++i)
            for (int j = 0; j < n_eff; ++j)
              cbuf[i * ldc + j] = cs.nan_c ? nan : pv<T>(3, i, j);

          ukr::run_fused_pack_tn<T>(b_packed, n_eff, kc, abuf.data(), lda,
                                    ac.data(), bbuf.data(), ldb,
                                    cbuf.data(), ldc,
                                    static_cast<T>(cs.alpha),
                                    static_cast<T>(cs.beta));

          const auto ref = [&](int i, int j) {
            double sum = 0.0;
            for (index_t k = 0; k < kc; ++k)
              sum += static_cast<double>(pv<T>(21, i, k)) *
                     static_cast<double>(pv<T>(22, k, j));
            double r = cs.alpha * sum;
            if (cs.beta != 0.0)
              r += cs.beta * static_cast<double>(pv<T>(3, i, j));
            return r;
          };
          if (!check_c(cbuf, ldc, mr, mr, n_eff, tol, ref)) return false;

          // Ac must hold the bitwise-exact packed columns; the tail slack
          // must stay untouched.
          for (index_t k = 0; k < kc; ++k)
            for (int i = 0; i < mr; ++i)
              if (ac[k * mr + i] != pv<T>(21, i, k)) return false;
          for (index_t s = kc * mr; s < static_cast<index_t>(ac.size()); ++s)
            if (ac[s] != kSentinel<T>) return false;
        }
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Fused NT inner-product probe (Algorithm 3 / Fig. 5)
// ---------------------------------------------------------------------------

template <typename T>
bool probe_fused_nt() {
  using V = simd::vec_of_t<T>;
  constexpr int L = V::kLanes;
  constexpr int mr = ukr::kMaxMr;
  constexpr int nr = ukr::kMaxNrv * L;
  const T nan = std::numeric_limits<T>::quiet_NaN();

  const index_t kcs[3] = {L, 2 * L + 3, 35};
  const int n_effs[4] = {nr, nr - 1, 4, 1};
  const AlphaBeta cases[2] = {{1.0, 0.0, true}, {-0.5, 0.75, false}};

  for (index_t kc : kcs) {
    const double tol = probe_tol<T>(kc);
    for (int n_eff : n_effs) {
      const index_t lda = kc + 1;
      std::vector<T> abuf(static_cast<std::size_t>(mr) * lda, kSentinel<T>);
      for (int i = 0; i < mr; ++i)
        for (index_t k = 0; k < kc; ++k) abuf[i * lda + k] = pv<T>(31, i, k);

      // B stored transposed: op(B)(k, j) lives at bt[j*ldb + k].
      const index_t ldb = kc + 1;
      std::vector<T> bt(static_cast<std::size_t>(n_eff) * ldb, kSentinel<T>);
      for (int j = 0; j < n_eff; ++j)
        for (index_t k = 0; k < kc; ++k) bt[j * ldb + k] = pv<T>(32, k, j);

      for (const AlphaBeta& cs : cases) {
        // The driver pre-zeroes the sliver tail for edge slivers; full
        // slivers are written end to end, so sentinel catches gaps.
        std::vector<T> bc(static_cast<std::size_t>(kc) * nr,
                          n_eff < nr ? T{0} : kSentinel<T>);
        const index_t ldc = nr + 2;
        std::vector<T> cbuf(static_cast<std::size_t>(mr) * ldc,
                            kSentinel<T>);
        for (int i = 0; i < mr; ++i)
          for (int j = 0; j < n_eff; ++j)
            cbuf[i * ldc + j] = cs.nan_c ? nan : pv<T>(3, i, j);

        // Replicate the driver's column-group loop over one sliver.
        for (int jofs = 0; jofs < n_eff; jofs += 3) {
          const int w = std::min(3, n_eff - jofs);
          const bool store_full = jofs + w < n_eff;
          ukr::run_fused_pack_nt<T>(w, kc, abuf.data(), lda, bt.data(), ldb,
                                    bc.data(), jofs, nr, store_full,
                                    cbuf.data(), ldc,
                                    static_cast<T>(cs.alpha),
                                    static_cast<T>(cs.beta));
        }

        const auto ref = [&](int i, int j) {
          double sum = 0.0;
          for (index_t k = 0; k < kc; ++k)
            sum += static_cast<double>(pv<T>(31, i, k)) *
                   static_cast<double>(pv<T>(32, k, j));
          double r = cs.alpha * sum;
          if (cs.beta != 0.0)
            r += cs.beta * static_cast<double>(pv<T>(3, i, j));
          return r;
        };
        if (!check_c(cbuf, ldc, mr, mr, n_eff, tol, ref)) return false;

        // The scatter must reproduce B^T bitwise, zero-padded at the edge.
        for (index_t k = 0; k < kc; ++k)
          for (int j = 0; j < nr; ++j) {
            const T want = j < n_eff ? pv<T>(32, k, j) : T{0};
            if (bc[k * nr + j] != want) return false;
          }
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Wide-vector tile probe (Section 5.5)
// ---------------------------------------------------------------------------

template <int Bits>
bool probe_wide() {
  constexpr int kMr = wide::WideTile<Bits>::kMr;
  constexpr int kLanes = Bits / 32;
  constexpr int kNr = wide::WideTile<Bits>::kNrv * kLanes;
  const float nan = std::numeric_limits<float>::quiet_NaN();

  const index_t kcs[3] = {1, 5, 17};
  struct MN {
    int m, n;
  };
  const MN mns[3] = {{kMr, kNr}, {kMr - 2, kNr - 3}, {1, 1}};
  const AlphaBeta cases[2] = {{1.0, 0.0, true}, {-0.5, 0.75, false}};

  for (index_t kc : kcs) {
    const double tol = probe_tol<float>(kc);
    for (const MN& mn : mns) {
      std::vector<float> a_sliver(static_cast<std::size_t>(kc) * kMr, 0.f);
      for (index_t k = 0; k < kc; ++k)
        for (int i = 0; i < mn.m; ++i)
          a_sliver[k * kMr + i] = pv<float>(41, i, k);
      std::vector<float> b_sliver(static_cast<std::size_t>(kc) * kNr, 0.f);
      for (index_t k = 0; k < kc; ++k)
        for (int j = 0; j < mn.n; ++j)
          b_sliver[k * kNr + j] = pv<float>(42, k, j);

      for (const AlphaBeta& cs : cases) {
        const index_t ldc = kNr + 1;
        std::vector<float> cbuf(static_cast<std::size_t>(kMr) * ldc,
                                kSentinel<float>);
        for (int i = 0; i < mn.m; ++i)
          for (int j = 0; j < mn.n; ++j)
            cbuf[i * ldc + j] = cs.nan_c ? nan : pv<float>(3, i, j);

        wide::wide_tile<Bits>(mn.m, mn.n, kc, a_sliver.data(),
                              b_sliver.data(), cbuf.data(), ldc,
                              static_cast<float>(cs.alpha),
                              static_cast<float>(cs.beta));

        const auto ref = [&](int i, int j) {
          double sum = 0.0;
          for (index_t k = 0; k < kc; ++k)
            sum += static_cast<double>(pv<float>(41, i, k)) *
                   static_cast<double>(pv<float>(42, k, j));
          double r = cs.alpha * sum;
          if (cs.beta != 0.0)
            r += cs.beta * static_cast<double>(pv<float>(3, i, j));
          return r;
        };
        if (!check_c(cbuf, ldc, kMr, mn.m, mn.n, tol, ref)) return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-variant state and probe dispatch
// ---------------------------------------------------------------------------

// Verdict publication is CAS-based (no lock), so this state lives
// outside the thread-safety-analysis capabilities; the explicit
// memory-order discipline below (acq_rel publish / acquire read) is what
// shalom_lint's atomic-memory-order rule pins down.
std::atomic<int> g_state[kVariantCount];

// Why each variant was last quarantined (health::Cause as int; kNone for
// never-quarantined). Written before the quarantine verdict publishes and
// read after observing it, so relaxed is enough for the value to be a
// best-effort diagnostic; recoverability decisions re-read it only while
// the variant is observably quarantined.
std::atomic<int> g_cause[kVariantCount];

/// The probe of list row I, chosen by the row's columns.
template <int I>
bool probe_row() {
  constexpr VariantRow r = kVariants[I];
  using T = std::conditional_t<r.dtype == Dtype::kF64, double, float>;
  if constexpr (r.kind == Kind::kMain || r.kind == Kind::kEdge)
    return probe_main_family<T, static_cast<ukr::AAccess>(r.a),
                             static_cast<ukr::BAccess>(r.b)>(
        r.kind == Kind::kEdge);
  else if constexpr (r.kind == Kind::kFusedNn)
    return probe_fused_nn<T>();
  else if constexpr (r.kind == Kind::kFusedNt)
    return probe_fused_nt<T>();
  else if constexpr (r.kind == Kind::kFusedTn)
    return probe_fused_tn<T>();
  else
    return probe_wide<r.width>();
}

constexpr auto kProbes = []<int... I>(std::integer_sequence<int, I...>) {
  return std::array<bool (*)(), sizeof...(I)>{&probe_row<I>...};
}(std::make_integer_sequence<int, kVariantCount>{});

/// The actual probe computation for a variant: any exception escaping a
/// probe (it should not happen - probes only touch local vectors) is a
/// failed probe, never a crash in dispatch.
bool probe_body(Variant v) noexcept {
  try {
    return kProbes[static_cast<std::size_t>(v)]();
  } catch (...) {
  }
  return false;
}

/// Test-only probe replacement (set_probe_body_for_testing); nullptr
/// means the real probe_body above. Lock-free hand-off, so explicit
/// relaxed orders per the lint discipline.
std::atomic<bool (*)(Variant)> g_probe_override{nullptr};

/// Context threaded through the trap scope. run_trapped takes a plain
/// function pointer (a trap must not unwind through std::function
/// internals), so the variant and verdict travel in this POD.
struct TrapProbeCtx {
  Variant v;
  bool (*body)(Variant);
  bool ok;
};

void run_probe_trampoline(void* p) {
  TrapProbeCtx* ctx = static_cast<TrapProbeCtx*>(p);
  ctx->ok = ctx->body(ctx->v);
}

/// One full probe of a variant, executed inside a guard trap scope: a
/// kernel that raises SIGILL/SIGSEGV/SIGBUS/SIGFPE during its probe is
/// contained and reported as a failed probe (which the caller turns into
/// a quarantine verdict) instead of killing the process. Counts toward
/// selfchecks_run; the selfcheck.probe fault site forces a plain failure
/// and the guard.trap site a simulated trap. `cause` reports which of the
/// three distinguishable failure modes fired (kInjected for the fault
/// site, kTrap for a contained trap, kMismatch for a divergent result);
/// untouched when the probe passes.
bool run_probe(Variant v, health::Cause* cause) noexcept {
  telemetry::note_selfcheck_run();
  if (SHALOM_FAULT_POINT(fault::Site::kSelfcheckProbe)) {
    *cause = health::Cause::kInjected;
    return false;
  }

  TrapProbeCtx ctx;
  ctx.v = v;
  ctx.body = g_probe_override.load(std::memory_order_relaxed);
  if (ctx.body == nullptr) ctx.body = probe_body;
  ctx.ok = false;

  const guard::TrapOutcome trap =
      guard::run_trapped(run_probe_trampoline, &ctx);
  if (trap.trapped) {
    telemetry::note_kernel_trapped();
    *cause = health::Cause::kTrap;
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "kernel variant '%s' raised %s inside its trap-contained "
                  "selfcheck probe",
                  variant_name(v), guard::signal_name(trap.signal));
    shalom::detail::set_last_error(SHALOM_ERR_KERNEL_TRAP, msg);
    std::fprintf(stderr, "shalom: selfcheck: %s; quarantining\n", msg);
    return false;
  }
  if (!ctx.ok) *cause = health::Cause::kMismatch;
  return ctx.ok;
}

/// Runs the probe and publishes the verdict. Concurrent first callers may
/// both probe (harmless: probes are pure), but the CAS guarantees exactly
/// one verdict wins and the quarantine counter/diagnostic fire once.
int probe_and_publish(Variant v) noexcept {
  health::Cause cause = health::Cause::kNone;
  const bool ok = run_probe(v, &cause);
  const int verdict = static_cast<int>(ok ? Status::kVerified
                                          : Status::kQuarantined);
  if (!ok)
    g_cause[static_cast<int>(v)].store(static_cast<int>(cause),
                                       std::memory_order_relaxed);
  int expected = static_cast<int>(Status::kUnknown);
  if (g_state[static_cast<int>(v)].compare_exchange_strong(
          expected, verdict, std::memory_order_acq_rel,
          std::memory_order_acquire)) {
    if (!ok) {
      telemetry::note_kernel_quarantined();
      health::report_degraded(health::Component::kKernels, cause);
      std::fprintf(stderr,
                   "shalom: selfcheck: probe failed for kernel variant "
                   "'%s' (cause: %s); quarantined (dispatch re-routes to "
                   "a verified fallback)\n",
                   variant_name(v), health::cause_name(cause));
    }
    return verdict;
  }
  return expected;
}

}  // namespace

const char* variant_name(Variant v) noexcept {
  const int i = static_cast<int>(v);
  return (i >= 0 && i < kVariantCount) ? kVariants[i].name : "unknown";
}

Status status(Variant v) noexcept {
  return static_cast<Status>(
      g_state[static_cast<int>(v)].load(std::memory_order_acquire));
}

health::Cause quarantine_cause(Variant v) noexcept {
  return static_cast<health::Cause>(
      g_cause[static_cast<int>(v)].load(std::memory_order_relaxed));
}

bool variant_ok(Variant v) noexcept {
  int s = g_state[static_cast<int>(v)].load(std::memory_order_acquire);
  if (s == static_cast<int>(Status::kUnknown)) s = probe_and_publish(v);
  if (s == static_cast<int>(Status::kQuarantined)) {
    // Passive on-path recovery: dispatching a quarantined variant is
    // already the slow path, so it doubles as the probation trigger.
    // try_recover_quarantined() early-outs on one state load until the
    // registry cool-down elapses; when it fires it probes trap-contained
    // and may restore this very variant for the current call.
    if (try_recover_quarantined())
      s = g_state[static_cast<int>(v)].load(std::memory_order_acquire);
  }
  return s == static_cast<int>(Status::kVerified);
}

int run_all() noexcept {
  int quarantined = 0;
  for (int i = 0; i < kVariantCount; ++i)
    if (!variant_ok(static_cast<Variant>(i))) ++quarantined;
  return quarantined;
}

void quarantine(Variant v, health::Cause cause) noexcept {
  // Override whatever verdict stands (including kVerified: the guard rail
  // saw the variant misbehave in production, which outranks its probe).
  // Loop the CAS so a concurrent publisher cannot resurrect the variant;
  // count/diagnose only on the actual transition into quarantine.
  g_cause[static_cast<int>(v)].store(static_cast<int>(cause),
                                     std::memory_order_relaxed);
  std::atomic<int>& slot = g_state[static_cast<int>(v)];
  int prior = slot.load(std::memory_order_acquire);
  while (prior != static_cast<int>(Status::kQuarantined)) {
    if (slot.compare_exchange_weak(prior,
                                   static_cast<int>(Status::kQuarantined),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      telemetry::note_kernel_quarantined();
      health::report_degraded(health::Component::kKernels, cause);
      std::fprintf(stderr,
                   "shalom: guard: kernel variant '%s' quarantined after a "
                   "guard-rail violation (cause: %s; dispatch re-routes to "
                   "a verified fallback)\n",
                   variant_name(v), health::cause_name(cause));
      return;
    }
  }
}

namespace {

/// The kernels component's probation probe: re-probes every variant whose
/// quarantine cause is recoverable and restores the ones with a clean
/// streak. True when no quarantined variant remains.
bool probe_quarantined_variants() noexcept {
  using health::Cause;
  const long streak = health::env_probation_n();
  for (int i = 0; i < kVariantCount; ++i) {
    std::atomic<int>& slot = g_state[i];
    if (slot.load(std::memory_order_acquire) !=
        static_cast<int>(Status::kQuarantined))
      continue;
    const Cause cause =
        static_cast<Cause>(g_cause[i].load(std::memory_order_relaxed));
    if (cause != Cause::kMismatch && cause != Cause::kInjected)
      continue;  // trap evidence (or unknown cause): permanent by default
    const Variant v = static_cast<Variant>(i);
    bool clean = true;
    Cause probe_cause = Cause::kNone;
    for (long p = 0; p < streak && clean; ++p) {
      if (health::probe_faulted() || !run_probe(v, &probe_cause))
        clean = false;
    }
    if (!clean) {
      // The re-probe itself failed: keep the quarantine, refresh the
      // cause so diagnostics reflect the latest evidence (a variant that
      // now traps becomes permanent).
      if (probe_cause != Cause::kNone)
        g_cause[i].store(static_cast<int>(probe_cause),
                         std::memory_order_relaxed);
      continue;
    }
    int expected = static_cast<int>(Status::kQuarantined);
    if (slot.compare_exchange_strong(expected,
                                     static_cast<int>(Status::kVerified),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      g_cause[i].store(static_cast<int>(Cause::kNone),
                       std::memory_order_relaxed);
      std::fprintf(stderr,
                   "shalom: selfcheck: kernel variant '%s' restored after "
                   "%ld clean probation probes (was quarantined: %s)\n",
                   variant_name(v), streak, health::cause_name(cause));
    }
  }

  // Component verdict: HEALTHY only when no quarantined variants remain
  // (permanently trap-quarantined variants keep the component degraded,
  // with the exponential backoff capping the residual probe traffic).
  for (int i = 0; i < kVariantCount; ++i) {
    if (g_state[i].load(std::memory_order_acquire) ==
        static_cast<int>(Status::kQuarantined))
      return false;
  }
  return true;
}

}  // namespace

bool try_recover_quarantined() noexcept {
  return health::run_probation(health::Component::kKernels,
                               &probe_quarantined_variants);
}

void set_probe_body_for_testing(bool (*fn)(Variant)) noexcept {
  g_probe_override.store(fn, std::memory_order_relaxed);
}

void reset_for_testing() noexcept {
  for (int i = 0; i < kVariantCount; ++i) {
    g_state[i].store(static_cast<int>(Status::kUnknown),
                     std::memory_order_release);
    g_cause[i].store(static_cast<int>(health::Cause::kNone),
                     std::memory_order_relaxed);
  }
}

namespace {

/// Registers the kernels component's recovery hook so
/// shalom_recover_now() drives the same probation sweep the passive
/// variant_ok path uses.
struct KernelHealthHookInit {
  KernelHealthHookInit() noexcept {
    health::set_recover_hook(health::Component::kKernels,
                             &try_recover_quarantined);
  }
} g_kernel_health_hook_init;

/// SHALOM_SELFTEST=1 runs the eager sweep at static-init time, before any
/// GEMM can dispatch an unverified kernel.
struct SelftestEnvInit {
  SelftestEnvInit() noexcept {
    const char* v = env::raw("SHALOM_SELFTEST");
    if (v == nullptr || *v == '\0') return;
    const bool truthy = env_ieq(v, "1") || env_ieq(v, "on") ||
                        env_ieq(v, "yes") || env_ieq(v, "true");
    const bool falsy = env_ieq(v, "0") || env_ieq(v, "off") ||
                       env_ieq(v, "no") || env_ieq(v, "false");
    if (truthy) {
      // Cross-TU static-init order is unspecified: fault.cpp's own
      // SHALOM_FAULT parser may not have run yet, so re-arm here to keep
      // eager selftests deterministic under injection (idempotent).
      if (const char* f = env::raw("SHALOM_FAULT"))
        fault::arm_from_spec(f);
      run_all();
    } else if (!falsy) {
      env::warn_malformed("SHALOM_SELFTEST", v,
                          "0|1|on|off|yes|no|true|false");
    }
  }
} g_selftest_env_init;

}  // namespace

}  // namespace selfcheck

namespace numerics {

Policy env_policy() noexcept {
  static const Policy policy = [] {
    const char* v = env::raw("SHALOM_CHECK_NUMERICS");
    if (v == nullptr || *v == '\0') return Policy::kIgnore;
    if (env_ieq(v, "ignore") || env_ieq(v, "off") || env_ieq(v, "0") ||
        env_ieq(v, "no") || env_ieq(v, "false"))
      return Policy::kIgnore;
    if (env_ieq(v, "count")) return Policy::kCount;
    if (env_ieq(v, "fail") || env_ieq(v, "on") || env_ieq(v, "1") ||
        env_ieq(v, "yes") || env_ieq(v, "true"))
      return Policy::kFail;
    env::warn_malformed("SHALOM_CHECK_NUMERICS", v, "ignore|count|fail");
    return Policy::kIgnore;
  }();
  return policy;
}

}  // namespace numerics
}  // namespace shalom
