// Register-blocked micro-kernels (paper Section 5).
//
// Two kernel templates, exactly as the paper structures them:
//
//  1. kern_main      - the mr x nr outer-product kernel (Algorithm 2), the
//                      one register-tile body for every width and every
//                      fused pack. Compile-time parameters select:
//                      * how each operand is read: A direct (row-major,
//                        the NN/NT no-pack-A path), packed (column slivers)
//                        or transposed in place (the TN/TT path); B direct
//                        (row-major, the small-B no-pack path) or packed
//                        (row slivers);
//                      * the vector width: 128 bits for FP32/FP64, 256 and
//                        512 bits for FP32 (Section 5.5: a longer vector
//                        only needs the model's revised tile);
//                      * a pack hook (Section 5.3): the kernel stores what
//                        it loads into a packed sliver while it computes -
//                        the B rows (Algorithm 1 lines 6-8, optionally
//                        with the next sliver, t = 1 / Fig. 4) or the
//                        transposed A columns (Section 4.3, TN/TT).
//  2. kern_fused_pack_nt - Algorithm 3 / Fig. 5: the 7x3 inner-product
//                      kernel that updates C while scattering B^T into Bc.
//
// Plus kern_scalar, the deliberately unscheduled fallback used when the
// Fig. 6b edge optimization is disabled (ablation of Section 8.5), for
// quarantined families, and for in-place transposed B.
//
// All kernels compute  C = beta * C + alpha * acc  on an (m_eff x n_eff)
// tile; beta == 0 never reads C (NaN-safe, BLAS semantics).
//
// Loop bodies are written with compile-time-unrolled lambdas so that at
// -O3 every iteration is a straight-line schedule: loads interleaved
// between FMAs with the dependence distance the paper's Fig. 6b asks for.
#pragma once

#include <cmath>
#include <utility>

#include "common/matrix.h"
#include "core/kernel_contracts.h"
#include "simd/vecwide.h"

#define SHALOM_RESTRICT __restrict__
// Lambdas in kernel bodies rely on -O3 inlining; the macro marks intent.
#define SHALOM_INLINE_LAMBDA

namespace shalom::ukr {

/// How the micro-kernel reads matrix A.
enum class AAccess {
  kDirect,      ///< a(i,k) = a[i*lda + k] (row-major, in place)
  kPacked,      ///< a(i,k) = a[k*lda + i] (column sliver; lda = mr stride)
  kDirectTrans, ///< a(i,k) = a[k*lda + i] (transposed storage, in place:
                ///< the TN/TT path; op(A) columns are contiguous runs)
};

/// How the micro-kernel reads matrix B.
enum class BAccess {
  kDirect,       ///< b(k,j) = b[k*ldb + j]   (row-major, in place)
  kPacked,       ///< b(k,j) = b[k*ldb + j]   (row sliver; ldb = nr stride,
                 ///<                          zero-padded past the edge)
  kDirectTrans,  ///< b(k,j) = b[j*ldb + k]   (transposed storage, in
                 ///<  place: the no-pack NT/TT path; kern_scalar only)
};

/// A kern_main pack hook: what the kernel stores, besides C, from the
/// operand vectors it has just loaded (paper Section 5.3). The default
/// stores nothing.
struct Pack {
  /// The B rows just loaded, into the packed B sliver `packed` (row
  /// stride: the width's full sliver, tail columns zero-padded).
  bool b = false;
  /// Row k of the next, full-width sliver (`b_next`, row stride
  /// `ldb_next`) into `packed_next`: pack-ahead t = 1 (Section 5.3.2).
  bool ahead = false;
  /// The transposed-A columns just loaded, into the packed A sliver
  /// `packed` (layout packed[k*MR + i], the canonical column-sliver format).
  bool a = false;

  constexpr bool none() const { return !b && !ahead && !a; }
};

/// Invokes f(integral_constant<int,0>), ..., f(integral_constant<int,N-1>).
template <int N, class F>
SHALOM_INLINE void unroll(F&& f) {
  [&]<int... I>(std::integer_sequence<int, I...>) {
    (f(std::integral_constant<int, I>{}), ...);
  }(std::make_integer_sequence<int, N>{});
}

/// Extra elements allocated at the tail of every packed buffer so packed-A
/// column loads may read one full vector past the last column. Defined by
/// the kernel-contract header; aliased here for the kernel code.
inline constexpr index_t kPackSlackElems = contracts::kPackSlackElems;

// ---------------------------------------------------------------------------
// Main micro-kernel (Algorithm 2)
// ---------------------------------------------------------------------------

/// mr x n_eff register tile of Bits-wide vectors, n_eff = NRV*lanes +
/// ntail. NTail selects whether a final partial vector exists; `ntail`
/// (1..lanes-1) is its lane count and is ignored when !NTail. `packed`,
/// `b_next`, `ldb_next` and `packed_next` are the pack hook's destinations
/// and source (see Pack); a kernel without a hook ignores them.
///
/// The B hook issues its stores between the B loads and the FMAs of every
/// k step, and the A hook between the A loads and the B loads, so the OoO
/// core overlaps them with compute - the key difference from
/// pack-then-compute libraries (Section 5.3). A hook runs on full-height
/// stripes (the driver's first stripe of a sliver, or the stripes of its
/// first sliver). All widths are compile-time so the loop body is
/// branch-free straight-line code; anything runtime-bounded here makes GCC
/// spill the 21 accumulators.
template <typename T, int MR, int NRV, bool NTail, AAccess AA, BAccess BA,
          int Bits = 128, Pack P = Pack{}>
void kern_main(index_t kc, const T* SHALOM_RESTRICT a, index_t lda,
               const T* SHALOM_RESTRICT b, index_t ldb,
               T* SHALOM_RESTRICT c, index_t ldc, T alpha, T beta,
               int ntail, T* SHALOM_RESTRICT packed,
               const T* SHALOM_RESTRICT b_next, index_t ldb_next,
               T* SHALOM_RESTRICT packed_next) {
  using V = simd::vec_of_t<T, Bits>;
  constexpr int L = V::kLanes;
  constexpr int NV = NRV + (NTail ? 1 : 0);
  // Vectors per row of a full packed B sliver: the width's analytic tile.
  constexpr int NVFull =
      contracts::solve_tile(contracts::kVectorRegisters, L).nr / L;
  static_assert(MR >= 1 && NV >= 1);
  static_assert(BA != BAccess::kDirectTrans,
                "in-place transposed B has no vectorized kernel");
  static_assert(contracts::fits_register_budget(MR, NV),
                "register budget violated: mr + nr/j + mr*nr/j <= 31 "
                "(paper Eq. 1: MR*NV accumulators + NV B loads + MR A "
                "broadcasts must fit 32 vector registers minus one "
                "reserved for prefetch; a pack hook reuses the load "
                "registers as its source, so the same budget holds)");
  static_assert(Bits == 128 || (AA == AAccess::kPacked && P.none()),
                "wider vectors read packed A only, without a pack hook");
  static_assert(!(P.b || P.ahead) || (AA == AAccess::kDirect && NV <= NVFull),
                "the B pack hook computes from in-place A and packs "
                "slivers no wider than the full sliver");
  static_assert(!P.a || (AA == AAccess::kDirectTrans && MR >= L),
                "the A pack hook packs full-height transposed-A stripes");
  (void)ntail;
  (void)packed;
  (void)b_next;
  (void)ldb_next;
  (void)packed_next;

  V acc[MR][NV];
  unroll<MR>([&](auto i) {
    unroll<NV>([&](auto jv) { acc[i][jv] = simd::zero_vec<T, Bits>(); });
  });

  // Loads one vector of row k of op(B). The packed layout is zero-padded,
  // so only direct access needs a partial (masked) load at the edge.
  auto load_b = [&](index_t k, auto jv) SHALOM_INLINE_LAMBDA {
    const T* row = b + k * ldb + jv * L;
    if constexpr (NTail && BA == BAccess::kDirect) {
      if constexpr (jv == NV - 1)
        return simd::load_partial<Bits>(row, ntail);
    }
    return simd::load<Bits>(row);
  };

  // B pack hook (Fig. 4, steps 1/2): row k of the current sliver, the
  // tail columns zero-padded, and row k of the next sliver when packing
  // ahead. Plain load->store pairs; fully unrolled.
  auto pack_b = [&](index_t k, const V (&bv)[NV]) SHALOM_INLINE_LAMBDA {
    if constexpr (P.b) {
      T* dst = packed + k * (NVFull * L);
      unroll<NV>([&](auto jv) { simd::store(dst + jv * L, bv[jv]); });
      if constexpr (NV < NVFull) {
        unroll<NVFull - NV>([&](auto z) {
          simd::store(dst + (NV + z) * L, simd::zero_vec<T, Bits>());
        });
      }
    }
    if constexpr (P.ahead) {
      const T* src = b_next + k * ldb_next;
      T* dst = packed_next + k * (NVFull * L);
      unroll<NVFull>([&](auto jv) {
        simd::store(dst + jv * L, simd::load<Bits>(src + jv * L));
      });
    }
  };

  index_t k = 0;
  if constexpr (AA == AAccess::kDirect) {
    // Paper Fig. 3: unroll k by the vector length; each A row contributes
    // one vector of L consecutive k-elements, consumed lane by lane via
    // scalar-vector FMA.
    for (; k + L <= kc; k += L) {
      V av[MR];
      unroll<MR>([&](auto i) { av[i] = simd::load(a + i * lda + k); });
      // The B hook's stores take this slot (no prefetch while packing).
      if constexpr (P.none()) simd::prefetch_read(a + k + 2 * L);
      unroll<L>([&](auto l) {
        V bv[NV];
        unroll<NV>([&](auto jv) { bv[jv] = load_b(k + l, jv); });
        pack_b(k + l, bv);
        unroll<MR>([&](auto i) {
          unroll<NV>([&](auto jv) {
            acc[i][jv] = simd::fmadd_lane<l>(acc[i][jv], av[i], bv[jv]);
          });
        });
      });
    }
    for (; k < kc; ++k) {
      V bv[NV];
      unroll<NV>([&](auto jv) { bv[jv] = load_b(k, jv); });
      pack_b(k, bv);
      unroll<MR>([&](auto i) {
        const V as = simd::broadcast(a[i * lda + k]);
        unroll<NV>([&](auto jv) {
          acc[i][jv] = simd::fmadd(acc[i][jv], as, bv[jv]);
        });
      });
    }
  } else if constexpr (AA == AAccess::kPacked && Bits == 128) {
    // Packed A: each k step reads one zero-padded column sliver of length
    // mr; ceil(MR/L) vector loads cover it (slack allows the full load),
    // consumed lane by lane (FMLA by element).
    constexpr int AV = (MR + L - 1) / L;
    for (; k < kc; ++k) {
      const T* col = a + k * lda;
      V av[AV];
      unroll<AV>([&](auto g) { av[g] = simd::load(col + g * L); });
      V bv[NV];
      unroll<NV>([&](auto jv) { bv[jv] = load_b(k, jv); });
      unroll<MR>([&](auto i) {
        unroll<NV>([&](auto jv) {
          acc[i][jv] =
              simd::fmadd_lane<i % L>(acc[i][jv], av[i / L], bv[jv]);
        });
      });
    }
  } else if constexpr (AA == AAccess::kPacked) {
    // Packed A at the wider widths: the broadcast-from-memory form natural
    // to wide ISAs - per k, NV B loads, then MR scalar broadcasts from the
    // packed A column, each feeding NV FMAs.
    for (; k < kc; ++k) {
      const T* col = a + k * lda;
      V bv[NV];
      unroll<NV>([&](auto jv) { bv[jv] = load_b(k, jv); });
      unroll<MR>([&](auto i) {
        const V as = simd::broadcast<Bits>(col[i]);
        unroll<NV>([&](auto jv) {
          acc[i][jv] = simd::fmadd(acc[i][jv], as, bv[jv]);
        });
      });
    }
  } else {
    // Transposed A in place (TN/TT): op(A) column k is the contiguous run
    // a[k*lda .. k*lda+MR). No slack exists past the run, so the last
    // vector loads *overlapping* from col + MR - L and lanes are remapped
    // (rows < L from av[g], tail rows from the overlapped vector).
    constexpr int AV = (MR + L - 1) / L;
    for (; k < kc; ++k) {
      const T* col = a + k * lda;
      V av[AV];
      if constexpr (MR < L) {
        av[0] = simd::load_partial(col, MR);
      } else {
        unroll<AV>([&](auto g) {
          constexpr int base = (g == AV - 1) ? MR - L : g * L;
          av[g] = simd::load(col + base);
        });
      }
      if constexpr (P.a) {
        // A pack hook: the overlapping loads double as the pack source;
        // the overlapped vectors rewrite the shared rows with identical
        // values.
        T* dst = packed + k * MR;
        unroll<AV>([&](auto g) {
          constexpr int base = (g == AV - 1) ? MR - L : g * L;
          simd::store(dst + base, av[g]);
        });
      }
      V bv[NV];
      unroll<NV>([&](auto jv) { bv[jv] = load_b(k, jv); });
      unroll<MR>([&](auto i) {
        constexpr int g = (i / L < AV - 1) ? i / L : AV - 1;
        constexpr int base =
            (MR < L) ? 0 : ((g == AV - 1) ? MR - L : g * L);
        unroll<NV>([&](auto jv) {
          acc[i][jv] =
              simd::fmadd_lane<i - base>(acc[i][jv], av[g], bv[jv]);
        });
      });
    }
  }

  // C update: C = beta*C + alpha*acc on the real (not padded) tile.
  const V valpha = simd::broadcast<Bits>(alpha);
  const V vbeta = simd::broadcast<Bits>(beta);
  unroll<MR>([&](auto i) {
    unroll<NV>([&](auto jv) {
      T* cp = c + i * ldc + jv * L;
      V r = simd::mul(acc[i][jv], valpha);
      if constexpr (NTail) {
        if constexpr (jv == NV - 1) {
          if (beta != T{0})
            r = simd::fmadd(r, simd::load_partial<Bits>(cp, ntail), vbeta);
          simd::store_partial(cp, r, ntail);
          return;
        }
      }
      if (beta != T{0}) r = simd::fmadd(r, simd::load<Bits>(cp), vbeta);
      simd::store(cp, r);
    });
  });
}

// ---------------------------------------------------------------------------
// Fused NT packing kernel (Algorithm 3, Fig. 5)
// ---------------------------------------------------------------------------

/// Inner-product MR x JB kernel over transposed B.  op(B) columns
/// jofs..jofs+JB-1 of the current sliver are rows of B storage, contiguous
/// along k.  Per k-vector step: MR loads of A, JB loads of B, MR*JB
/// vector-vector FMAs, and the JB*L-element scatter into the packed
/// sliver (stride nr_full).  Accumulators reduce horizontally at the end.
/// Called ceil(nr/JB) times to fill one sliver (paper: 12/3 = 4 calls).
///
/// The scatter is realized as an in-register transpose followed by one
/// vector store per Bc row instead of element-wise extracts. When
/// `store_full` is set the stores are full-width: the lane past the JB
/// real columns lands on the slot the NEXT column group (at jofs + JB)
/// owns and is rewritten by it - the driver sets the flag only when that
/// group exists. The final group of a sliver uses partial stores.
template <typename T, int MR, int JB>
void kern_fused_pack_nt(index_t kc, const T* SHALOM_RESTRICT a, index_t lda,
                        const T* SHALOM_RESTRICT b, index_t ldb,
                        T* SHALOM_RESTRICT bc, int jofs, int nr_full,
                        bool store_full, T* SHALOM_RESTRICT c, index_t ldc,
                        T alpha, T beta) {
  using V = simd::vec_of_t<T>;
  constexpr int L = V::kLanes;
  static_assert(contracts::fits_register_budget(MR, JB),
                "register budget violated: mr + nr/j + mr*nr/j <= 31 "
                "(paper Eq. 1; the NT inner-product kernel holds MR*JB "
                "accumulators, JB B loads and MR A loads per k)");

  V acc[MR][JB];
  unroll<MR>([&](auto i) {
    unroll<JB>([&](auto cb) { acc[i][cb] = simd::zero_vec<T>(); });
  });

  index_t k = 0;
  for (; k + L <= kc; k += L) {
    V av[MR];
    unroll<MR>([&](auto i) { av[i] = simd::load(a + i * lda + k); });
    V bv[JB];
    unroll<JB>([&](auto cb) {
      bv[cb] = simd::load(b + (jofs + cb) * ldb + k);
    });
    // Scatter into Bc rows k..k+L-1 (Fig. 5: lane l of column cb lands at
    // bc[(k+l)*nr_full + jofs+cb]), interleaved with the FMA stream below
    // via program order.
    if constexpr (L == 4 && std::is_same_v<T, float>) {
      V r0 = bv[0];
      V r1 = JB > 1 ? bv[1] : simd::zero_vec<T>();
      V r2 = JB > 2 ? bv[2] : simd::zero_vec<T>();
      V r3 = simd::zero_vec<T>();
      simd::transpose4(r0, r1, r2, r3);
      const V rows[4] = {r0, r1, r2, r3};
      if (store_full) {
        unroll<L>([&](auto l) {
          simd::store(bc + (k + l) * nr_full + jofs, rows[l]);
        });
      } else {
        unroll<L>([&](auto l) {
          simd::store_partial(bc + (k + l) * nr_full + jofs, rows[l], JB);
        });
      }
    } else {
      unroll<JB>([&](auto cb) {
        unroll<L>([&](auto l) {
          bc[(k + l) * nr_full + jofs + cb] = simd::extract(bv[cb], l);
        });
      });
    }
    unroll<JB>([&](auto cb) {
      unroll<MR>([&](auto i) {
        acc[i][cb] = simd::fmadd(acc[i][cb], av[i], bv[cb]);
      });
    });
  }

  // k tail: scalar inner-product steps (fewer than L columns of A left).
  T tail_acc[MR][JB] = {};
  for (; k < kc; ++k) {
    T bs[JB];
    unroll<JB>([&](auto cb) {
      bs[cb] = b[(jofs + cb) * ldb + k];
      bc[k * nr_full + jofs + cb] = bs[cb];
    });
    unroll<MR>([&](auto i) {
      const T as = a[i * lda + k];
      unroll<JB>([&](auto cb) { tail_acc[i][cb] += as * bs[cb]; });
    });
  }

  // Horizontal reduction + C update (paper: "Reduce (V10-V31)").
  unroll<MR>([&](auto i) {
    unroll<JB>([&](auto cb) {
      const T total = simd::reduce_add(acc[i][cb]) + tail_acc[i][cb];
      T* cp = c + i * ldc + jofs + cb;
      *cp = (beta == T{0}) ? alpha * total : beta * *cp + alpha * total;
    });
  });
}

// ---------------------------------------------------------------------------
// Scalar fallback kernel (edge-optimization ablation)
// ---------------------------------------------------------------------------

/// Plain scalar tile update. Used when Config::optimized_edges is false
/// (models the cost existing libraries pay on remainder tiles: batched
/// loads, no latency hiding - the Fig. 6a behaviour), for quarantined
/// kernel families, and for in-place transposed B. Each element is the
/// same k-ordered sum as baselines::naive_gemm, written as explicit
/// std::fma in kern_main's order: bitwise naive's over one k-block.
template <typename T, AAccess AA, BAccess BA>
void kern_scalar(index_t m, index_t n, index_t kc, const T* a, index_t lda,
                 const T* b, index_t ldb, T* c, index_t ldc, T alpha,
                 T beta) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      T sum{};
      for (index_t k = 0; k < kc; ++k) {
        const T av =
            (AA == AAccess::kDirect) ? a[i * lda + k] : a[k * lda + i];
        const T bv =
            (BA == BAccess::kDirectTrans) ? b[j * ldb + k] : b[k * ldb + j];
        sum = std::fma(av, bv, sum);
      }
      T* cp = c + i * ldc + j;
      *cp = (beta == T{0}) ? alpha * sum : std::fma(beta, *cp, alpha * sum);
    }
  }
}

}  // namespace shalom::ukr
