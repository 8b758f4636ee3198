// Public enums and configuration for the GEMM drivers.
#pragma once

#include "arch/machine.h"
#include "common/guard.h"
#include "common/matrix.h"
#include "common/selfcheck.h"

namespace shalom {

/// Operand transposition, BLAS-style. Storage is always row-major;
/// Trans::T means op(X) = X^T.
enum class Trans { N, T };

/// GEMM computation mode (paper Section 3.3): NN, NT, TN, TT.
struct Mode {
  Trans a = Trans::N;
  Trans b = Trans::N;
};

/// Feature switches. The defaults are the full LibShalom design; the
/// ablation benches (Fig. 13) turn individual optimizations off.
struct Config {
  /// Selective packing (paper Section 4): when false, operands are always
  /// packed ahead of the kernel, as OpenBLAS/BLIS do.
  bool selective_packing = true;
  /// Fuse packing loads/stores into the micro-kernel's FMA stream
  /// (paper Section 5.3). When false, packing runs as a separate pass.
  bool fused_packing = true;
  /// Pipelined vectorized edge-case kernels (paper Section 5.4). When
  /// false, edge tiles fall back to a scalar routine, which mimics the
  /// cost existing libraries pay on remainders.
  bool optimized_edges = true;
  /// Worker threads; 0 means "all cores of `machine`". 1 = serial.
  int threads = 1;
  /// Machine the analytic models should target; nullptr = running host.
  const arch::MachineDescriptor* machine = nullptr;

  /// Numerical guard rail: sample operands (and the result) for NaN/Inf
  /// around each public gemm() call. kIgnore (default) skips the scan
  /// entirely; kCount records anomalies in robustness_stats(); kFail
  /// additionally throws numeric_error (SHALOM_ERR_NUMERIC over the C
  /// API). The default follows SHALOM_CHECK_NUMERICS=ignore|count|fail.
  numerics::Policy check_numerics = numerics::env_policy();

  /// Thread-pool watchdog period in milliseconds for parallel rounds run
  /// under this config: if a round's workers make no heartbeat progress
  /// for this long, the round leader trips the watchdog, recovers the
  /// unclaimed tasks serially, and marks the pool degraded (see
  /// core/threadpool.h). 0 disables the watchdog. The default follows
  /// SHALOM_WATCHDOG_MS.
  int watchdog_ms = guard::env_watchdog_ms();

  /// Cache-blocking overrides for the auto-tuner (paper Section 10 future
  /// work): 0 keeps the analytic model's value. Values are rounded to the
  /// register-tile multiples the driver requires.
  index_t kc_override = 0;
  index_t mc_override = 0;
  index_t nc_override = 0;

  const arch::MachineDescriptor& resolved_machine() const {
    return machine != nullptr ? *machine : arch::host_machine();
  }
};

}  // namespace shalom
