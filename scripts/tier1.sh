#!/usr/bin/env bash
# Tier-1 verification: the standard Release build + full test suite (with
# the eager kernel selftest forced on, so every dispatchable variant is
# probed against the scalar reference), then AddressSanitizer,
# UndefinedBehaviorSanitizer and ThreadSanitizer configurations running
# the labels where each earns its keep: ASan/UBSan over fault-injection,
# stress, differential-fuzz and the tuned-table corruption battery
# (allocator edge cases, cross-thread teardown, kernel-boundary
# arithmetic, file parsing of attacker-shaped bytes), TSan over stress,
# the concurrency-engine battery (overlapping fork-join rounds and the
# ThreadPool suite, concurrent per-call planning over shared arenas,
# async stream submission) and the self-healing battery (forced
# recovery racing submitters, registry churn).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

echo "=== tier1: standard build + full ctest (SHALOM_SELFTEST=1) ==="
# -Werror keeps the standard build warning-free: a new compiler warning
# fails tier 1 here instead of scrolling past.
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror
cmake --build build -j "${JOBS}"
SHALOM_SELFTEST=1 ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "=== tier1: guard, fault, health and selfcheck suites twice in one process ==="
# Each test must leave the process-wide health registry, the global pool,
# the fault sites and the kernel-variant verdicts as it found them (or
# heal them before it relies on them): a second pass in the same process
# fails on any state the first one leaked, e.g. a pool left degraded by a
# watchdog trip or a variant verdict that outlived reset_for_testing.
for suite in test_guard test_fault test_health test_selfcheck; do
  "./build/tests/${suite}" --gtest_repeat=2 --gtest_brief=1
done

echo "=== tier1: static verification (shalom_lint + clang-tidy + TSA) ==="
# shalom_lint is self-contained C++17 and gates tier-1 unconditionally:
# zero findings allowed over the library, benchmark AND tool sources
# (the analyzer lints itself). The whole-program families compare the
# code against the real docs/tests/CI artifacts, so deleting a fault-site
# row from DESIGN.md, a strerror case, an API.md row or the arming of a
# site fails right here. The analyzer's stderr summary reports the
# scanned-file count (an empty scan exits 2) and per-rule finding counts,
# so CI logs show which family fired.
./build/tools/shalom_lint --design=DESIGN.md --api=API.md --tests=tests \
    --tier1=scripts/tier1.sh src bench tools
ctest --test-dir build --output-on-failure -j "${JOBS}" -L lint
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --build build --target lint
else
  echo "WARNING: clang-tidy not found - clang-tidy stage SKIPPED" >&2
fi
# Clang thread-safety analysis needs the Clang frontend; with GCC-only
# toolchains the annotations compile as no-ops, so skip visibly.
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . \
        -DCMAKE_CXX_COMPILER=clang++ \
        -DSHALOM_THREAD_SAFETY=ON \
        -DSHALOM_BUILD_BENCH=OFF \
        -DSHALOM_BUILD_EXAMPLES=OFF \
        -DSHALOM_BUILD_TESTS=OFF
  cmake --build build-tsa -j "${JOBS}"
else
  echo "WARNING: clang++ not found - thread-safety analysis build SKIPPED" >&2
fi

echo "=== tier1: guarded chaos (canary arenas + watchdog + trap faults) ==="
# The whole suite under hardened execution: every AlignedBuffer gets
# canary zones and every parallel round arms a 2-second stall watchdog.
# Results must be identical - the guard rails are pure detection.
SHALOM_GUARD=canary SHALOM_WATCHDOG_MS=2000 \
  ctest --test-dir build --output-on-failure -j "${JOBS}"
# Then the guard suite itself with the trap and heartbeat fault sites
# armed from the environment on top: probes trap, a worker wedges, and
# the quarantine/watchdog recovery paths must still produce correct
# results. Kept out of the sanitizer configs below (their label filters
# exclude `guard`): sanitizer runtimes own the signal machinery, so trap
# containment compiles out there (SHALOM_GUARD_NO_TRAPS).
SHALOM_GUARD=canary SHALOM_WATCHDOG_MS=2000 \
SHALOM_FAULT=guard.trap:once,threadpool.heartbeat:once \
  ctest --test-dir build --output-on-failure -j "${JOBS}" -L guard

echo "=== tier1: overload chaos (admission control under armed faults) ==="
# The PR 7 acceptance scenario: the 8-client overload burst with a small
# queue cap, shed-newest admission, and the transient-failure sites firing
# (arena acquisition, submit enqueue, deadline expiry). Every future must
# resolve to exactly one of {ok, rejected, timeout, degraded-ok}, accepted
# work must match the isolated oracle bitwise, and nothing may deadlock.
SHALOM_QUEUE_CAP=4 SHALOM_OVERLOAD_POLICY=shed-newest \
SHALOM_FAULT=alloc.pack_arena:every-7,submit.queue:every-5,engine.deadline:every-3 \
  ctest --test-dir build --output-on-failure -j "${JOBS}" -R EngineChaos

echo "=== tier1: persistence chaos (tuned-table I/O faults armed) ==="
# The PR 8 acceptance scenario: the tuned-table battery with the table
# I/O fault sites firing ambiently. Every save must be all-or-nothing
# (a failed commit leaves the previous table byte-identical and
# loadable), every load must be SHALOM_OK or a clean cold start, and
# nothing may crash or publish invalid blockings. Two arming profiles: steady
# every-N failures across the write path, then a fail-after-N profile
# where I/O works until the process has done some real commits and the
# open/read path starts dying mid-run.
SHALOM_FAULT=table.write:every-2,table.rename:every-3,table.fsync:every-2 \
  ctest --test-dir build --output-on-failure -j "${JOBS}" -L table
SHALOM_FAULT=table.open:fail-after-2,table.read:fail-after-3 \
  ctest --test-dir build --output-on-failure -j "${JOBS}" -L table

echo "=== tier1: recovery chaos (degrade under an ambient storm, then heal) ==="
# The PR 10 acceptance scenario: serve through an ambient fault storm
# (kernel probes failing every 3rd evaluation, worker spawns every 4th,
# submit enqueues every 5th), then disarm and require the process to
# heal itself completely: robustness_stats().recoveries must grow while
# it heals, shalom_health_report must end all-HEALTHY, and every result
# accepted mid-storm or post-heal must match the oracle. The health
# battery proper (latch state machine, breaker half-open trials, pool
# respawn, forced recovery races, env wrappers) runs under -L health in
# the full suite above; this stage is specifically the storm-then-heal
# end-to-end pass.
SHALOM_FAULT=selfcheck.probe:every-3,threadpool.spawn:every-4,submit.queue:every-5 \
  ctest --test-dir build --output-on-failure -j "${JOBS}" -R RecoveryChaos

echo "=== tier1: AVX2 build without AVX-512 (-march=haswell) ==="
# The SIMD layer picks its partial loads and stores at compile time from
# the ISA macros. On an AVX-512 host the native build compiles only the
# masked-move branch; this build compiles and runs the VMASKMOVPS
# branches (128- and 256-bit) under the kernel, wide-vector, property and
# fuzz suites, under the selfcheck probes and quarantine tests, which
# vouch for every kernel variant at run time, and under the plan and
# parallel suites, so serial plans and parallel cells also run on the
# 16-register build. (The NEON branch needs an AArch64 toolchain.)
cmake -B build-hsw -S . \
      -DSHALOM_NATIVE=OFF \
      -DCMAKE_CXX_FLAGS=-march=haswell \
      -DSHALOM_BUILD_BENCH=OFF \
      -DSHALOM_BUILD_EXAMPLES=OFF
cmake --build build-hsw -j "${JOBS}"
ctest --test-dir build-hsw --output-on-failure -j "${JOBS}" \
      -R 'Simd|MainKernel|FusedPack|PackHook|ScalarKernel|Wide|Correct|Property|fuzz|Selfcheck|Quarantine|GemmPlan|ParallelGemm'

echo "=== tier1: ASan build, fault + stress + fuzz labels ==="
cmake -B build-asan -S . \
      -DSHALOM_SANITIZE=address \
      -DSHALOM_FAULT_INJECTION=ON \
      -DSHALOM_BUILD_BENCH=OFF \
      -DSHALOM_BUILD_EXAMPLES=OFF
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
      -L 'fault|stress|fuzz|table'

echo "=== tier1: UBSan build, fault + stress + fuzz labels ==="
cmake -B build-ubsan -S . \
      -DSHALOM_SANITIZE=undefined \
      -DSHALOM_FAULT_INJECTION=ON \
      -DSHALOM_BUILD_BENCH=OFF \
      -DSHALOM_BUILD_EXAMPLES=OFF
cmake --build build-ubsan -j "${JOBS}"
ctest --test-dir build-ubsan --output-on-failure -j "${JOBS}" \
      -L 'fault|stress|fuzz|table'

echo "=== tier1: TSan build, stress + engine + health labels ==="
# The data-race hunt for the concurrent-server machinery: overlapping
# fork-join rounds and the ThreadPool suite (test_parallel, labelled
# engine: exactly-once rounds, growth racing live rounds), concurrent
# gemm callers planning in place over shared pool workers and arenas,
# and GemmStream submission from many client threads. These tests must
# be TSan-clean; the pool uses explicit atomic operations (never fences)
# so TSan models every ordering it relies on. The health label rides along for the recovery layer's
# races: forced recover_now passes against live submitters and registry
# churn.
cmake -B build-tsan -S . \
      -DSHALOM_SANITIZE=thread \
      -DSHALOM_FAULT_INJECTION=ON \
      -DSHALOM_BUILD_BENCH=OFF \
      -DSHALOM_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j "${JOBS}"
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
      -L 'stress|engine|health'

echo "tier1: OK"
