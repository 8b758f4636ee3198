#!/usr/bin/env python3
"""Builds and runs the LibShalom benchmark; prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The library and the benchmark
program (perfbench/bench.cpp) are compiled from source into
.bench_build/perfbench on first use. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The line before it holds ungated diagnostics: host noise
(steal, CPU utilisation, involuntary context switches), the tail latency
with its sample count, the demoted wall-clock metrics, and every
process's own value of each end-to-end metric.

--trace 0 splits --seconds over fresh processes of PROCESS_SECONDS each,
all on the same inputs. Each sets up, measures and checks its outputs on its own. A
metric is reported as the mean of the process values between their
quartiles (the median for setup_s); best_gflops, and p50_us where it is
taken over best times, use each shape's best time in the run, the lower
quartile of its per-process best times.
Much of the run-to-run spread on a shared host is per process (a process
that lands next to a busy neighbour runs slower for its whole life), so
combining processes inside a run is what keeps the run-to-run spread
small.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "shalom_perfbench")
TRACE_TEST = os.path.join(BUILD, "perfbench_trace_test")

WORKLOADS = ("serve_small", "gemm_small", "gemm_cold", "gemm_irregular")

# --trace 0 runs one fresh process per this many seconds of --seconds.
PROCESS_SECONDS = 1.0

# name -> unit. Every workload reports every metric.
END_TO_END = {
    "setup_s": "s",
    "ok_frac": "frac",
    "rss_mb": "MB",
    "p50_us": "us",
    "cpu_us_per_op": "us",
    "best_gflops": "GFLOP/s",
}

PER_LAYER = {
    "engine.submit_us": "us",
    "engine.resolve_us": "us",
    "engine.reqs_per_batch": "count",
    "engine.queue_peak": "count",
    "engine.failed": "count",
    "engine.overhead_x": "x",
    "batch.entry_us": "us",
    "plan_cache.hit_ratio": "frac",
    "plan_cache.evictions": "count",
    "plan_cache.lookup_us": "us",
    "plan.create_us": "us",
    "plan.execute_us": "us",
    "plan.peak_frac": "frac",
    "pack.a_gbps": "GB/s",
    "pack.b_gbps": "GB/s",
    "threadpool.forkjoin_us": "us",
    "threadpool.cpu_util": "cores",
    "parallel.speedup": "x",
    "parallel.wall_gflops": "GFLOP/s",
    "selfcheck.probes": "count",
    "selfcheck.quarantined": "count",
    "health.degraded": "count",
    "host.steal_frac": "frac",
    "p99_us": "us",
    "p99_n": "count",
    "trace.overhead_x": "x",
}

# Everything a run starts after the build must have ended by then.
RUN_BUDGET_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "shalom.h")):
        fail("library sources not found under %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "shalom_perfbench", "perfbench_trace_test"])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 cwd=ROOT)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build step failed: " + " ".join(cmd))


def run_binary(args, deadline):
    """Runs the benchmark program, killing it at `deadline` (a
    time.monotonic() value); returns its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before: " + " ".join(args))
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out: " + " ".join(args))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("benchmark program exited with %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("benchmark program printed nothing")
    return json.loads(lines[-1])


def pick(raw, wanted):
    """Selects the `wanted` metrics (name -> unit) from the program's
    output, checking that each is present, finite and carries its unit."""
    out = {}
    for name, unit in wanted.items():
        m = raw.get(name)
        if m is None or m.get("unit") != unit:
            fail("metric %s missing or with the wrong unit" % name)
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s is not a finite number" % name)
        out[name] = {"value": value, "unit": unit}
    return out


def interquartile_mean(values):
    """Mean of the values left after dropping the lowest and the highest
    quarter."""
    v = sorted(values)
    k = len(v) // 4
    mid = v[k:len(v) - k]
    return sum(mid) / len(mid)


def lower_quartile(values):
    """First quartile as statistics.quantiles gives it; None when empty."""
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=4)[0]


def combine(raws):
    """Folds the results of several processes into one."""
    attempted = sum(int(r["attempted"]) for r in raws)
    failed = sum(int(r["failed"]) for r in raws)
    combined, per_process = {}, {}
    for name, m in raws[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in raws]
        per_process[name] = values
        value = (statistics.median(values) if name == "setup_s"
                 else interquartile_mean(values))
        combined[name] = {"value": value, "unit": m["unit"]}
    combined["ok_frac"]["value"] = (attempted - failed) / max(attempted, 1)
    # Each shape's best time in the run: the lower quartile of its
    # per-process best times. The minimum would follow one lucky process;
    # the lower quartile still skips processes that ran slow throughout.
    best = [lower_quartile([x for x in col if x is not None])
            for col in zip(*(r["best_ns"] for r in raws))]
    ran = [(b, f) for b, f in zip(best, raws[0]["shape_flops"])
           if b is not None]
    combined["best_gflops"]["value"] = (
        sum(f for _, f in ran) / sum(b for b, _ in ran))
    if raws[0]["p50_of_best"]:
        combined["p50_us"]["value"] = statistics.median(
            b for b, _ in ran) * 1e-3
    raw = {"correct": all(r["correct"] for r in raws),
           "attempted": attempted, "failed": failed, "metrics": combined}
    return raw, per_process


def measure(workload, seed, seconds, trace, deadline):
    base = ["--workload", workload, "--seed", str(seed)]
    if trace:
        spans = os.path.join(BUILD, "spans_%s.csv" % workload)
        raw = run_binary(base + ["--seconds", str(seconds), "--trace", "1",
                                 "--spans", spans], deadline)
        wanted = PER_LAYER
        diag = {"spans_file": os.path.relpath(spans, ROOT)}
    else:
        processes = max(1, round(seconds / PROCESS_SECONDS))
        share = "%.6f" % (seconds / processes)
        raws = [run_binary(base + ["--seconds", share, "--trace", "0"],
                           deadline)
                for _ in range(processes)]
        raw, per_process = combine(raws)
        wanted = END_TO_END
        diag = {"per_process": {k: per_process[k] for k in END_TO_END}}
    metrics = pick(raw["metrics"], wanted)
    diag.update({k: v["value"] for k, v in raw["metrics"].items()
                 if k not in wanted})
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    return result, diag


def self_test():
    """Builds and runs the trace-tooling tests, then checks that
    BENCHMARK.json (when present) names exactly the metrics this script
    reports."""
    build()
    rc = subprocess.call([TRACE_TEST])
    if rc != 0:
        fail("trace tests failed")
    assert pick({"a": {"value": 1.5, "unit": "s"}}, {"a": "s"}) == \
        {"a": {"value": 1.5, "unit": "s"}}
    assert interquartile_mean([9, 1, 2, 3, 4, 5, 6, 100]) == 4.5
    def proc(correct, failed, setup, best_ns):
        return {"correct": correct, "attempted": 10, "failed": failed,
                "p50_of_best": True, "best_ns": best_ns,
                "shape_flops": [1000.0, 3000.0],
                "metrics": {"setup_s": {"value": setup, "unit": "s"},
                            "ok_frac": {"value": 1.0, "unit": "frac"},
                            "p50_us": {"value": 9.0, "unit": "us"},
                            "best_gflops": {"value": 1.0, "unit": "GFLOP/s"}}}
    raw, per = combine([proc(True, 0, 1.0, [100.0, None]),
                        proc(True, 0, 1.0, [100.0, 400.0]),
                        proc(False, 5, 3.0, [200.0, 300.0])])
    assert raw["attempted"] == 30 and raw["failed"] == 5
    assert raw["correct"] is False
    assert raw["metrics"]["ok_frac"]["value"] == 25 / 30
    assert raw["metrics"]["setup_s"]["value"] == 1.0
    # Lower quartiles: shape 0 of [100, 100, 200] -> 100, shape 1 of
    # [400, 300] -> 275.
    assert raw["metrics"]["best_gflops"]["value"] == 4000.0 / 375.0
    assert raw["metrics"]["p50_us"]["value"] == 0.1875
    assert lower_quartile([]) is None and lower_quartile([7.0]) == 7.0
    assert per["setup_s"] == [1.0, 1.0, 3.0]
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        names = [w["name"] for w in spec["workloads"]]
        if e2e != END_TO_END or layers != PER_LAYER or \
                not set(names) <= set(WORKLOADS):
            fail("BENCHMARK.json and run.py disagree on metrics or workloads")
    print("self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    result, diag = measure(args.workload, args.seed, args.seconds, args.trace,
                           deadline)
    print("diagnostics: " + json.dumps(diag, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
