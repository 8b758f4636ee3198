#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds 10]
                                [--workload NAME ...] [--trace 0|1]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
on each workload and prints, per workload and metric, the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. Raw results go to
.bench_build/perfbench/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def load_bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}, []
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    return bounds, [w["name"] for w in spec["workloads"]]


def main():
    bounds, spec_workloads = load_bounds()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or spec_workloads
    out_path = os.path.join(ROOT, ".bench_build", "perfbench", "spread.jsonl")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    rows = {}
    with open(out_path, "a") as out:
        for w in workloads:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                proc = subprocess.run(
                    [sys.executable, RUN, "--workload", w, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace",
                     str(args.trace)],
                    stdout=subprocess.PIPE, text=True, cwd=ROOT)
                lines = proc.stdout.splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit("run failed: %s seed %d" % (w, seed))
                result = json.loads(lines[-1])
                diag = lines[-2] if len(lines) > 1 else ""
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "result": result,
                                      "diagnostics": diag}) + "\n")
                rows.setdefault(w, []).append(result)
    print("| workload | metric | median | q1 | q3 | (q3-q1)/median | bound |")
    print("|---|---|---|---|---|---|---|")
    for w, results in rows.items():
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print("| %s | %s | %.6g | %.6g | %.6g | %.4f | %s |" % (
                w, name, med, q1, q3, rel, "-" if bound is None else bound))
        ok = all(r["correct"] for r in results)
        print("| %s | correct on every run | %s | | | | |" % (w, ok))


if __name__ == "__main__":
    main()
