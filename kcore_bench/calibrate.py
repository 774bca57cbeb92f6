#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 kcore_bench/calibrate.py [--runs 10] [--first-seed 1]
                                     [--workloads serve-read,serve-write]

Runs every workload --runs times, interleaved and each time with another
seed, at BENCHMARK.json's run_seconds. For each end-to-end metric it prints
the median and the spread, the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. A bound is comfortable when the spread stays under a third
of it. --json writes every value measured.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--json", default="")
    args = parser.parse_args()

    spec = run.load_spec()
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    run.build()
    values = {w: {m["name"]: [] for m in spec["end_to_end"]}
              for w in workloads}
    failures = []
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            code, lines = run.run_binary(run.BINARY, workload, seed,
                                         spec["run_seconds"])
            try:
                if code != 0:
                    raise run.BenchError(f"exit {code}")
                selected = run.select(spec, run.parse_metrics(lines),
                                      traced=False)
            except run.BenchError as e:
                # A failed run has no result; the spreads use the others.
                failures.append(f"{workload} seed {seed}: {e}")
                print(failures[-1], file=sys.stderr)
                continue
            for name, metric in selected.items():
                values[workload][name].append(metric["value"])
            print(f"run {i + 1}/{args.runs} {workload} done", file=sys.stderr)

    worst = 0.0
    print(f"{'workload':14} {'metric':17} {'median':>12} {'spread':>7} "
          f"{'bound':>6}")
    for workload in workloads:
        for m in spec["end_to_end"]:
            v = values[workload][m["name"]]
            if len(v) < 2:
                print(f"{workload:14} {m['name']:17} fewer than 2 runs")
                continue
            s = spread(v)
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
            print(f"{workload:14} {m['name']:17} {statistics.median(v):12.5g} "
                  f"{s:7.2%} {m['bound']:6.0%}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    for failure in failures:
        print(f"failed run: {failure}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(values, f, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
