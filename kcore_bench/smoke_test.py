#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload in BENCHMARK.json, untraced
and traced, with --smoke (one pass or one short window on the same inputs).

    python3 kcore_bench/smoke_test.py <path to kcore_bench>

Passes when every run exits 0, every workload prints every end-to-end
metric, and every per-layer metric is printed by at least one workload (a
workload that does not run a layer reports it as 0).
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = sys.argv[1]
    spec = run.load_spec()
    per_layer_seen = set()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            for traced in (False, True):
                trace = os.path.join(tmp, workload + ".json") if traced else None
                code, lines = run.run_binary(binary, workload, seed=1,
                                             seconds=1, trace_path=trace,
                                             smoke=True)
                label = f"{workload} ({'traced' if traced else 'untraced'})"
                if code != 0:
                    problems.append(f"{label}: exit {code}")
                    continue
                printed = run.parse_metrics(lines)
                if traced:
                    per_layer_seen.update(printed)
                    if not os.path.isfile(trace):
                        problems.append(f"{label}: no trace written")
                    continue
                try:
                    run.select(spec, printed, traced=False)
                except run.BenchError as e:
                    problems.append(f"{label}: {e}")
    for entry in spec["per_layer"]:
        if entry["name"] not in per_layer_seen:
            problems.append(f"per-layer metric {entry['name']} is printed by "
                            "no workload")
    for problem in problems:
        print("FAIL", problem)
    print("kcore_bench_smoke:", "FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
