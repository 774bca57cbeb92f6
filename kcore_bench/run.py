#!/usr/bin/env python3
"""Builds kcore_bench from source and runs one workload of the benchmark.

Run from the root of a checkout:

    python3 kcore_bench/run.py --workload peel-deep --seed 1 --seconds 10 --trace 0

The first run configures and builds a Release tree in .bench_build/kcore_bench
(about a minute on 4 cores); later runs only re-link what changed. The run
prints kcore_bench's `name value unit` lines and, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list; with --trace 1 they are its
per_layer list, and a chrome trace is written to
.bench_build/traces/<workload>-seed<seed>.json (open it in Perfetto).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "kcore_bench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "kcore_bench")
# A measured run takes about --seconds plus input generation and set-up;
# anything near this means the run is wedged.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the Release kcore_bench binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources at src/: run from a full checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "kcore_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_binary(binary, workload, seed, seconds, trace_path=None, smoke=False):
    """Runs kcore_bench once; returns (exit code, stdout lines)."""
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace_path:
        cmd.append(f"--trace={trace_path}")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    return proc.returncode, out.splitlines()


def parse_metrics(lines):
    """`name value unit` lines -> {name: (value, unit)}; '#' lines are notes."""
    metrics = {}
    for line in lines:
        parts = line.split()
        if len(parts) != 3 or line.startswith("#"):
            continue
        metrics[parts[0]] = (float(parts[1]), parts[2])
    return metrics


def select(spec, metrics, traced):
    """The metrics BENCHMARK.json asks for in this mode, with their units.

    A per-layer metric of a layer the workload does not run (the cluster on
    peel-deep, the server on the peel workloads) reads 0.
    """
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    selected = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in metrics:
            value, printed_unit = metrics[name]
            if printed_unit != unit:
                raise BenchError(f"{name}: printed unit {printed_unit}, "
                                 f"BENCHMARK.json says {unit}")
        elif traced:
            value = 0.0
        else:
            raise BenchError(f"end-to-end metric {name} was not reported")
        if not math.isfinite(value):
            raise BenchError(f"{name} is {value}")
        selected[name] = {"value": value, "unit": unit}
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload}")
        build()
        trace_path = None
        if args.trace:
            os.makedirs(TRACE_DIR, exist_ok=True)
            trace_path = os.path.join(
                TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
        code, lines = run_binary(BINARY, args.workload, args.seed,
                                 args.seconds, trace_path)
        for line in lines:
            print(line)
        metrics = parse_metrics(lines)
        # Exit 3 means the run finished but an answer disagreed with the BZ
        # oracle: report it as incorrect. Any other failure has no result.
        if code not in (0, 3):
            raise BenchError(f"kcore_bench exited with {code}")
        result = {
            "correct": code == 0 and metrics["mismatches"][0] == 0,
            "attempted": int(metrics["attempted"][0]),
            "failed": int(metrics["failed"][0]),
            "metrics": select(spec, metrics, bool(args.trace)),
        }
    except (BenchError, subprocess.CalledProcessError, OSError,
            KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
