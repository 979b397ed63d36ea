#!/usr/bin/env python3
"""Builds and runs the synthesis-flow benchmark (see perfbench/README.md).

One measured run:

    python3 perfbench/run.py --workload grid_cover --seed 1 --seconds 20 --trace 0

builds the library and adc_perfbench from the checkout's sources into
.bench_build/, runs one workload and prints its report; the last
line of stdout is the JSON result.

Steadiness report:

    python3 perfbench/run.py --workload grid_encode --steadiness 5

repeats the run with seeds 1..5 (add --trace 1 for the per-layer metrics)
and prints each metric's median and quartile spread, with each end-to-end
metric's spread against a third of its bound in BENCHMARK.json.  It exits
non-zero when a run fails or when an exact metric differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "adc_perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Metrics that are counts or means of counts: they must be identical in
# every run, whatever the seed.
EXACT = {
    "verified_share", "design_literals", "design_products", "design_states",
    "design_channels", "design_latency_ticks", "transforms.gt3.arcs_removed",
    "transforms.gt5.channels_merged", "extract.states", "ltrans.states_removed",
    "logic.encode.state_bits", "logic.memo.hits", "logic.netlist_violations",
    "sim.events", "sim.deadlocks", "runtime.stage_cache.hits",
}


def build():
    """Configures (once) and builds adc_perfbench; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "adc_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace, programs):
    """Runs adc_perfbench once; returns (stdout text, parsed result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if programs:
        cmd += ["--programs", programs]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: adc_perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        sys.exit("perfbench: malformed result line")
    return proc.stdout, result


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    runs = []
    for i in range(args.steadiness):
        seed = args.seed + i
        _, result = run_once(args.workload, seed, args.seconds, args.trace, args.programs)
        runs.append(result)
        print("run %d seed %d: correct=%s attempted=%d failed=%d" % (
            i + 1, seed, result["correct"], result["attempted"], result["failed"]), flush=True)
    ok = all(r["correct"] for r in runs)
    print("%-32s %14s %10s %8s  %s" % ("metric", "median", "unit", "spread", "verdict"))
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        verdict = ""
        if name in EXACT:
            verdict = "exact" if len(set(values)) == 1 else "NOT EXACT"
            ok = ok and verdict == "exact"
        elif name in bounds:
            verdict = "bound %.2f, %s a third" % (
                bounds[name], "within" if spread < bounds[name] / 3 else "ABOVE")
        print("%-32s %14.6g %10s %8.4f  %s" % (name, med, first["unit"], spread, verdict))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--programs", default="",
                    help="random_programs seed list, e.g. 1-8 or 101-108 (default 1-8)")
    ap.add_argument("--steadiness", type=int, default=0, metavar="RUNS",
                    help="repeat the run RUNS times and report medians and spreads")
    args = ap.parse_args()
    build()
    if args.steadiness:
        return steadiness(args)
    out, _ = run_once(args.workload, args.seed, args.seconds, args.trace, args.programs)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
