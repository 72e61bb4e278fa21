#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload <name> --seeds 1,2,3,4,5 \
        [--seconds 20] [--trace 0|1]

Runs perfbench/run.py once per seed (repeat a seed to measure identical
runs), one run at a time, and prints for every metric its median, min, max
and the spread the acceptance rule uses: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median. A count whose spread is 0 over identical runs repeats exactly; any
other count varies with thread interleaving and cannot carry a claim.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated; repeats allowed")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    values = {}
    units = {}
    for seed in args.seeds.split(","):
        proc = subprocess.run([sys.executable, run_py, "--workload", args.workload,
                               "--seed", seed, "--seconds", args.seconds,
                               "--trace", args.trace],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("seed %s: run failed with code %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print("seed %s: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print("%-36s %14s %14s %14s %8s" % ("metric", "median", "min", "max", "spread"))
    for name, v in values.items():
        med = statistics.median(v)
        spread = float("nan")
        if len(v) >= 2 and med != 0:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / abs(med)
        print("%-36s %14.4f %14.4f %14.4f %8.3f %s" % (name, med, min(v), max(v), spread,
                                                       units[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
