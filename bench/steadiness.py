"""Repeat the benchmark over several seeds and show how steady each metric is.

    python3 bench/steadiness.py --seeds 101-110 [--seconds 20] [--workloads a,b]

Runs every workload once per seed, interleaving the workloads so that slow
stretches of the host spread over all of them. For each end-to-end metric
it prints the median of the runs and the spread, i.e. the distance between
the first and third quartile as a share of the median, next to the
metric's bound in BENCHMARK.json. Every run must be correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 101-110")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict = {}
    for seed in seeds:
        for name in names:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: incorrect run", file=sys.stderr)
                return 1
            for metric, d in result["metrics"].items():
                values.setdefault((name, metric), []).append(d["value"])

    print(f"{len(seeds)} runs of {seconds:g} s per workload, seeds {seeds[0]}-{seeds[-1]}")
    print(f"{'workload':<15} {'metric':<22} {'median':>12} {'spread':>8} {'bound':>6}")
    for (name, metric), v in values.items():
        bound = bounds[metric]
        print(f"{name:<15} {metric:<22} {statistics.median(v):>12.5g} {spread(v):>8.4f} "
              f"{bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
