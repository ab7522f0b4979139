#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workloads proxied_zipf,direct_evict --seeds 1-10

Runs perfbench/run.py once per (workload, seed) with --trace 0 and the
run_seconds of BENCHMARK.json, then prints for each workload and metric the
median of the runs, the quartile spread (Q3 - Q1) / median as Python's
statistics.quantiles(values, n=4) gives the quartiles, and that spread as a
share of the metric's bound. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds(args.seeds):
            run = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = run.stdout.splitlines()
            result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", flush=True)
                continue
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print(f"== {workload}")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"{name:16s} median {med:12.4f}  spread {spread:6.3f}  "
                  f"= {spread / bounds[name]:5.2f} x bound {bounds[name]}  "
                  f"runs {len(vs)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
