#!/usr/bin/env python3
"""The serving benchmark: builds spotcache from source and runs one workload.

    python3 perfbench/run.py --workload proxied_zipf --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds an
optimized tree (the spotcache libraries, spotcache_server, spotcache_proxy
and the perfbench harness) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs reuse it. Build output goes to stderr.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(see perfbench/src/main.cc for what each run does). Every metric is printed
by name and unit; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics, whose names and units are checked
against BENCHMARK.json. Each run's full output, with the machine's core
count, the build type and a digest of the sources, is also kept in the
build directory as result-<workload>-<seed>-<trace>.txt.
"""

import argparse
import ctypes
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TYPE = "Release"
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die_with_parent():
    """Children (and their children) must not outlive the benchmark."""
    libc = ctypes.CDLL("libc.so.6", use_errno=True)
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def source_digest():
    """Identifies the code measured: the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
           "--target", "perfbench", "spotcache_server", "spotcache_proxy"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1
    expected = expected_metrics(args.trace)

    cmd = [os.path.join(build_dir, "perfbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--server={os.path.join(build_dir, 'spotcache_server')}",
           f"--proxy={os.path.join(build_dir, 'spotcache_proxy')}",
           f"--work-dir={build_dir}"]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=HARNESS_TIMEOUT_S,
                             preexec_fn=die_with_parent)
    except subprocess.TimeoutExpired:
        log(f"harness timed out after {HARNESS_TIMEOUT_S} s")
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        log(f"harness exited with {run.returncode}")
        return 1
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected or set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"result does not match BENCHMARK.json: {sorted(got.items())}")
        return 1

    meta = {"nproc": os.cpu_count(), "build_type": BUILD_TYPE,
            "source_digest": source_digest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    report = [f"# meta {json.dumps(meta)}"] + lines
    name = f"result-{args.workload}-{args.seed}-{args.trace}.txt"
    with open(os.path.join(build_dir, name), "w") as f:
        f.write("\n".join(report) + "\n")
    print("\n".join(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
