#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--tiny] [--plant-drop]

Run from the repository root.  The first run configures and builds the
Newton libraries and the `perfbench` binary (Release) under .bench_build/;
later runs only rebuild what changed.  The binary's output is relayed; its
last line is the JSON result.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_BASE = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BUILD_DIR = os.path.join(ROOT, BUILD_BASE, "perfbench")
DATA_DIR = os.path.join(ROOT, BUILD_BASE, "data")
WORKLOADS = ("q135-trace", "detect-pcap", "tenant-churn", "fleet-k16")
# A first run (build + measurement) must end within 900 s, later ones in 180.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no Newton sources (src/) next to perfbench/")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT,
                                 timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return None
        if res.returncode != 0:
            log(res.stdout.decode(errors="replace")[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    exe = os.path.join(BUILD_DIR, "perfbench")
    return exe if os.access(exe, os.X_OK) else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-check scale: small inputs, one pass")
    ap.add_argument("--plant-drop", action="store_true",
                    help="drop one report in a sink wrapper; the output "
                         "gate must fail")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    os.makedirs(DATA_DIR, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", DATA_DIR]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant_drop:
        cmd.append("--plant-drop")
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                             check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    out = res.stdout.decode(errors="replace")
    if res.returncode != 0:
        sys.stdout.write(out)
        log(f"perfbench: {args.workload} exited with {res.returncode}")
        return res.returncode
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(out)
        log("perfbench: no result line")
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
