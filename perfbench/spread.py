#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--trace 0|1] [--seconds S]

For every workload and metric: the median over the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median.  End-to-end metrics are flagged when that spread is not below
a third of the metric's bound in BENCHMARK.json (setup_s is exempt, as in
the acceptance rule).  Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, check=False, cwd=ROOT)
    if res.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {res.returncode}")
    return json.loads(res.stdout.decode().rstrip("\n").split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst = 0
    for w in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run(w, seed, args.seconds, args.trace)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({args.seeds} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            flag = ""
            if name in bounds and name != "setup_s":
                ok = spread < bounds[name] / 3
                flag = "ok" if ok else f"WIDE (bound/3 = {bounds[name] / 3:.3f})"
                worst |= not ok
            print(f"  {name:36s} median {med:14.6g}  spread {spread:7.4f}  "
                  f"{flag}")
            print(f"    values {[float(f'{v:.6g}') for v in vals]}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
