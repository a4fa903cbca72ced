#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/selfcheck.py

Run from the repository root.  Checks, on small inputs:
  1. every workload, untraced, on two seeds: the result line has exactly the
     contract's keys, no failed operation, and every end-to-end metric of
     BENCHMARK.json with its unit and a non-zero value;
  2. every workload, traced: every per-layer metric with its unit, and
     non-zero values for the metrics the workload exercises (LAYERS below,
     the layer -> workload map of README.md);
  3. a planted mismatch (one report dropped in a sink wrapper) makes every
     workload's output gate fail with exit status 3, naming the workload;
  4. a directory holding only BENCHMARK.json and perfbench/ makes run.py
     fail without printing a result.
Exits non-zero if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics each workload must report as non-zero.
LAYERS = {
    "q135-trace": [
        "runtime.demux_ns_per_pkt", "runtime.barrier_ms_p50",
        "runtime.jit_recompiles", "runtime.finish_ms",
        "core.phv_load_ns_per_pkt", "core.init_ns_per_pkt",
        "core.install_ms_p50", "core.withdraw_ms_p50",
        "compile.fused_ns_per_pkt", "compile.fused_pkt_frac",
        "compile.run_len_mean", "compile.build_ms",
        "compile.hash_lanes_per_pkt", "dataplane.interp_ns_per_pkt",
        "analyzer.ns_per_report", "analyzer.reports_per_kpkt",
        "workload.report_delay_ms_p95"],
    "detect-pcap": [
        "ingest.pull_ns_per_pkt", "ingest.skipped_frac",
        "runtime.demux_ns_per_pkt", "runtime.barrier_ms_p50",
        "runtime.finish_ms", "core.phv_load_ns_per_pkt",
        "core.init_ns_per_pkt", "core.install_ms_p50",
        "compile.generic_ns_per_pkt", "compile.generic_pkt_frac",
        "compile.run_len_mean", "compile.build_ms",
        "dataplane.interp_ns_per_pkt", "analyzer.ns_per_report",
        "analyzer.reports_per_kpkt", "detect.precision", "detect.recall",
        "workload.multi_query_frac", "workload.report_delay_ms_p95"],
    "tenant-churn": [
        "runtime.demux_ns_per_pkt", "runtime.barrier_ms_p50",
        "runtime.mutation_barrier_ms_p50", "runtime.jit_recompiles",
        "runtime.finish_ms", "core.init_ns_per_pkt", "core.install_ms_p50",
        "compile.fused_pkt_frac", "compile.generic_pkt_frac",
        "compile.build_ms", "dataplane.interp_ns_per_pkt",
        "dataplane.interp_pkt_frac", "intent.install_ms_p50",
        "intent.install_ms_p95", "analyzer.ns_per_report",
        "workload.report_delay_ms_p95"],
    "fleet-k16": [
        "core.switch_ns_per_hop", "net.route_us_per_pkt", "net.hop_us",
        "net.hops_per_pkt", "net.sp_bytes_per_pkt", "net.agg_ns_per_report",
        "net.agg_compression", "net.place_ms_p50", "net.replace_scope_frac",
        "net.reconverge_ms_p50", "net.reconverge_ms_p95",
        "intent.install_ms_p50", "intent.install_ms_p95",
        "analyzer.ns_per_report", "analyzer.reports_per_kpkt",
        "workload.report_delay_ms_p95"],
}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(cwd, workload, seed, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=900, check=False)


def result_of(res):
    try:
        return json.loads(res.stdout.decode().rstrip("\n").split("\n")[-1])
    except (ValueError, IndexError):
        return None


def check_result(workload, res, defs, must_be_nonzero, label):
    out = result_of(res)
    check(res.returncode == 0 and out is not None,
          f"{workload} {label}: exit 0 with a result line")
    if out is None:
        return
    check(set(out) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} {label}: result keys")
    check(out["correct"] is True and out["failed"] == 0 and
          out["attempted"] >= 1, f"{workload} {label}: correct, 0 failed")
    units = {d["name"]: d["unit"] for d in defs}
    got = out["metrics"]
    check(set(got) == set(units), f"{workload} {label}: metric names")
    check(all(got[n]["unit"] == u for n, u in units.items() if n in got),
          f"{workload} {label}: metric units")
    zero = [n for n in must_be_nonzero if got.get(n, {}).get("value", 0) == 0]
    check(not zero, f"{workload} {label}: non-zero {zero or 'all'}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = spec["end_to_end"]
    per_layer = spec["per_layer"]
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(LAYERS), "workloads match LAYERS")

    for w in names:
        for seed in (1, 2):
            check_result(w, run(ROOT, w, seed, 0), e2e,
                         [m["name"] for m in e2e], f"seed {seed} untraced")
        check_result(w, run(ROOT, w, 1, 1), per_layer, LAYERS[w], "traced")
        res = run(ROOT, w, 1, 0, "--plant-drop")
        err = res.stderr.decode()
        check(res.returncode == 3 and result_of(res) is None and
              f"output gate FAILED: workload {w}," in err,
              f"{w}: planted report drop trips the output gate")

    skeleton = os.path.join(ROOT, ".bench_build", "skeleton")
    shutil.rmtree(skeleton, ignore_errors=True)
    os.makedirs(skeleton)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), skeleton)
    shutil.copytree(HERE, os.path.join(skeleton, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = run(skeleton, names[0], 1, 0)
    check(res.returncode != 0 and result_of(res) is None,
          "benchmark alone (no sources) fails without a result")
    shutil.rmtree(skeleton, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
