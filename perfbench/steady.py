#!/usr/bin/env python3
"""Steadiness checker for the repository benchmark.

    python3 perfbench/steady.py [--runs 10] [--workload W ...] [--seed-base 1]
                                [--seconds S] [--exact]

Runs perfbench/run.py --runs times per workload, each with another seed, and
prints, for every end-to-end metric of BENCHMARK.json, the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median against the metric's bound. A metric whose spread exceeds
its bound is flagged.

--exact instead runs the single-agent workloads (hpc_census, spark_suite)
twice with one seed in traced mode and checks that their simulated figures,
space_amp and trace.calls.total repeat bit-exactly.

Run from the repository root. Exit code 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_WORKLOADS = ("hpc_census", "spark_suite")
EXACT_METRICS = ("sim_s", "fs_sim_s", "sim_read_p50_us", "sim_write_p50_us", "space_amp",
                 "trace.calls.total")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    verdict = json.loads(lines[-1])
    if not verdict["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed")
    return verdict


def result_file(workload, seed, trace):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = base if os.path.isabs(base) else os.path.join(ROOT, base)
    path = os.path.join(base, "perfbench-out", f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    values = {}
    for section in ("end_to_end", "extra", "per_layer"):
        for name, m in doc[section].items():
            values[name] = m["value"]
    return values


def spreads(spec, args):
    flagged = False
    for workload in args.workload:
        samples = {}
        for i in range(args.runs):
            seed = args.seed_base + i
            verdict = run_once(spec, workload, seed, args.seconds, 0)
            for name, m in verdict["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {args.runs} runs, seeds {args.seed_base}..{args.seed_base + args.runs - 1}")
        print(f"  {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            vals = samples.get(name, [])
            if len(vals) < 2:
                print(f"  {name:<14} missing")
                flagged = True
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metric["bound"]
            flag = ""
            if spread > bound:
                flag, flagged = "OVER BOUND", True
            print(f"  {name:<14} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound:>6.3f} {flag}")
            print("      runs: " + " ".join(f"{v:.6g}" for v in vals))
    return flagged


def exact(spec, args):
    flagged = False
    for workload in EXACT_WORKLOADS:
        runs = []
        for _ in range(2):
            run_once(spec, workload, args.seed_base, args.seconds, 1)
            runs.append(result_file(workload, args.seed_base, 1))
        for name in EXACT_METRICS:
            a, b = runs[0].get(name), runs[1].get(name)
            ok = a is not None and a == b
            flagged |= not ok
            print(f"{workload:<12} {name:<18} {a!r:>22} {b!r:>22} {'exact' if ok else 'DIFFERS'}")
    return flagged


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--exact", action="store_true")
    args = ap.parse_args()
    flagged = exact(spec, args) if args.exact else spreads(spec, args)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
