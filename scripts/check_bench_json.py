#!/usr/bin/env python3
"""Validate bench --json baselines and metrics snapshots.

Two modes:

  check_bench_json.py BENCH_*.json ...
      Validate each file against the bench results schema (EXPERIMENTS.md):
      a `meta` object with bench/git_rev/build_type/sanitizer/
      hardware_threads, and a `results` array whose rows carry the numeric
      per-benchmark fields.

  check_bench_json.py --metrics FILE --require SERIES [SERIES ...]
      Validate FILE as a metrics snapshot (obs::MetricsSnapshot::to_json)
      and fail unless every required series name is present among its
      counters/gauges/histograms.

  check_bench_json.py --metrics FILE --require-nonzero SERIES [SERIES ...]
      As --require, and each series must also have moved: a counter or
      gauge above 0, a histogram with a count above 0. Both flags may be
      given together.

  check_bench_json.py --same-sim A.json B.json
      Validate both files as bench results, then fail unless they hold the
      same rows and every row's sim_* fields are exactly equal: two runs of
      a bench whose simulated columns are functions of the model only.

Exit code 0 on success; 1 with a message on the first violation.
"""

import argparse
import json
import sys

META_FIELDS = {
    "bench": str,
    "git_rev": str,
    "build_type": str,
    "sanitizer": str,
    "hardware_threads": int,
}

RESULT_FIELDS = {
    "name": str,
    "iterations": int,
    "ns_per_op": (int, float),
    "bytes_per_s": (int, float),
    "sim_us_per_op": (int, float),
    "sim_p50_us": (int, float),
    "sim_p99_us": (int, float),
}


def fail(msg):
    print(f"check_bench_json: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def check_bench_file(path):
    doc = load(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        fail(f"{path}: missing meta object")
    for field, typ in META_FIELDS.items():
        if not isinstance(meta.get(field), typ):
            fail(f"{path}: meta.{field} missing or not {typ.__name__}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        fail(f"{path}: results missing or empty")
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            fail(f"{path}: results[{i}] is not an object")
        for field, typ in RESULT_FIELDS.items():
            if not isinstance(row.get(field), typ):
                fail(f"{path}: results[{i}].{field} missing or wrong type")
        if row["iterations"] <= 0:
            fail(f"{path}: results[{i}].iterations must be positive")
        if row["ns_per_op"] < 0:
            fail(f"{path}: results[{i}].ns_per_op must be non-negative")
    print(f"{path}: OK ({len(results)} results)")
    return results


def check_same_sim(path_a, path_b):
    a, b = ({row["name"]: row for row in check_bench_file(p)} for p in (path_a, path_b))
    if a.keys() != b.keys():
        fail(f"{path_a} and {path_b} hold different rows: "
             f"{', '.join(sorted(a.keys() ^ b.keys()))}")
    for name, row in a.items():
        for field in sorted(f for f in row.keys() | b[name].keys() if f.startswith("sim_")):
            if row.get(field) != b[name].get(field):
                fail(f"{name}.{field} differs: {row.get(field)} in {path_a}, "
                     f"{b[name].get(field)} in {path_b}")
    print(f"{path_a} == {path_b}: sim columns identical ({len(a)} rows)")


def series_value(doc, name):
    """A counter's or gauge's value, or a histogram's count; None if absent."""
    if name in doc["counters"]:
        return doc["counters"][name]
    if name in doc["gauges"]:
        return doc["gauges"][name]
    if name in doc["histograms"]:
        return doc["histograms"][name].get("count")
    return None


def check_metrics_file(path, required, nonzero):
    doc = load(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    meta = doc.get("meta")
    if not isinstance(meta, dict) or meta.get("source") != "bsc-metrics":
        fail(f"{path}: meta.source != bsc-metrics")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            fail(f"{path}: missing {section} object")
    if not isinstance(doc.get("slow_ops"), list):
        fail(f"{path}: missing slow_ops array")
    present = set(doc["counters"]) | set(doc["gauges"]) | set(doc["histograms"])
    missing = [s for s in required + nonzero if s not in present]
    if missing:
        fail(f"{path}: missing required series: {', '.join(missing)}")
    zero = [f"{s}={series_value(doc, s)}" for s in nonzero
            if not isinstance(series_value(doc, s), (int, float)) or series_value(doc, s) <= 0]
    if zero:
        fail(f"{path}: series required nonzero are not: {', '.join(zero)}")
    print(f"{path}: OK ({len(present)} series, {len(required)} required present, "
          f"{len(nonzero)} required nonzero)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="*", help="bench BENCH_*.json files to validate")
    ap.add_argument("--metrics", help="metrics snapshot file to validate instead")
    ap.add_argument("--require", nargs="*", default=[],
                    help="series that must exist in the --metrics snapshot")
    ap.add_argument("--require-nonzero", nargs="*", default=[],
                    help="series that must exist and be nonzero (counter/gauge "
                         "value, histogram count) in the --metrics snapshot")
    ap.add_argument("--same-sim", nargs=2, metavar=("A", "B"),
                    help="two bench json files whose sim_* columns must match "
                         "exactly, row by row")
    args = ap.parse_args()

    if args.same_sim:
        check_same_sim(*args.same_sim)
    if args.metrics:
        check_metrics_file(args.metrics, args.require, args.require_nonzero)
    if not args.metrics and not args.same_sim and not args.files:
        fail("nothing to check: pass bench json files, --metrics or --same-sim")
    for path in args.files:
        check_bench_file(path)


if __name__ == "__main__":
    main()
