#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload hpc_census|spark_suite|blob_ckpt \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (a CMake package that compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls only re-check the build. Build output goes to stderr.
The benchmark's stdout is passed through unchanged: its last line is the
JSON verdict. Result and span files go to <build root>/perfbench-out/.

--seconds may be at most MAX_SECONDS, so that a run (warm-up and baseline
passes included) ends well inside RUN_TIMEOUT_S even on a slowed host.

Exit codes: the benchmark's own (0, or 1 when a correctness gate failed),
2 when the build fails or the arguments are bad, 3 when the benchmark
overruns its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hpc_census", "spark_suite", "blob_ckpt")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
MAX_SECONDS = 60


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(build_dir):
    """Configure (once) and build the benchmark; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: build step failed: {exc}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be in (0, {MAX_SECONDS}]")

    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        return 2
    out_dir = os.path.join(root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    # Keep the run-metadata probe (git rev-parse) from searching above the
    # checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
