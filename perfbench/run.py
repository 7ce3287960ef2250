#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/
(or $CARGO_TARGET_DIR when set); later runs only rebuild what changed.
Build output goes to stderr; the binary's stdout is passed through, so
its last line is the result JSON.  Exits non-zero when the build
fails, the binary fails or times out, or its result line is malformed.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("iter_long_rows", "iter_short_rows", "serve_mixed")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", out, "-G", "Unix Makefiles",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", BUILD_JOBS],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(out, "dtc_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("benchmark binary timed out", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(stdout)
        print(f"benchmark binary failed (exit {proc.returncode})"
              " without a result", file=sys.stderr)
        return proc.returncode or 1
    # A failed output check still prints its result (correct: false)
    # and exits non-zero.
    sys.stdout.write(stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
