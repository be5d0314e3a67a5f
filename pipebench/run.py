#!/usr/bin/env python3
"""Pipeline benchmark entry point.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pipebench/run.py --selftest

Run from the repository root. Builds the benchmark (pipebench/CMakeLists.txt,
which compiles the repository's own sources) into .bench_build/pipebench, runs
one workload in a fresh scratch directory under .bench_build, and prints the
benchmark's JSON result as the last line of stdout. Build output and
diagnostics go to stderr. The exit status is the benchmark's: 0 only when every
operation succeeded and every exact count repeated. The metric names printed
must be exactly the ones BENCHMARK.json lists (end_to_end for --trace 0,
per_layer for --trace 1); anything else is an error and prints no result.

--selftest builds and runs the tests of the benchmark's own helpers.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "pipebench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configure (once) and build `targets`; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args):
    build(["pipebench"])
    work = BUILD_ROOT / "pipebench-work" / f"{args.workload}-{os.getpid()}"
    spans = BUILD_ROOT / "pipebench-spans" / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(BUILD_DIR / "pipebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if args.trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{args.workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 1
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        log(f"metric names differ from BENCHMARK.json: got {sorted(result['metrics'])}, "
            f"want {sorted(want)}")
        return 1
    if args.trace:
        log(f"spans written to {spans}")
    print(lines[-1], flush=True)
    return proc.returncode


def selftest():
    """The helper tests, plus a check that metrics.json documents exactly the
    workloads and per-layer metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = json.loads((BENCH_DIR / "metrics.json").read_text())
    ok = True
    for section, key in (("workloads", "workloads"), ("per_layer", "per_layer")):
        listed = sorted(m["name"] for m in spec[key])
        if sorted(doc[section]) != listed:
            log(f"metrics.json {section} differ from BENCHMARK.json: "
                f"{sorted(set(listed) ^ set(doc[section]))}")
            ok = False
    build(["pipebench_test"])
    rc = subprocess.run([str(BUILD_DIR / "pipebench_test")], stdout=sys.stderr).returncode
    return rc if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload",
                    choices=["identify", "reanalyze", "checkpoint-restart", "remote"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            ap.error("--workload is required")
        return run_workload(args)
    except (subprocess.CalledProcessError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
