#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 pipebench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs pipebench/run.py once per seed for each workload (from the repository
root), then prints, per metric, the median of the runs and the quartile
spread (Q3 - Q1) / median computed with Python's statistics.quantiles(n=4).
A metric is flagged when its spread reaches a third of its BENCHMARK.json
bound (setup_s is shown but not flagged: only its median is bounded). Exits 1
if any run failed or any metric is flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        durations = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            durations.append(time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or not result or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {len(args.seeds)} runs, {statistics.median(durations):.1f} s "
              f"median run time (max {max(durations):.1f} s)")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q = statistics.quantiles(vals, n=4)
            mid = statistics.median(vals)
            spread = (q[2] - q[0]) / mid if mid else float("inf")
            flag = name != "setup_s" and spread >= bounds[name] / 3
            ok = ok and not flag
            print(f"  {name:14s} median {mid:14.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.2f}{'  <-- over a third of the bound' if flag else ''}")
            if flag:
                print("    runs: " + " ".join(f"{v:.4g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
