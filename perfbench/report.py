"""Regenerate the figures in perfbench/README.md.

    python3 perfbench/report.py

For every workload, runs two sets of ten untraced runs (seeds 1..10, then
11..20) and prints, per end-to-end metric, each set's median and its spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  Rows
marked "raw" give the same for the unscaled wall times that ``run.py`` writes
to standard error.  Then runs
one traced run per workload and prints its per-layer metrics.  Every run lasts
``run_seconds`` of BENCHMARK.json and runs go one at a time, so a full report
takes 63 runs.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True

import run  # noqa: E402

SEEDS = 10  # runs per set
SETS = 2
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SECONDS = json.load(f)["run_seconds"]


def one_run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=run.ROOT)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    raw = re.search(r"raw wall medians: setup (\S+) s, op (\S+) s; reference (\S+) s", proc.stderr)
    if raw:
        for name, value in zip(("raw setup_s", "raw op_p50_s", "raw reference_s"), raw.groups()):
            res["metrics"][name] = {"value": float(value)}
    return res


def main():
    print("| workload | metric | " + " | ".join(
        f"set {s + 1} median | set {s + 1} spread" for s in range(SETS)) + " |")
    print("|---|---|" + "---|---|" * SETS)
    for wl in run.WORKLOADS:
        sets = []
        for s in range(SETS):
            seeds = range(s * SEEDS + 1, (s + 1) * SEEDS + 1)
            sets.append([one_run(wl, seed, 0)["metrics"] for seed in seeds])
        for m in sets[0][0]:
            cells = []
            for runs in sets:
                vals = [r[m]["value"] for r in runs]
                med = statistics.median(vals)
                q = statistics.quantiles(vals, n=4)
                cells.append(f"{med:.4g} | {(q[2] - q[0]) / med:.3f}")
            print(f"| {wl} | {m} | " + " | ".join(cells) + " |", flush=True)
    print()
    traced = {wl: one_run(wl, 1, 1)["metrics"] for wl in run.WORKLOADS}
    print("| metric | unit | " + " | ".join(run.WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(run.WORKLOADS))
    for m, (unit, _) in run.PER_LAYER.items():
        print(f"| `{m}` | {unit} | " + " | ".join(
            f"{traced[wl][m]['value']:.4g}" for wl in run.WORKLOADS) + " |")


if __name__ == "__main__":
    main()
