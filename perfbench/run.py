"""hasts benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run repeats rounds of one workload,
each in a fresh process (``worker.py``) that does the set-up and a fixed
number of timed ops, until another round would not end within S seconds;
at least one round runs, and a traced run makes at least two.  Every round
of a run uses the same seed, so rounds are repeats of the same inputs.

Every end-to-end time is host-speed scaled.  On a shared virtual machine
the speed of the host can drift by a factor of up to 2 over minutes, and all
code slows about alike.  Each round times a fixed reference loop
(``worker.reference``, three times) before every op and after the last, and
the round's set-up and op times are multiplied by ``REF_S`` over the median
of its reference times.  A time then reads as seconds on a host where the
reference loop takes ``REF_S``.  The raw medians go to standard error.

With ``--trace 0`` the last line of output holds the end-to-end metrics.
With ``--trace 1`` rounds alternate untraced and traced; the per-layer
metrics come from the traced rounds, averaged per op, and
``trace.overhead_s`` is the mean scaled traced op time minus the mean scaled
untraced op time; the other per-layer times are not scaled.  The spans of
the traced rounds are written to ``.perfbench_out/trace-WORKLOAD-sSEED.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import monotonic

sys.dont_write_bytecode = True

import layertrace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("adaptive-skew", "refine-deep", "extract-solve")
ROUND_TIMEOUT_S = 170
REF_S = 0.03  # a typical reference loop time on the host of the README figures

# per-layer metric -> (unit, how it is computed from the traced rounds)
COUNT, SEC = "count/op", "s/op"
PER_LAYER = {
    "tmesh.suitability_calls": (COUNT, ("calls", "tmesh.suitability")),
    "tmesh.suitability_s": (SEC, ("total", "tmesh.suitability")),
    "tmesh.extended_calls": (COUNT, ("calls", "tmesh.extended")),
    "tmesh.extended_s": (SEC, ("total", "tmesh.extended")),
    "tmesh.validate_s": (SEC, ("total", "tmesh.validate")),
    "basis.spaces_built": (COUNT, ("calls", "basis.space")),
    "basis.functions_built": (COUNT, ("counts", "basis.functions_built")),
    "basis.space_s": (SEC, ("total", "basis.space")),
    "hierarchy.refine_calls": (COUNT, ("calls", "hierarchy.refine")),
    "hierarchy.refine_s": (SEC, ("total", "hierarchy.refine")),
    "hierarchy.refine_self_s": (SEC, ("self", "hierarchy.refine")),
    "hierarchy.levels_created": (COUNT, ("calls", "hierarchy.subdivide")),
    "hierarchy.subdivide_s": (SEC, ("total", "hierarchy.subdivide")),
    "hierarchy.build_calls": (COUNT, ("calls", "hierarchy.build")),
    "hierarchy.build_s": (SEC, ("total", "hierarchy.build")),
    "hierarchy.in_domain_calls": (COUNT, ("calls", "hierarchy.in_domain")),
    "hierarchy.in_domain_s": (SEC, ("total", "hierarchy.in_domain")),
    "hierarchy.bezier_cells_s": (SEC, ("total", "hierarchy.bezier_cells")),
    "hierarchy.level_functions": ("count", None),
    "hierarchy.active_ratio": ("ratio", None),
    "extraction.elements": (COUNT, ("counts", "extraction.elements")),
    "extraction.extract_s": (SEC, ("total", "extraction.extract")),
    "extraction.ien_s": (SEC, ("total", "extraction.ien")),
    "extraction.coeff_cache_hit_ratio": ("ratio", None),
    "iga.dofs": (COUNT, ("counts", "iga.dofs")),
    "iga.discretize_s": (SEC, ("total", "iga.discretize")),
    "iga.assemble_s": (SEC, ("total", "iga.assemble")),
    "iga.dirichlet_s": (SEC, ("total", "iga.dirichlet")),
    "iga.linear_solve_s": (SEC, ("total", "iga.linear_solve")),
    "iga.estimate_s": (SEC, ("total", "iga.estimate")),
    "cli.output_s": (SEC, None),
    "cli.sample_field_s": (SEC, ("total", "cli.sample_field")),
    "cli.bytes_written": ("B/op", None),
    "trace.overhead_s": (SEC, None),
}


def worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_round(workload, seed, size, traced, workdir, env):
    """Start one worker in its own process group, wait for it, and return
    its JSON result; the whole group is killed if it overruns."""
    spawned_at = monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), size,
           "1" if traced else "0", repr(spawned_at), workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # nothing the round started may outlive it
    except ProcessLookupError:
        pass
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    res = json.loads(out.decode().strip().splitlines()[-1])
    res["wall_s"] = monotonic() - spawned_at
    return res


def run_rounds(workload, seed, seconds, trace, size="full"):
    """Rounds until the next one would end after ``seconds``."""
    env = worker_env()
    workdir = os.path.join(OUT, f"{workload}-s{seed}-{os.getpid()}")
    rounds = []
    start = monotonic()
    try:
        while True:
            traced = trace and len(rounds) % 2 == 1
            rounds.append(run_round(workload, seed, size, traced, workdir, env))
            rounds[-1]["traced"] = traced
            elapsed = monotonic() - start
            if trace and len(rounds) < 2:
                continue
            if elapsed + rounds[-1]["wall_s"] > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rounds


def scale(r):
    """Factor that brings the times of round ``r`` to the reference speed."""
    return REF_S / statistics.median(r["refs"])


def op_times(rounds):
    """Host-speed scaled op times of the rounds."""
    return [op["t"] * scale(r) for r in rounds for op in r["ops"]]


def end_to_end(rounds):
    plain = [r for r in rounds if not r["traced"]]
    times = op_times(plain)
    elements = sum(op["n_e"] for r in plain for op in r["ops"])
    rss = [kib / 1024 for r in plain for kib in r["rss_kib"]]
    raw = (statistics.median(r["setup_s"] for r in plain),
           statistics.median(op["t"] for r in plain for op in r["ops"]),
           statistics.median(t for r in plain for t in r["refs"]))
    print("raw wall medians: setup %.4g s, op %.4g s; reference %.4g s" % raw, file=sys.stderr)
    return {
        "setup_s": {"value": statistics.median(r["setup_s"] * scale(r) for r in plain), "unit": "s"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
        "elements_per_s": {"value": elements / sum(times), "unit": "1/s"},
        "peak_rss_mib": {"value": statistics.median(rss), "unit": "MiB"},
    }


def per_layer(rounds):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    rep = layertrace.merge_reports(r["trace"]["report"] for r in traced)
    hits = sum(r["trace"]["cache"][0] for r in traced)
    misses = sum(r["trace"]["cache"][1] for r in traced)
    nbytes = sum(r["trace"]["bytes_written"] for r in traced)
    n_ops = sum(len(r["ops"]) for r in traced)

    def mean_t(rs):
        ts = op_times(rs)
        return sum(ts) / len(ts)

    counts = rep["counts"]
    spaces = counts.get("hierarchy.spaces", 0)
    level_fns = counts.get("hierarchy.level_functions", 0)
    derived = {
        "hierarchy.level_functions": level_fns / spaces if spaces else 0.0,
        "hierarchy.active_ratio": counts.get("hierarchy.n_f", 0) / level_fns if level_fns else 0.0,
        "extraction.coeff_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cli.output_s": (rep["total"].get("cli.main", 0.0)
                         - rep["total"].get("iga.adaptive_loop", 0.0)) / n_ops,
        "cli.bytes_written": nbytes / n_ops,
        "trace.overhead_s": mean_t(traced) - mean_t(plain),
    }
    metrics = {}
    for name, (unit, src) in PER_LAYER.items():
        value = derived[name] if src is None else rep[src[0]].get(src[1], 0) / n_ops
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def write_spans(workload, seed, rounds):
    """One span list per traced process; a span's parent indexes its own list."""
    lists = [s for r in rounds if r["traced"] for s in r["trace"]["spans"] if s]
    path = os.path.join(OUT, f"trace-{workload}-s{seed}.json")
    with open(path, "w") as f:
        json.dump({"fields": ["name", "start", "end", "parent"], "processes": lists}, f)


def summarize(rounds, trace):
    ops = [op for r in rounds for op in r["ops"]]
    failed = sum(1 for op in ops if op["errors"])
    run_errors = [e for r in rounds for e in r["run_errors"]]
    for msg in [e for op in ops for e in (op["errors"] or [])] + run_errors:
        print("check failed:", msg, file=sys.stderr)
    return {
        "correct": failed == 0 and not run_errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": per_layer(rounds) if trace else end_to_end(rounds),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hasts", "__init__.py")):
        print(f"error: no hasts sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        write_spans(args.workload, args.seed, rounds)
    print(json.dumps(summarize(rounds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
