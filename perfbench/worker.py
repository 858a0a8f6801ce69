"""One round of a workload in a fresh process: set-up, timed ops, checks.

    python perfbench/worker.py WORKLOAD SEED SIZE TRACED SPAWNED_AT WORKDIR

SPAWNED_AT is the ``time.monotonic()`` reading of the parent just before it
started this process, so set-up time counts interpreter start-up too.  The
last line of standard output is one JSON object with the round's results.

Before each op and after the last one, outside the timed region, the round
times ``reference()``, a fixed piece of work owned by the benchmark; ``run.py``
scales the round's times by them (see there).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from time import monotonic, perf_counter  # noqa: E402

import layertrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def reference():
    """Wall times of three runs of a fixed pure-Python integer loop (20 to
    38 ms each on the host of the README figures).  The loop allocates no containers, so neither the program's
    heap nor the garbage collector changes its time; only the host's speed
    does."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(300_000):
            acc += (i * i) % 7
        times.append(perf_counter() - t0)
    return times


def run_round(workload, seed, size, traced, spawned_at, workdir):
    wl = WORKLOADS[workload](seed, size, workdir, traced)
    tracer = layertrace.Tracer() if traced else None
    hits = misses = 0
    times, refs, failed_ops = [], [], {}
    for k in range(wl.ops):
        wl.prepare(k)
        if k == 0:
            setup_s = monotonic() - spawned_at
        refs += reference()
        restore = layertrace.install(tracer) if traced else None
        h0, m0 = layertrace.coeff_cache_info()
        t0 = perf_counter()
        try:
            wl.op(k)
        except Exception:
            failed_ops[k] = [traceback.format_exc(limit=3)]
        times.append(perf_counter() - t0)
        h1, m1 = layertrace.coeff_cache_info()
        hits, misses = hits + h1 - h0, misses + m1 - m0
        if restore is not None:
            restore()
        if k not in failed_ops:
            try:
                wl.keep(k)
            except Exception:
                failed_ops[k] = [traceback.format_exc(limit=3)]
    refs += reference()
    # read before the checks, so their own imports and arrays do not count
    rss = getattr(wl, "rss_kib", None) or [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
    ops = []
    for k, t in enumerate(times):
        errs, n_e = failed_ops.get(k), 0
        if errs is None:
            try:
                errs, n_e = wl.check(k)
            except Exception:
                errs = [traceback.format_exc(limit=3)]
        ops.append({"t": t, "n_e": n_e, "errors": errs})
    try:
        run_errors = wl.check_run() if not failed_ops else []
    except Exception:
        run_errors = [traceback.format_exc(limit=3)]
    result = {
        "setup_s": setup_s,
        "refs": refs,
        "ops": ops,
        "rss_kib": rss,
        "run_errors": run_errors,
        "trace": None,
    }
    if traced:
        reports = [tracer.report()]
        spans = [tracer.spans]  # one list per process; parents index into it
        for tfile in getattr(wl, "trace_files", []):
            with open(tfile) as f:
                child = json.load(f)
            reports.append(child["report"])
            spans.append(child["spans"])
            hits += child["cache"][0]
            misses += child["cache"][1]
        result["trace"] = {
            "report": layertrace.merge_reports(reports),
            "cache": [hits, misses],
            "bytes_written": getattr(wl, "bytes_written", 0),
            "spans": spans,
        }
    return result


def main(argv):
    workload, seed, size, traced, spawned_at, workdir = argv
    os.makedirs(workdir, exist_ok=True)
    result = run_round(workload, int(seed), size, traced == "1", float(spawned_at), workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
