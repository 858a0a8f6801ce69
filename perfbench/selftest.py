"""Self-test of the benchmark at a reduced size.

    python3 perfbench/selftest.py

Runs every workload to its end (one untraced and one traced round at the
"small" size), requires every metric to be present, every end-to-end metric
to be above 0, and each per-layer metric to be above 0 exactly on the
workloads that call its layer.  Then feeds each correctness check a
deliberately corrupted output and requires it to be rejected.  Exits 0 when
everything holds.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True

import random  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import run  # noqa: E402

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import checks  # noqa: E402
from workloads import ExtractSolve  # noqa: E402

END_TO_END = ("setup_s", "op_p50_s", "elements_per_s", "peak_rss_mib")
REFINE_ACTIVE = {
    "tmesh.extended_calls", "tmesh.extended_s",
    "hierarchy.refine_calls", "hierarchy.refine_s", "hierarchy.refine_self_s",
    "hierarchy.build_calls", "hierarchy.build_s", "hierarchy.in_domain_calls",
    "hierarchy.in_domain_s", "hierarchy.bezier_cells_s",
    "hierarchy.level_functions", "hierarchy.active_ratio",
}
EXTRACT_ACTIVE = {m for m in run.PER_LAYER if m.startswith(("extraction.", "iga."))}
# per-layer metrics above 0 on each workload; all others must read exactly 0
ACTIVE = {
    "adaptive-skew": set(run.PER_LAYER) - {"trace.overhead_s"},
    "refine-deep": REFINE_ACTIVE,
    "extract-solve": EXTRACT_ACTIVE,
}

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def test_workloads():
    for wl in run.WORKLOADS:
        rounds = run.run_rounds(wl, seed=1, seconds=0, trace=True, size="small")
        plain = run.summarize(rounds, trace=False)
        traced = run.summarize(rounds, trace=True)
        expect(plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 2,
               f"{wl}: ops run to their end and pass their checks")
        e2e = plain["metrics"]
        expect(all(e2e.get(m, {}).get("value", 0) > 0 for m in END_TO_END),
               f"{wl}: every end-to-end metric present and above 0 {sorted(e2e)}")
        layer = traced["metrics"]
        expect(set(layer) == set(run.PER_LAYER), f"{wl}: every per-layer metric present")
        wrong = [
            m for m, v in layer.items()
            if m != "trace.overhead_s" and (v["value"] > 0) != (m in ACTIVE[wl])
        ]
        expect(not wrong, f"{wl}: per-layer metrics above 0 exactly on called layers {wrong}")


def test_extraction_checks():
    from hasts import benchmarks, hierarchy, iga

    space = benchmarks.tensor_space(4, 3)
    space = hierarchy.refine_by_elements(space, space.elements[:6])
    prob, _ = benchmarks.manufactured_problem()
    disc = iga.Discretization(space)
    coeffs = iga.solve(prob, disc)
    knots = checks.function_knots(space)
    elems = dict(enumerate(disc.elems))
    expect(not checks.check_extraction(knots, elems), "extraction check accepts C^e")
    expect(not checks.check_ien(knots, elems), "IEN check accepts the IEN")
    pts = np.random.default_rng(0).random((64, 2))
    bound = ExtractSolve.error_bound(4)
    expect(not checks.check_manufactured(knots, coeffs, pts, bound), "solution check accepts")

    bad = SimpleNamespace(**vars(disc.elems[3]))
    bad.C = bad.C.copy()
    bad.C[0, 1] += 1e-9
    expect(bool(checks.check_extraction(knots, {3: bad})), "extraction check rejects a perturbed C^e row")
    bad = SimpleNamespace(**vars(disc.elems[5]))
    bad.ien = bad.ien[1:]
    expect(bool(checks.check_ien(knots, {5: bad})), "IEN check rejects a dropped function")
    wrong = coeffs.copy()
    wrong[len(wrong) // 2] += 0.01
    expect(bool(checks.check_manufactured(knots, wrong, pts, bound)),
           "solution check rejects a perturbed coefficient")


def test_refinement_checks():
    from hasts import benchmarks, hierarchy

    rng = random.Random(3)
    base = benchmarks.tensor_space(4, 2)
    marked = rng.sample(list(base.elements), 3)
    after = hierarchy.refine_by_elements(base, marked)
    before, marked = checks.element_keys(base.elements), checks.element_keys(marked)
    kept = checks.element_keys(after.elements)
    expect(not checks.check_refinement(before, kept, marked), "refinement check accepts")
    expect(bool(checks.check_refinement(before, kept[1:], marked)),
           "refinement check rejects a dropped element")
    hf = next(f for f in after.functions if f.level == 1)
    coeffs = hierarchy.represent_coarse_in_fine(after, hf, 2)
    sp_c, sp_f = after.spaces[0], after.spaces[1]
    hv, vv = sp_c.h_values(hf.fn), sp_c.v_values(hf.fn)
    r = np.random.default_rng(1)
    pts = np.column_stack([r.uniform(float(hv[0]), float(hv[-1]), 64),
                           r.uniform(float(vv[0]), float(vv[-1]), 64)])
    terms = [(c, (sp_f.h_values(f), sp_f.v_values(f))) for f, c in coeffs.items()]
    expect(not checks.check_nesting((hv, vv), terms, pts), "nesting check accepts")
    terms[0] = (terms[0][0] * 1.01, terms[0][1])
    expect(bool(checks.check_nesting((hv, vv), terms, pts)),
           "nesting check rejects a perturbed coefficient")


def test_solve_file_checks():
    out = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        cmd = [sys.executable, "-m", "hasts.cli", "solve", "--benchmark", "skew45", "--p", "2",
               "--elements", "4", "--tol", "2e-3", "--iterations", "2", "--out", out]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, env=run.worker_env(), timeout=120)
        hist = checks.read_history(os.path.join(out, "history.txt"))
        expect(not checks.check_history(hist, 2), "history check accepts")
        wrong = [list(r) for r in hist]
        wrong[1][2] += 1
        expect(bool(checks.check_history([tuple(r) for r in wrong], 2)),
               "history check rejects a row with a wrong n_e")
        with open(os.path.join(out, "elements_002.txt")) as f:
            rects = [[float(v) for v in line.split()[1:5]] for line in f if not line.startswith("#")]
        expect(not checks.check_tiling(rects, hist[-1][2]), "tiling check accepts")
        expect(bool(checks.check_tiling(rects[1:], hist[-1][2] - 1)),
               "tiling check rejects a dropped element")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    g = np.linspace(0.0, 1.0, 65)
    x, y = (a.ravel() for a in np.meshgrid(g, g))
    field = np.column_stack([x, y, np.where(y < x + 0.2, 1.0, 0.0)])
    expect(not checks.check_field(field, 0.25, 2e-2), "field check accepts the limit")
    field[np.argmax(checks.layer_distance(x, y)), 2] += 0.05
    expect(bool(checks.check_field(field, 0.25, 2e-2)), "field check rejects a perturbed value")


def main():
    os.makedirs(run.OUT, exist_ok=True)
    test_extraction_checks()
    test_refinement_checks()
    test_solve_file_checks()
    test_workloads()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
