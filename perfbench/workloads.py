"""The benchmark's three workloads.

Each workload class does its set-up in ``__init__`` (imports and inputs made
from the seed) and runs one timed operation per ``op(k)`` call.  Right after
each op, outside the timed region, ``keep(k)`` reduces the op's outputs to the
plain data its checks need and drops the rest, so peak memory holds one op's
working set.  The checks run after the last op, in ``check(k)`` and
``check_run()``.
``size`` is "full" for the benchmark and "small" for the self-test.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))


class Workload:
    """Defaults: no per-op input preparation, nothing to reduce after an op
    and no run-level check."""

    def prepare(self, k):
        pass

    def keep(self, k):
        pass

    def check_run(self):
        return []


class AdaptiveSkew(Workload):
    """One op is a complete `hasts solve` of the skew benchmark in a fresh
    interpreter, so every module-level cache starts cold.

    The start is 8x8 biquadratic with 3 adaptive iterations, which keeps one
    op near 4 s so a run holds several.  The inputs do not depend on the
    seed: the benchmark problem is fixed.
    """

    ELEMENTS = 8
    ITERATIONS = 3
    # the smeared interior layer of this coarse run is wider than 0.15, so
    # the limit is checked from 0.25 on (max error there ~0.016)
    FIELD_DISTANCE = 0.25
    FIELD_TOL = 2e-2

    def __init__(self, seed, size, workdir, traced):
        import hasts.cli  # noqa: F401  the program's own import cost is set-up

        self.ops = {"full": 2, "small": 1}[size]
        self.workdir = workdir
        self.traced = traced
        self.rss_kib = []
        self.bytes_written = 0
        self.trace_files = []

    def _argv(self, out):
        return [
            "solve", "--benchmark", "skew45", "--p", "2",
            "--elements", str(self.ELEMENTS), "--tol", "2e-3",
            "--iterations", str(self.ITERATIONS), "--out", out,
        ]

    def op(self, k):
        out = os.path.join(self.workdir, f"op{k}")
        if self.traced:
            tfile = out + ".trace.json"
            self.trace_files.append(tfile)
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), tfile] + self._argv(out)
        else:
            cmd = [sys.executable, "-m", "hasts.cli"] + self._argv(out)
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # wait4 also gives the child's peak RSS
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"hasts solve exited with code {proc.returncode}")
        self.rss_kib.append(usage.ru_maxrss)

    def check(self, k):
        out = os.path.join(self.workdir, f"op{k}")
        errs, n_es = checks.check_solve_dir(
            out, self.ITERATIONS, self.FIELD_DISTANCE, self.FIELD_TOL
        )
        self.bytes_written += sum(
            os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
        )
        shutil.rmtree(out)
        return errs, sum(n_es)


class RefineDeep(Workload):
    """Design-style local refinement of a deep hierarchy.

    Set-up grows a 4x4 biquadratic start to 5 levels by marking 3 seeded
    random elements of the deepest level per step.  Each op refines that
    same 5-level space at 3 fresh random elements below the level cap, so
    every op runs at full depth and ops do not depend on one another.
    At 6 levels one set-up and six ops fill a whole run, which left the
    run-to-run spread too wide; at 5 levels a run holds about 24 ops.
    """

    def __init__(self, seed, size, workdir, traced):
        from hasts import benchmarks, hierarchy

        self.hierarchy = hierarchy
        self.depth = {"full": 5, "small": 4}[size]
        self.ops = {"full": 8, "small": 2}[size]
        self.rng = random.Random(seed)
        space = benchmarks.tensor_space(4, 2)
        while len(space.levels) < self.depth:
            deepest = max(e.level for e in space.elements)
            cand = [e for e in space.elements if e.level == deepest]
            space = hierarchy.refine_by_elements(space, self.rng.sample(cand, 3), max_levels=self.depth)
        self.base = space
        self.base_keys = checks.element_keys(space.elements)
        below = [e for e in self.base.elements if e.level < self.depth]
        self.marks = [self.rng.sample(below, 3) for _ in range(self.ops)]
        self.result = self.last = None
        self.kept = {}

    def op(self, k):
        self.result = self.hierarchy.refine_by_elements(
            self.base, self.marks[k], max_levels=self.depth
        )

    def keep(self, k):
        """Element keys of every result; the last result space itself is
        kept for ``check_run``."""
        space, self.result = self.result, None
        self.kept[k] = checks.element_keys(space.elements)
        if k == self.ops - 1:
            self.last = space

    def check(self, k):
        after = self.kept.pop(k)
        marked = checks.element_keys(self.marks[k])
        return checks.check_refinement(self.base_keys, after, marked), len(after)

    def check_run(self):
        """Fine-level representations of sampled coarse functions reproduce
        them at random points of their supports."""
        space = self.last
        coarse = [hf for hf in space.functions if hf.level < len(space.levels)]
        errs = []
        for hf in self.rng.sample(coarse, min(3, len(coarse))):
            coeffs = self.hierarchy.represent_coarse_in_fine(space, hf, hf.level + 1)
            sp_c = space.spaces[hf.level - 1]
            sp_f = space.spaces[hf.level]
            hv, vv = sp_c.h_values(hf.fn), sp_c.v_values(hf.fn)
            r = np.random.default_rng(self.rng.randrange(2**32))
            pts = np.column_stack([
                r.uniform(float(hv[0]), float(hv[-1]), 64),
                r.uniform(float(vv[0]), float(vv[-1]), 64),
            ])
            terms = [(c, (sp_f.h_values(f), sp_f.v_values(f))) for f, c in coeffs.items()]
            errs += checks.check_nesting((hv, vv), terms, pts)
        return errs


class ExtractSolve(Workload):
    """Extraction and FE numerics with no refinement in the timed ops.

    Each op gets its own seeded bicubic hierarchy: an 8x8 start, a random
    half of its elements refined, then a random half of the level-2 elements
    refined (352 elements).  Set-up builds the first; the others are built
    between ops, outside the timed region.  One op is Discretization +
    solve + estimate_error of the manufactured problem on a space the
    process has not extracted before; the spaces share their coarse levels,
    so later ops hit the coefficient cache that earlier ones filled.
    """

    @staticmethod
    def error_bound(start):
        """Bicubic error is O(h^4) in the start element size h = 1/start;
        the measured constant is 0.2-0.25 at starts 4 and 8, the bound 0.5."""
        return 0.5 / start**4

    def __init__(self, seed, size, workdir, traced):
        from hasts import benchmarks, hierarchy, iga

        self.benchmarks, self.hierarchy, self.iga = benchmarks, hierarchy, iga
        self.start = {"full": 8, "small": 4}[size]
        self.ops = {"full": 5, "small": 2}[size]
        self.rng = random.Random(seed)
        self.problem, _ = benchmarks.manufactured_problem()
        self.spaces = {}
        self.result = None
        self.kept = {}

    def prepare(self, k):
        """Build the space of op k.  Building each space just before its op
        spreads the timed ops over the whole round."""
        refine = self.hierarchy.refine_by_elements
        space = self.benchmarks.tensor_space(self.start, 3)
        els = list(space.elements)
        space = refine(space, self.rng.sample(els, len(els) // 2))
        lv2 = [e for e in space.elements if e.level == 2]
        self.spaces[k] = refine(space, self.rng.sample(lv2, len(lv2) // 2))

    def op(self, k):
        disc = self.iga.Discretization(self.spaces.pop(k))
        coeffs = self.iga.solve(self.problem, disc)
        est = self.iga.estimate_error(self.problem, disc, coeffs)
        self.result = (disc, coeffs, est)

    def keep(self, k):
        """Knot vectors, the extraction data of 8 sampled elements, the
        solution and the estimate; the Discretization is dropped."""
        (disc, coeffs, est), self.result = self.result, None
        n_e = disc.space.n_e
        picks = self.rng.sample(range(n_e), min(8, n_e))
        self.kept[k] = (
            checks.function_knots(disc.space), {i: disc.elems[i] for i in picks}, coeffs, est, n_e
        )

    def check(self, k):
        knots, elems, coeffs, est, n_e = self.kept.pop(k)
        errs = checks.check_extraction(knots, elems)
        errs += checks.check_ien(knots, elems)
        r = np.random.default_rng(self.rng.randrange(2**32))
        errs += checks.check_manufactured(knots, coeffs, r.random((64, 2)), self.error_bound(self.start))
        if len(est) != n_e or not np.all(np.isfinite(est)) or (est < 0).any():
            errs.append("error estimate is not one finite nonnegative value per element")
        return errs, n_e


WORKLOADS = {
    "adaptive-skew": AdaptiveSkew,
    "refine-deep": RefineDeep,
    "extract-solve": ExtractSolve,
}
