"""Per-layer tracing of hasts from outside the package.

``install()`` replaces each traced public callable of hasts with a wrapper
that records a span (name, start, end, parent) around the call.  A function
is replaced under every name a hasts module binds it to, so a call through
``hasts.iga.refine_by_elements`` is traced as well as one through
``hasts.hierarchy.refine_by_elements``; methods are replaced on their class.
Nothing inside ``src/`` changes.

Spans nest on one thread, so a span's self time is its duration minus the
durations of its direct children.  Hot leaf boundaries (``HOT``) are counted
and timed but not stored one by one.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name); the order does not matter
TARGETS = (
    ("hasts.tmesh", "TMesh.is_analysis_suitable", "tmesh.suitability"),
    ("hasts.tmesh", "TMesh.extended", "tmesh.extended"),
    ("hasts.tmesh", "TMesh.validate", "tmesh.validate"),
    ("hasts.basis", "Space.__init__", "basis.space"),
    ("hasts.hierarchy", "refine_by_elements", "hierarchy.refine"),
    ("hasts.hierarchy", "subdivide_suitable", "hierarchy.subdivide"),
    ("hasts.hierarchy", "HierarchicalSpace.__init__", "hierarchy.build"),
    ("hasts.hierarchy", "in_domain", "hierarchy.in_domain"),
    ("hasts.hierarchy", "bezier_cells", "hierarchy.bezier_cells"),
    ("hasts.extraction", "extract_all", "extraction.extract"),
    ("hasts.extraction", "build_ien", "extraction.ien"),
    ("hasts.iga", "Discretization.__init__", "iga.discretize"),
    ("hasts.iga", "solve", "iga.solve"),
    ("hasts.iga", "assemble", "iga.assemble"),
    ("hasts.iga", "apply_dirichlet", "iga.dirichlet"),
    ("hasts.iga", "solve_linear", "iga.linear_solve"),
    ("hasts.iga", "estimate_error", "iga.estimate"),
    ("hasts.iga", "adaptive_loop", "iga.adaptive_loop"),
    ("hasts.iga", "sample_field", "cli.sample_field"),
    ("hasts.cli", "main", "cli.main"),
)

HOT = frozenset({"hierarchy.in_domain"})


class Tracer:
    """Spans and per-name totals, kept in memory until ``report``."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []  # (name, start, end, parent span index or -1)
        self._stack = []  # [span index or -1, start, child seconds]

    def wrap(self, name, fn, after=None):
        hot = name in HOT

        def traced(*args, **kwargs):
            stack = self._stack
            parent = next((f[0] for f in reversed(stack) if f[0] >= 0), -1)
            idx = -1
            if not hot:
                idx = len(self.spans)
                self.spans.append(None)
            frame = [idx, perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, out)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if idx >= 0:
                    self.spans[idx] = (name, frame[1], end, parent)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def report(self):
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }


def merge_reports(reports):
    """Sum ``Tracer.report()`` dicts."""
    out = {"calls": {}, "total": {}, "self": {}, "counts": {}}
    for rep in reports:
        for part, vals in rep.items():
            for key, v in vals.items():
                out[part][key] = out[part].get(key, 0) + v
    return out


def _after_space(tracer, args, _out):
    tracer.counts["basis.functions_built"] += len(args[0].functions)


def _after_build(tracer, args, _out):
    space = args[0]
    tracer.counts["hierarchy.spaces"] += 1
    tracer.counts["hierarchy.n_f"] += space.n_f
    tracer.counts["hierarchy.level_functions"] += sum(len(sp.functions) for sp in space.spaces)


def _after_extract(tracer, _args, out):
    tracer.counts["extraction.elements"] += len(out)


def _after_solve(tracer, args, _out):
    tracer.counts["iga.dofs"] += args[1].space.n_f


AFTER = {
    "basis.space": _after_space,
    "hierarchy.build": _after_build,
    "extraction.extract": _after_extract,
    "iga.solve": _after_solve,
}


def install(tracer):
    """Wrap every target; returns a function that restores the originals."""
    importlib.import_module("hasts.cli")  # binds every name before the scan
    undo = []
    for modname, path, name in TARGETS:
        mod = importlib.import_module(modname)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        orig = owner.__dict__[attr] if owner_name else getattr(mod, attr)
        new = tracer.wrap(name, orig, AFTER.get(name))
        if owner_name:
            setattr(owner, attr, new)
            undo.append((owner, attr, orig))
            continue
        for mname, m in list(sys.modules.items()):
            if mname == "hasts" or mname.startswith("hasts."):
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, new)
                        undo.append((m, key, orig))

    def restore():
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)

    return restore


def coeff_cache_info():
    """(hits, misses) of the exact Bernstein coefficient cache, if it exists."""
    fn = getattr(importlib.import_module("hasts.extraction"), "bezier_coeffs_1d", None)
    info = fn.cache_info() if hasattr(fn, "cache_info") else None
    return (info.hits, info.misses) if info else (0, 0)
