"""Command-line front end: validate meshes, export extraction operators, and
run the adaptive solver.

Exit codes: 0 success, 1 domain failure (invalid or non-suitable mesh, solver
failure), 2 unreadable input or an option the command does not take.  All
numeric output uses 17 significant digits and runs are deterministic for a
fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import benchmarks, meshio
from .extraction import FMT, dump_extraction, extract_all
from .hierarchy import HierarchicalSpace
from .iga import adaptive_loop, sample_field
from .meshio import ParseError
from .tmesh import MeshStructureError

# every option as a flag and as a config key: (default, type, help)
OPTIONS = {
    "mesh": (None, str, "a .mesh file; extract and solve also take a .hier hierarchy file"),
    "p": (2, int, "horizontal degree of the tensor start"),
    "q": (None, int, "vertical degree of the tensor start (defaults to --p)"),
    "tol": (1e-3, float, "refinement tolerance (> 0)"),
    "max_levels": (8, int, "level cap, 1..16"),
    "benchmark": ("skew45", str, "benchmark problem"),
    "out": (".", str, "output directory"),
    "elements": (16, int, "elements per side of the tensor start"),
    "kappa": (None, float, "diffusivity override"),
    "iterations": (5, int, "adaptive iteration cap"),
}
CHOICES = {"benchmark": ("skew45", "manufactured")}
# range checks, in the order they run, on the options a command reads
CHECKS = {
    "tol": (lambda v: v > 0, "tol must be positive"),
    "max_levels": (lambda v: 1 <= v <= 16, "max-levels must be in 1..16"),
    "p": (lambda v: v >= 1, "degrees must be >= 1"),
    "q": (lambda v: v >= 1, "degrees must be >= 1"),
    "iterations": (lambda v: v >= 1, "iterations must be >= 1"),
    "elements": (lambda v: v >= 1, "elements must be >= 1"),
}
# the options that shape the tensor start, which a mesh file replaces
TENSOR_START = ("p", "q", "elements")
# each command: its help text and the options it reads
COMMANDS = {
    "validate": ("check a mesh file and report analysis-suitability", ("mesh", "out")),
    "extract": ("write the Bezier extraction export for a mesh or hierarchy", ("mesh", "out")),
    "solve": ("run the adaptive SUPG solver on a benchmark", tuple(OPTIONS)),
}


def _flag(key):
    return "--" + key.replace("_", "-")


def build_parser():
    ap = argparse.ArgumentParser(prog="hasts", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="JSON config file; flags override its entries")
        for key in keys:
            _, type_, text = OPTIONS[key]
            p.add_argument(_flag(key), dest=key, type=type_, choices=CHOICES.get(key), help=text)
    return ap


def _config_value(key, val):
    """A config entry as its flag would parse it: a value of the flag's type
    (an integer also for a float flag) among its choices, or null where the
    default is null."""
    default, type_, _ = OPTIONS[key]
    if val is None and default is None:
        return None
    fits = type(val) is type_ or (type_ is float and type(val) is int)
    if not fits or val not in CHOICES.get(key, (val,)):
        raise ParseError(0, f"config entry {key}: {json.dumps(val)} is not a valid {_flag(key)} value")
    return type_(val)


def resolve_config(args):
    """The options of ``args.command``: defaults, then config entries, then
    flags.  A key the command does not read is a parse error, and so is a
    tensor-start option given with a mesh file."""
    keys = COMMANDS[args.command][1]
    given = {}
    if args.config:
        try:
            with open(args.config) as f:
                loaded = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(0, f"config file: {exc}")
        if not isinstance(loaded, dict):
            raise ParseError(0, "config file does not hold a JSON object")
        unknown = set(loaded) - set(keys)
        if unknown:
            raise ParseError(0, f"unknown config keys {sorted(unknown)}")
        given.update((key, _config_value(key, val)) for key, val in loaded.items())
    given.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    given = {key: val for key, val in given.items() if val is not None}
    if "mesh" in given:
        clash = next((key for key in TENSOR_START if key in given), None)
        if clash is not None:
            raise ParseError(0, f"{_flag(clash)} sets the tensor start and cannot be combined with --mesh")
    cfg = {key: given.get(key, OPTIONS[key][0]) for key in keys}
    if "q" in cfg and cfg["q"] is None:
        cfg["q"] = cfg["p"]
    for key, (ok, message) in CHECKS.items():
        if key in cfg and not ok(cfg[key]):
            raise MeshStructureError(message)
    return cfg


def _read_text(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc}")


def _outpath(cfg, name):
    os.makedirs(cfg["out"], exist_ok=True)
    return os.path.join(cfg["out"], name)


def run_validate(cfg):
    if not cfg["mesh"]:
        raise ParseError(0, "validate requires --mesh")
    mesh, _, _ = meshio.parse_mesh(_read_text(cfg["mesh"]))
    report = mesh.validate()
    ok, bad = (mesh.is_analysis_suitable() if not report else (False, []))
    lines = [f"mesh {cfg['mesh']}", f"m {mesh.m} n {mesh.n} p {mesh.p} q {mesh.q}"]
    for v in report:
        lines.append(f"violation {v}")
    lines.append(f"analysis-suitable {'yes' if ok else 'no'}")
    for h, v in bad:
        lines.append(
            "offending-pair "
            f"h y={h.line} x=[{h.lo},{h.hi}] junction=({h.junction.x},{h.junction.y}) "
            f"v x={v.line} y=[{v.lo},{v.hi}] junction=({v.junction.x},{v.junction.y})"
        )
    text = "\n".join(lines) + "\n"
    with open(_outpath(cfg, "validate_report.txt"), "w") as f:
        f.write(text)
    sys.stdout.write(text)
    return 0 if ok and not report else 1


def run_extract(cfg):
    if not cfg["mesh"]:
        raise ParseError(0, "extract requires --mesh")
    space = HierarchicalSpace(meshio.parse_levels(_read_text(cfg["mesh"])))
    elems = extract_all(space)
    with open(_outpath(cfg, "extraction.txt"), "w") as f:
        f.write(dump_extraction(space, elems))
    print(f"n_f {space.n_f} n_e {space.n_e}")
    return 0


def _write_iteration(cfg, k, disc, coeffs, estimates):
    X, Y, PHI = sample_field(disc, coeffs)
    with open(_outpath(cfg, f"field_{k:03d}.txt"), "w") as f:
        f.write("# x y phi\n")
        row = f"{FMT} {FMT} {FMT}\n"
        f.writelines(row % r for r in zip(X.ravel().tolist(), Y.ravel().tolist(), PHI.ravel().tolist()))
    with open(_outpath(cfg, f"elements_{k:03d}.txt"), "w") as f:
        f.write("# level s1 s2 t1 t2 estimate\n")
        for he, est in zip(disc.space.elements, estimates):
            r = [float(v) for v in he.param_rect]
            f.write(f"{he.level} " + " ".join(FMT % v for v in r) + " " + FMT % est + "\n")
    with open(_outpath(cfg, f"greville_{k:03d}.txt"), "w") as f:
        f.write("# level s t\n")
        for hf, (s, t) in zip(disc.space.functions, disc.space.greville_points()):
            f.write(f"{hf.level} " + FMT % s + " " + FMT % t + "\n")


def run_solve(cfg):
    problem = benchmarks.benchmark_problem(cfg["benchmark"], cfg["kappa"])
    if cfg["mesh"]:
        space = HierarchicalSpace(meshio.parse_levels(_read_text(cfg["mesh"])))
    else:
        space = benchmarks.tensor_space(cfg["elements"], cfg["p"], cfg["q"])
    res = adaptive_loop(
        problem,
        space,
        tol=cfg["tol"],
        max_levels=cfg["max_levels"],
        max_iterations=cfg["iterations"],
        keep_iterations=True,
    )
    for k, (disc, coeffs, estimates) in enumerate(res.iterations, start=1):
        _write_iteration(cfg, k, disc, coeffs, estimates)
    with open(_outpath(cfg, "history.txt"), "w") as f:
        f.write("# iteration n_f n_e total_estimate marked\n")
        for r in res.history:
            f.write(f"{r.iteration} {r.n_f} {r.n_e} " + FMT % r.total_estimate + f" {r.marked}\n")
    last = res.history[-1]
    print(
        f"iterations {last.iteration} n_f {last.n_f} n_e {last.n_e} "
        "total_estimate " + FMT % last.total_estimate
    )
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "validate":
            return run_validate(cfg)
        if args.command == "extract":
            return run_extract(cfg)
        return run_solve(cfg)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except MeshStructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
