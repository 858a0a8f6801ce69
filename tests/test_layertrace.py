"""The benchmark's per-layer tracer wraps library names by their paths: every
traced name must still resolve, or each traced benchmark run raises."""

import importlib
from functools import reduce
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def test_every_traced_name_resolves():
    # run the tracer's source without importing it, so nothing is written
    # beside it
    tracer = {"__name__": "layertrace"}
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), tracer)
    assert tracer["TARGETS"]
    for module, path, _ in tracer["TARGETS"]:
        obj = reduce(getattr, path.split("."), importlib.import_module(module))
        assert callable(obj), f"{module}.{path}"
