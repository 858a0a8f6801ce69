"""File formats: mesh and hierarchy round trips, shipped samples, parse errors."""

import glob
import os

import numpy as np
import pytest

from hasts import samples
from hasts.basis import GlobalKnots
from hasts.benchmarks import tensor_space
from hasts.hierarchy import HierarchicalSpace
from hasts.meshio import (
    HIER_MAGIC,
    MESH_MAGIC,
    ParseError,
    dump_hierarchy,
    dump_mesh,
    parse_hierarchy,
    parse_mesh,
    read_hierarchy,
    read_mesh,
)

SAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "samples")


def uniform_knots(mesh):
    return (
        GlobalKnots.uniform_open(mesh.m, mesh.p),
        GlobalKnots.uniform_open(mesh.n, mesh.q),
    )


def test_mesh_round_trip_is_byte_identical(as_meshes):
    for mesh in as_meshes:
        hk, vk = uniform_knots(mesh)
        text = dump_mesh(mesh, hk, vk)
        mesh2, hk2, vk2 = parse_mesh(text)
        assert np.array_equal(mesh2.hseg, mesh.hseg)
        assert np.array_equal(mesh2.vseg, mesh.vseg)
        # values agree as binary64; non-dyadic rationals snap to their float
        assert [float(v) for v in hk2.values] == [float(v) for v in hk.values]
        assert [float(v) for v in vk2.values] == [float(v) for v in vk.values]
        assert dump_mesh(mesh2, hk2, vk2) == text


def test_shipped_samples_parse_and_validate():
    paths = sorted(glob.glob(os.path.join(SAMPLES_DIR, "*.mesh")))
    assert len(paths) >= 6
    for path in paths:
        mesh, hk, vk = read_mesh(path)
        assert mesh.validate() == []
        with open(path) as f:
            assert dump_mesh(mesh, hk, vk) == f.read()


def test_shipped_hierarchy_sample():
    path = os.path.join(SAMPLES_DIR, "two_level_p2.hier")
    levels = read_hierarchy(path)
    space = HierarchicalSpace(levels)
    assert len(space.levels) == 2 and space.n_f > 0
    with open(path) as f:
        assert dump_hierarchy(space.levels) == f.read()


def test_shipped_suitability_verdicts():
    mesh, _, _ = read_mesh(os.path.join(SAMPLES_DIR, "extension_suitable.mesh"))
    assert mesh.is_analysis_suitable()[0]
    mesh, _, _ = read_mesh(os.path.join(SAMPLES_DIR, "extension_unsuitable.mesh"))
    ok, bad = mesh.is_analysis_suitable()
    assert not ok and bad


def test_parse_errors_carry_line_numbers():
    mesh = samples.tensor_mesh(3, 3, 2, 2)
    good = dump_mesh(mesh, *uniform_knots(mesh))
    with pytest.raises(ParseError) as e:
        parse_mesh("not-a-mesh\n")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_mesh(MESH_MAGIC + "\n8 8 2\n")  # short header
    lines = good.splitlines()
    lines[2] = "hknots 0 0 0 1 1 1"  # wrong knot count
    with pytest.raises(ParseError) as e:
        parse_mesh("\n".join(lines))
    assert e.value.line == 3
    # a bad float, an infinite one and bad rationals
    for tok in ("zero", "inf", "1/0", "a/7"):
        lines = good.splitlines()
        lines[2] = lines[2].replace("0.0", tok, 1)
        with pytest.raises(ParseError) as e:
            parse_mesh("\n".join(lines))
        assert e.value.line == 3
    with pytest.raises(ParseError):
        parse_mesh(good.rsplit("\n", 8)[0])  # truncated edge list


def test_parse_rejects_non_open_knots():
    mesh = samples.tensor_mesh(3, 3, 2, 2)
    hk, vk = uniform_knots(mesh)
    text = dump_mesh(mesh, hk, vk)
    lines = text.splitlines()
    toks = lines[2].split()
    toks[1] = "-1.0"
    lines[2] = " ".join(toks)
    with pytest.raises(ParseError):
        parse_mesh("\n".join(lines))


def test_comments_and_blank_lines_are_skipped():
    mesh = samples.tensor_mesh(3, 3, 2, 2)
    hk, vk = uniform_knots(mesh)
    text = dump_mesh(mesh, hk, vk)
    noisy = "# a comment\n\n" + text.replace("\n", "\n# note\n", 1)
    mesh2, _, _ = parse_mesh(noisy)
    assert mesh2 == mesh


def test_hierarchy_round_trip(hierarchies):
    for space in hierarchies:
        text = dump_hierarchy(space.levels)
        levels = parse_hierarchy(text)
        rebuilt = HierarchicalSpace(levels)
        assert rebuilt.n_f == space.n_f
        assert rebuilt.n_e == space.n_e
        assert [hf.sort_key() for hf in rebuilt.functions] == [
            hf.sort_key() for hf in space.functions
        ]
        assert dump_hierarchy(rebuilt.levels) == text


def test_hierarchy_parse_errors():
    space = tensor_space(3, 2)
    text = dump_hierarchy(space.levels)
    with pytest.raises(ParseError):
        parse_hierarchy(text.replace(HIER_MAGIC, "wrong"))
    with pytest.raises(ParseError):
        parse_hierarchy(text.replace("levels 1", "levels 2"))
    with pytest.raises(ParseError):
        # claims one domain rectangle but the file ends
        parse_hierarchy(text.replace("domain 0", "domain 1"))
    # a level's mesh header is checked as in a mesh file, on its own line
    lines = text.splitlines()
    assert lines[4] == "8 8 2 2"
    lines[4] = "1 8 2 2"
    with pytest.raises(ParseError, match="bad dimensions m=1 n=8") as e:
        parse_hierarchy("\n".join(lines))
    assert e.value.line == 5
