"""File formats: mesh and hierarchy round trips, shipped samples, parse errors."""

import glob
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import with_domain
from hasts import samples
from hasts.basis import GlobalKnots
from hasts.benchmarks import tensor_space
from hasts.cli import main
from hasts.hierarchy import HierarchicalSpace, refine_by_elements
from hasts.meshio import (
    HIER_MAGIC,
    MESH_MAGIC,
    ParseError,
    dump_hierarchy,
    dump_mesh,
    parse_hierarchy,
    parse_mesh,
)
from hasts.tmesh import MeshStructureError

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
        mesh, hk, vk = parse_mesh(Path(path).read_text())
        assert mesh.validate() == []
        with open(path) as f:
            assert dump_mesh(mesh, hk, vk) == f.read()


def test_shipped_hierarchy_sample():
    path = os.path.join(SAMPLES_DIR, "two_level_p2.hier")
    levels = parse_hierarchy(Path(path).read_text())
    space = HierarchicalSpace(levels)
    assert len(space.levels) == 2 and space.n_f > 0
    with open(path) as f:
        assert dump_hierarchy(space.levels) == f.read()


def test_shipped_suitability_verdicts():
    mesh, _, _ = parse_mesh(Path(SAMPLES_DIR, "extension_suitable.mesh").read_text())
    assert mesh.is_analysis_suitable()[0]
    mesh, _, _ = parse_mesh(Path(SAMPLES_DIR, "extension_unsuitable.mesh").read_text())
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
    # an interior knot repeated p+2 times: its functions have zero-area supports
    crowded = samples.tensor_mesh(5, 5, 2, 2)
    lines = dump_mesh(crowded, *uniform_knots(crowded)).splitlines()
    lines[2] = "hknots 0 0 0 1/2 1/2 1/2 1/2 1 1 1"
    with pytest.raises(ParseError) as e:
        parse_mesh("\n".join(lines))
    assert e.value.line == 3 and "knot 1/2 repeats 4 times" in str(e.value)
    with pytest.raises(ParseError):
        parse_mesh(good.rsplit("\n", 8)[0])  # truncated edge list


def test_vertex_and_edge_blocks_read_as_lines():
    """Vertices and edges are read as blocks, with the line reader's results:
    comments, blank lines, spaces and signs inside a block read as before,
    and a bad line, one after a comment, or a block cut short raises the
    line reader's error at its line."""
    mesh = samples.extension_mesh_suitable()
    lines = dump_mesh(mesh, *uniform_knots(mesh)).splitlines()
    vi = next(k for k, s in enumerate(lines) if s.startswith("vertices "))
    ei = next(k for k, s in enumerate(lines) if s.startswith("edges "))
    nv, ne = int(lines[vi].split()[1]), int(lines[ei].split()[1])
    assert ne > 5 and ei == vi + nv + 1 and len(lines) == ei + ne + 1

    def edit(*changes):
        out = list(lines)
        for at, text in sorted(changes, reverse=True):  # (index, replacement lines)
            out[at : at + 1] = text
        return "\n".join(out) + "\n"

    x, y = lines[vi + 2].split()
    noisy = edit(
        (vi + 2, ["# a note", "", f" \t+{x}\t0{y} "]),
        (ei + 3, [lines[ei + 3], "   ", "# another"]),
    )
    again, _, _ = parse_mesh(noisy)
    assert again == mesh and np.array_equal(again.declared, parse_mesh("\n".join(lines))[0].declared)
    cases = [
        (edit((vi + 3, ["1 2 3"])), vi + 4, "expected 2 integers for vertex, got 3"),
        (edit((ei + 5, ["1 2 x 4"])), ei + 6, "non-integer token in edge"),
        (edit((vi + 1, ["# note"]), (vi + 4, ["7"])), vi + 5, "expected 2 integers for vertex, got 1"),
        (edit((ei, [f"edges {ne + 1}"])), len(lines), "unexpected end of file"),
        (edit((ei, [f"edges {ne + 1}"]), (ei + 2, ["", "1 2"])), ei + 4, "expected 4 integers for edge, got 2"),
    ]
    for text, line, message in cases:
        with pytest.raises(ParseError) as e:
            parse_mesh(text)
        assert (e.value.line, str(e.value)) == (line, f"line {line}: {message}")
    for x, message in (("1" + "0" * 18, f"vertex ({10**18}, 1) outside index domain"),
                       ("9" * 30, "a vertex or edge endpoint lies outside the index domain")):
        with pytest.raises(MeshStructureError) as e:
            parse_mesh(edit((vi + 1, [f"{x} 1"])))
        assert not isinstance(e.value, ParseError) and str(e.value) == message


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
    two = dump_hierarchy(refine_by_elements(space, space.elements[:1]).levels)
    assert two.endswith("domain 1\n0/1 1/3 0/1 1/3\n")
    with pytest.raises(ParseError, match="unexpected end of file"):
        # claims two domain rectangles but the file ends
        parse_hierarchy(two.replace("domain 1", "domain 2"))
    # a level's mesh header is checked as in a mesh file, on its own line
    lines = text.splitlines()
    assert lines[4] == "8 8 2 2"
    lines[4] = "1 8 2 2"
    with pytest.raises(ParseError, match="bad dimensions m=1 n=8") as e:
        parse_hierarchy("\n".join(lines))
    assert e.value.line == 5


@pytest.mark.parametrize(
    "kw, count, least", [("vertices", -1, 0), ("edges", -1, 0), ("domain", -1, 0), ("levels", 0, 1), ("levels", -2, 1)]
)
def test_negative_counts_are_parse_errors(kw, count, least, tmp_path, capsys):
    """A section count below zero, or a hierarchy of fewer than one level, is
    unreadable input at its line (exit 2), not an empty section."""
    with open(os.path.join(SAMPLES_DIR, "two_level_p2.hier")) as f:
        lines = f.read().splitlines()
    at = [k for k, s in enumerate(lines) if s.startswith(kw + " ")][-1]  # level 2's, where there are two
    lines[at] = f"{kw} {count}"
    with pytest.raises(ParseError) as e:
        parse_hierarchy("\n".join(lines))
    assert str(e.value) == f"line {at + 1}: {kw} count {count} is below {least}"
    path = tmp_path / "bad.hier"
    path.write_text("\n".join(lines) + "\n")
    assert main(["extract", "--mesh", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"parse error: {e.value}"]


def test_level_one_takes_no_domain_rectangles(tmp_path, capsys):
    """Level 1 covers the whole square: a rectangle in its domain section,
    even one off every knot grid, is a parse error at that section's line."""
    text = dump_hierarchy(tensor_space(3, 2).levels)
    lines = text.splitlines()
    at = lines.index("domain 0")
    lines[at : at + 1] = ["domain 1", "0/1 1/7 0/1 1/3"]
    with pytest.raises(ParseError, match="level 1 covers the whole parametric square") as e:
        parse_hierarchy("\n".join(lines))
    assert e.value.line == at + 1
    path = tmp_path / "one.hier"
    path.write_text("\n".join(lines) + "\n")
    assert main(["extract", "--mesh", str(path), "--out", str(tmp_path)]) == 2
    assert f"line {at + 1}: level 1 covers" in capsys.readouterr().err


def test_rectangles_over_several_elements_read_as_elements():
    """A level-2 domain given as one 1/2 x 1/2 rectangle over four level-1
    elements, or as two overlapping rectangles over three, reads as those
    elements: it builds what its canonical dump, one rectangle per element
    in cell order, builds, and that dump parses to equal levels and dumps
    again byte for byte."""
    start = tensor_space(4, 2)
    q, h = Fraction(1, 4), Fraction(1, 2)
    square = [(0, h, 0, h)]
    ell = [(0, h, 0, q), (q, h, 0, h)]
    for rects, count in ((square, 4), (ell, 3)):
        inside = lambda e: any(
            r[0] <= e.param_rect[0] and e.param_rect[1] <= r[1] and r[2] <= e.param_rect[2] and e.param_rect[3] <= r[3]
            for r in rects
        )
        want = refine_by_elements(start, [e for e in start.elements if inside(e)])
        canonical = dump_hierarchy(want.levels)
        assert canonical.count("\ndomain ") == 2 and f"\ndomain {count}\n" in canonical
        levels = parse_hierarchy(with_domain(canonical, 2, rects))
        assert levels == list(want.levels)
        got = HierarchicalSpace(levels)
        assert got.functions == want.functions and got.elements == want.elements
        assert dump_hierarchy(got.levels) == canonical
        assert parse_hierarchy(canonical) == list(want.levels)
        assert dump_hierarchy(parse_hierarchy(canonical)) == canonical
    assert canonical.endswith("domain 3\n0/1 1/4 0/1 1/4\n1/4 1/2 0/1 1/4\n1/4 1/2 1/4 1/2\n")
