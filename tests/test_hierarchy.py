"""Hierarchy layer: dyadic subdivision, domain bookkeeping, nesting.

The knot-insertion identity of the test oracles is verified numerically at
random points, and coarse-in-fine representations by dual functionals must
equal those of the knot-insertion oracle; H and HE are rebuilt by an
independent oracle that tests every function and element against every
level's domain rectangles with an exact rational sweep.
"""

import os
import pickle
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    as_mesh_corpus,
    cox_de_boor,
    eval_all,
    eval_function,
    greville_points,
    includes,
    insert_knot,
    one_level,
    param_rect,
    refinement_chain,
    represent_oracle,
    thirds_space,
    with_domain,
)
from hasts import benchmarks, hierarchy, meshio, samples
from hasts.basis import GlobalKnots, Space
from hasts.benchmarks import tensor_space
from hasts.cli import main
from hasts.extraction import default_geometry
from hasts.hierarchy import (
    HElement,
    HFunction,
    HierarchicalSpace,
    LevelMesh,
    _verify_representation,
    in_domain,
    index_map,
    refine_by_elements,
    refine_knots,
    represent_coarse_in_fine,
    represent_in_space,
    subdivide_suitable,
    summed_area,
)
from hasts.tmesh import MeshStructureError, TMesh, Violation


# -- subdivision ---------------------------------------------------------------


def test_index_map_preserves_knot_values():
    for p in (2, 3):
        m = 7 + 2 * p
        parent = samples.tensor_mesh(8, 8, p, p)
        from hasts.basis import GlobalKnots

        pk = GlobalKnots.uniform_open(parent.m, p)
        ck = refine_knots(pk)
        for i in range(1, parent.m + 1):
            assert ck[index_map(i, parent.m, p)] == pk[i]


def test_refine_knots_adds_midpoints():
    from hasts.basis import GlobalKnots

    pk = GlobalKnots.uniform_open(9, 2)  # spans 0, 1/4, 1/2, 3/4, 1
    ck = refine_knots(pk)
    assert ck.m == 2 * 9 - 2 * 2 - 1
    vals = set(ck.values)
    assert {Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)} <= vals
    assert set(pk.values) <= vals


def test_subdivide_quarters_every_element():
    for p in (2, 3):
        space = tensor_space(3, p)
        parent = space.levels[0]
        child = subdivide_suitable(parent)
        pcells = {
            param_rect(parent, r)
            for r in reference_cells(parent)
        }
        ccells = [
            (child.hknots[x1], child.hknots[x2], child.vknots[y1], child.vknots[y2])
            for x1, x2, y1, y2 in reference_cells(child)
        ]
        assert len(ccells) == 4 * len(pcells)
        for s1, s2, t1, t2 in ccells:
            assert any(
                a1 <= s1 and s2 <= a2 and b1 <= t1 and t2 <= b2
                for a1, a2, b1, b2 in pcells
            )
        sizes = {(s2 - s1, t2 - t1) for s1, s2, t1, t2 in ccells}
        psizes = {(a2 - a1, b2 - b1) for a1, a2, b1, b2 in pcells}
        assert sizes == {(w / 2, h / 2) for w, h in psizes}


def non_as_starts():
    """Valid meshes that are not analysis-suitable: the crossing-extension
    figure mesh, and tensor meshes that lose random core segments, each loss
    keeping them valid, until they are not."""
    out = [samples.extension_mesh_unsuitable()]
    rng = random.Random(13)
    for p, q in ((1, 2), (2, 2), (2, 3), (3, 3), (4, 2)):
        mesh = samples.tensor_mesh(5, 5, p, q)
        x1, x2, y1, y2 = samples.core_range(mesh.m, mesh.n, p, q)
        for _ in range(1000):
            if not mesh.is_analysis_suitable()[0]:
                break
            if rng.random() < 0.5:
                cand = mesh.without_segments(hsegs=[(rng.randrange(x1, x2), rng.randrange(y1 + 1, y2))])
            else:
                cand = mesh.without_segments(vsegs=[(rng.randrange(x1 + 1, x2), rng.randrange(y1, y2))])
            if not cand.validate():
                mesh = cand
        assert not mesh.is_analysis_suitable()[0]
        out.append(mesh)
    return out


def mirrored(mesh):
    """The mesh reflected across the vertical midline of its index domain."""
    m = mesh.m
    hseg, vseg = np.zeros_like(mesh.hseg), np.zeros_like(mesh.vseg)
    hseg[1:m], vseg[1 : m + 1] = mesh.hseg[m - 1 : 0 : -1], mesh.vseg[m:0:-1]
    return TMesh(m, mesh.n, mesh.p, mesh.q, hseg, vseg)


def transposed(mesh):
    """The mesh reflected across the diagonal of its index domain."""
    return TMesh(mesh.n, mesh.m, mesh.q, mesh.p, mesh.vseg.T, mesh.hseg.T)


def mapped_extension(lv, child):
    """The parent's extended mesh on the child's index lines: every parent
    unit segment becomes the whole child span that it maps to."""
    mesh = lv.mesh
    fx = [index_map(i, mesh.m, mesh.p) for i in range(mesh.m + 1)]
    fy = [index_map(j, mesh.n, mesh.q) for j in range(mesh.n + 1)]
    ext = mesh.extended()
    hseg = np.zeros_like(child.hseg)
    vseg = np.zeros_like(child.vseg)
    for i, j in zip(*np.nonzero(ext.hseg)):
        hseg[fx[i] : fx[i + 1], fy[j]] = True
    for i, j in zip(*np.nonzero(ext.vseg)):
        vseg[fx[i], fy[j] : fy[j + 1]] = True
    return TMesh(child.m, child.n, child.p, child.q, hseg, vseg)


def check_levels_nest(space):
    """Run the build's nesting check (``hierarchy.check_nested``), on meshes
    as well as knots, on every pair of the space's levels."""
    data = [lv.kept[0] for lv in space.levels]
    for k, (a, b) in enumerate(zip(data, data[1:]), 1):
        hierarchy.check_nested(a, b, k)


def test_subdivide_preserves_suitability_with_t_junctions():
    """Subdividing twice the AS corpus and random AS starts of degrees 1 to
    4 in each direction gives children that are valid, analysis-suitable
    and hold the parent's extended mesh, as the build's nesting check
    confirms.  The second subdivision of ``index_vector_mesh_b`` ends a
    parent extension inside the frame region; its reflections put that end
    at each side.  A valid non-AS start is no level, so it is not
    subdivided."""
    b = samples.index_vector_mesh_b()
    starts = as_mesh_corpus() + [mirrored(b), transposed(b), transposed(mirrored(b))]
    starts += [
        samples.random_as_mesh(p, q, num_elements=5, removals=6, seed=seed)
        for p in range(1, 5) for q in range(1, 5) for seed in (1, 2)
    ]
    for mesh in non_as_starts():
        assert mesh.validate() == []
        lv = LevelMesh(1, mesh, GlobalKnots.uniform_open(mesh.m, mesh.p), GlobalKnots.uniform_open(mesh.n, mesh.q))
        with pytest.raises(MeshStructureError, match="^level 1 mesh is not analysis-suitable$"):
            subdivide_suitable(lv)
    for mesh in starts:
        levels = [one_level(mesh).levels[0]]
        for _ in range(2):
            lv = levels[-1]
            child = subdivide_suitable(lv)
            assert child.level == lv.level + 1
            assert child.mesh.validate() == []
            assert child.mesh.is_analysis_suitable()[0]
            assert includes(child.mesh, mapped_extension(lv, child.mesh))
            levels.append(child)
        check_levels_nest(HierarchicalSpace(levels))


def test_unsuitable_child_is_an_error(monkeypatch, tmp_path, capsys):
    """A child that is not analysis-suitable is not repaired: a refinement
    that adds a level raises, and the solver exits 1.  The level-2 meshes of
    a 4 x 4 biquadratic start, 13 index lines a side, are made non-AS."""
    space = tensor_space(4, 2)
    suitable = TMesh.is_analysis_suitable
    monkeypatch.setattr(TMesh, "is_analysis_suitable", lambda self: (False, []) if self.m == 13 else suitable(self))
    with pytest.raises(MeshStructureError, match="^level 2 mesh is not analysis-suitable$"):
        refine_by_elements(space, space.elements[:3])
    capsys.readouterr()
    args = ["solve", "--benchmark", "skew45", "--elements", "4", "--iterations", "2"]
    assert main(args + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: level 2 mesh is not analysis-suitable\n"


def test_levels_are_admitted_where_their_data_is_made(monkeypatch):
    """A level's data is made only for a valid, analysis-suitable mesh: a
    build over the crossing-extension mesh or over a mesh with an L-shaped
    cell raises, and so does their subdivision, before any of the child is
    made; a refinement whose new level-2 mesh is not AS, or not valid,
    raises with that level's number."""
    invalid = samples.tensor_mesh(4, 4, 2, 2).without_segments(hsegs=[(4, 5)], vsegs=[(5, 4)])
    cases = (
        (samples.extension_mesh_unsuitable(), "level 1 mesh is not analysis-suitable"),
        (invalid, "level 1 invalid: non-rectangular-cell at (4, 4): cell component is not a rectangle"),
    )

    def unreachable(knots):
        raise AssertionError("a level that was not admitted was subdivided")

    with monkeypatch.context() as patch:
        patch.setattr(hierarchy, "refine_knots", unreachable)
        for mesh, message in cases:
            lv = LevelMesh(1, mesh, GlobalKnots.uniform_open(mesh.m, mesh.p), GlobalKnots.uniform_open(mesh.n, mesh.q))
            for make in (lambda: HierarchicalSpace([lv]), lambda: subdivide_suitable(lv)):
                with pytest.raises(MeshStructureError) as exc:
                    make()
                assert str(exc.value) == message
    space = tensor_space(4, 2)  # level 2 has 13 index lines a side
    suitable, valid = TMesh.is_analysis_suitable, TMesh.validate
    finding = Violation("valence", (7, 7), "interior vertex has valence 2")
    for name, fake, message in (
        ("is_analysis_suitable", lambda self: (False, []) if self.m == 13 else suitable(self), "mesh is not analysis-suitable"),
        ("validate", lambda self: [finding] if self.m == 13 else valid(self), f"invalid: {finding}"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(TMesh, name, fake)
            with pytest.raises(MeshStructureError) as exc:
                refine_by_elements(space, space.elements[:3])
            assert str(exc.value) == f"level 2 {message}"


def test_hierarchy_starts_at_level_1():
    """A hierarchy holds levels 1, 2, ... in order.  A start at level 2
    would label its functions level 1, and a refinement of it would dump a
    file that does not parse back."""
    start = tensor_space(4, 2)
    lv, child = refine_by_elements(start, start.elements[:3]).levels
    cases = ([], [replace(lv, level=2)], [replace(lv, level=0)], [lv, replace(child, level=3)], [child, lv])
    for levels in cases:
        with pytest.raises(MeshStructureError, match=r"^a hierarchy holds levels 1, 2, \.\.\. in order$"):
            HierarchicalSpace(levels)


def test_level_budget_refuses_before_subdividing(monkeypatch, tmp_path, capsys):
    """A child index grid of more than ``MAX_LEVEL_POINTS`` points is refused
    before any of it is made: in a refinement that adds a level, and in the
    solver, which exits 1 and writes nothing."""
    space = tensor_space(4, 2)  # m = n = 9: the level-2 index grid is 13 x 13
    monkeypatch.setattr(hierarchy, "MAX_LEVEL_POINTS", 13 * 13)
    assert subdivide_suitable(space.levels[0]).mesh.m == 13

    def unreachable(knots):
        raise AssertionError("subdivision went past the level budget")

    monkeypatch.setattr(hierarchy, "MAX_LEVEL_POINTS", 13 * 13 - 1)
    monkeypatch.setattr(hierarchy, "refine_knots", unreachable)
    msg = "level 2 would hold a 13 x 13 index grid, more than the budget of 168 points"
    with pytest.raises(MeshStructureError) as exc:
        refine_by_elements(space, space.elements[:3])
    assert str(exc.value) == msg
    capsys.readouterr()
    args = ["solve", "--benchmark", "skew45", "--elements", "4", "--iterations", "2"]
    assert main(args + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {msg}\n"
    assert not (tmp_path / "out").exists()


def test_level_budget_bounds_starts_and_files(monkeypatch, tmp_path, capsys):
    """The level budget also bounds a tensor start and every mesh a file
    declares, each refused before any of it is made: the start before its
    mesh, a mesh of a file right after its header line (exit 1, nothing
    written)."""
    start = tensor_space(4, 2)
    two = refine_by_elements(start, start.elements[:3])  # 9 x 9, then 13 x 13
    lv1 = two.levels[0]
    mesh_file, hier_file = tmp_path / "start.mesh", tmp_path / "two.hier"
    mesh_file.write_text(meshio.dump_mesh(lv1.mesh, lv1.hknots, lv1.vknots))
    hier_file.write_text(meshio.dump_hierarchy(two.levels))

    def unreachable(*args):
        raise AssertionError("a level went past the budget")

    monkeypatch.setattr(benchmarks, "tensor_mesh", unreachable)
    monkeypatch.setattr(meshio, "_read_knots", unreachable)
    monkeypatch.setattr(hierarchy, "MAX_LEVEL_POINTS", 9 * 9 - 1)
    msg = "level 1 would hold a 9 x 9 index grid, more than the budget of 80 points"
    with pytest.raises(MeshStructureError) as exc:
        tensor_space(4, 2)
    assert str(exc.value) == msg
    args = ["solve", "--benchmark", "skew45", "--elements", "4", "--iterations", "1", "--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {msg}\n"
    msg = "line 2: the mesh would hold a 9 x 9 index grid, more than the budget of 80 points"
    with pytest.raises(MeshStructureError) as exc:
        meshio.parse_mesh(mesh_file.read_text())
    assert str(exc.value) == msg
    for command in ("validate", "extract", "solve"):
        assert main([command, "--mesh", str(mesh_file), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {msg}\n"
    monkeypatch.undo()
    monkeypatch.setattr(hierarchy, "MAX_LEVEL_POINTS", 9 * 9)
    read, knots = [], meshio._read_knots
    monkeypatch.setattr(meshio, "_read_knots", lambda *args: read.append(args[1]) or knots(*args))
    header = hier_file.read_text().splitlines().index(meshio.MESH_MAGIC, 4) + 2
    msg = f"line {header}: the mesh would hold a 13 x 13 index grid, more than the budget of 81 points"
    with pytest.raises(MeshStructureError) as exc:
        meshio.parse_hierarchy(hier_file.read_text())
    assert str(exc.value) == msg and read == ["hknots", "vknots"]  # level 1's only
    assert main(["extract", "--mesh", str(hier_file), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {msg}\n"
    assert not (tmp_path / "out").exists()


def test_nesting_is_checked_once_per_pair(monkeypatch):
    """Each pair of level data is checked to nest once (``check_nested``),
    also when builds alternate between a chain's space and a refinement of
    an earlier space of the chain that added its own next level on the
    same level data below."""
    pairs = []
    check = hierarchy.check_nested
    monkeypatch.setattr(hierarchy, "check_nested", lambda a, b, k: pairs.append((a, b)) or check(a, b, k))
    start = tensor_space(4, 2)
    two = refine_by_elements(start, start.elements[:3])
    lv2 = [e for e in two.elements if e.level == 2]
    chain, other = refine_by_elements(two, lv2[:3]), refine_by_elements(two, lv2[-3:])
    data = lambda sp: [lv.kept[0] for lv in sp.levels]
    assert data(chain)[:2] == data(other)[:2] and data(chain)[2] is not data(other)[2]
    for _ in range(3):
        for space in (chain, other):
            HierarchicalSpace(space.levels)
    assert len(pairs) == len(set(pairs)) == 3


@pytest.mark.parametrize("times", [2, 3])
def test_repeated_interior_knot_is_not_subdivided(times, monkeypatch, tmp_path, capsys):
    """Subdivision halves every index span, so the zero-length span between
    repeated knots would raise the knot's multiplicity: 1/2 twice at p = 2
    would become p+1 = 3 times, a discontinuity, and 3 times would become 5.
    A level with a repeated interior knot is refused before any of its
    child is made, in a refinement and in a solve on a mesh file (exit 1)."""
    vals = [0, 0, 0, Fraction(1, 4)] + [Fraction(1, 2)] * times + [Fraction(3, 4), 1, 1, 1]
    mesh = samples.tensor_mesh(len(vals) - 5, 4, 2, 2)
    hk, vk = GlobalKnots(vals, 2), GlobalKnots.uniform_open(mesh.n, 2)
    path = tmp_path / "repeated.mesh"
    path.write_text(meshio.dump_mesh(mesh, hk, vk))
    assert main(["validate", "--mesh", str(path), "--out", str(tmp_path)]) == 0
    space = HierarchicalSpace([LevelMesh(1, mesh, hk, vk)])

    def unreachable(knots):
        raise AssertionError("subdivision went past the repeated knot")

    monkeypatch.setattr(hierarchy, "refine_knots", unreachable)
    msg = "level 2 cannot be made: level 1 repeats the interior knot 1/2, whose multiplicity subdivision would raise"
    with pytest.raises(MeshStructureError) as exc:
        refine_by_elements(space, space.elements[:3])
    assert str(exc.value) == msg
    capsys.readouterr()
    assert main(["solve", "--mesh", str(path), "--iterations", "2", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {msg}\n"
    assert not (tmp_path / "out").exists()


def _float_knot_mesh(hknots):
    """The T-mesh of ``samples/index_vector_c.mesh`` (p = 2, q = 3) with
    the given h knots and uniform eighths as v knots, read from .mesh text,
    so that each knot is the exact Fraction of a float."""
    with open(os.path.join(os.path.dirname(__file__), "..", "samples", "index_vector_c.mesh")) as f:
        lines = f.read().splitlines()
    lines[2] = "hknots " + " ".join(map(repr, hknots))
    lines[3] = "vknots " + " ".join(map(repr, [0.0] * 4 + [k / 8 for k in range(1, 7)] + [1.0] * 4))
    return meshio.parse_mesh("\n".join(lines) + "\n")


def test_subdivision_of_parsed_float_knots_is_exact():
    """Float knots parsed from .mesh text can have denominators near 2^63:
    with knots over 2^62, doubled numerators and the Greville sums of the
    boundary functions leave int64, and the midpoint products far more so.
    Three levels refine, every child knot is the exact midpoint or copy of
    its parents, and every Greville point equals the per-function oracle;
    an interior knot moved by 2^-60 still makes its element rejected."""
    u = (2**49 + 1) / 2**62  # exact; its multiples up to 4u are floats too
    knots = [0.0, 0.0, 0.0, u, 2 * u, 3 * u, 4 * u, 0.5, 0.75, 1.0, 1.0, 1.0]
    mesh, hk, vk = _float_knot_mesh(knots)
    assert max(v.denominator for v in hk.values) == 2**62
    space = HierarchicalSpace([LevelMesh(1, mesh, hk, vk, None)])
    for _ in range(3):
        top = max(e.level for e in space.elements)
        space = refine_by_elements(space, [e for e in space.elements if e.level == top][:2])
    assert len(space.levels) == 4
    for parent, child in zip(space.levels, space.levels[1:]):
        for pk, ck in ((parent.hknots, child.hknots), (parent.vknots, child.vknots)):
            m, p = pk.m, pk.p
            assert [ck[index_map(i, m, p)] for i in range(1, m + 1)] == list(pk.values)
            assert [ck[2 * i - p] for i in range(p + 1, m - p)] == [
                (pk[i] + pk[i + 1]) / 2 for i in range(p + 1, m - p)
            ]
    want = [greville_points(space.spaces[hf.level - 1], [hf.fn])[0].tolist() for hf in space.functions]
    assert space.greville_points().tolist() == want
    assert default_geometry(space)[1].tolist() == greville_points(space.spaces[0]).tolist()
    knots[4] += 2**-60
    mesh, hk, vk = _float_knot_mesh(knots)
    with pytest.raises(MeshStructureError, match=r"element \(4, 7, .* has no parametric-midpoint index line"):
        subdivide_suitable(LevelMesh(1, mesh, hk, vk, None))


def test_shipped_sevenths_sample_subdivides():
    """``samples/index_vector_c.mesh`` writes its knots as sevenths a/b, so
    they parse exact and the mesh subdivides twice into valid AS levels; a
    dump writes a/b only for a knot that is no float."""
    path = os.path.join(os.path.dirname(__file__), "..", "samples", "index_vector_c.mesh")
    mesh, hk, vk = meshio.parse_mesh(Path(path).read_text())
    assert hk.values[3:9] == tuple(Fraction(k, 7) for k in range(1, 7))
    assert vk.values[4:10] == tuple(Fraction(k, 7) for k in range(1, 7))
    lv = LevelMesh(1, mesh, hk, vk, None)
    for _ in range(2):
        lv = subdivide_suitable(lv)
        assert lv.mesh.validate() == [] and lv.mesh.is_analysis_suitable()[0]
    assert lv.hknots[4] == Fraction(1, 28)
    text = meshio.dump_mesh(lv.mesh, lv.hknots, lv.vknots)
    assert text.splitlines()[2].split()[1:6] == ["0.0", "0.0", "0.0", "1/28", "1/14"]
    mesh2, hk2, vk2 = meshio.parse_mesh(text)
    assert (hk2, vk2) == (lv.hknots, lv.vknots) and meshio.dump_mesh(mesh2, hk2, vk2) == text


# -- knot insertion (the test oracle) ------------------------------------------


def test_insert_knot_end_span_oracle():
    (c1, w1), (c2, w2) = insert_knot((0, 0, 0, 1), 2, Fraction(1, 2))
    assert c1 == 1 and w1 == (0, 0, 0, Fraction(1, 2))
    assert c2 == Fraction(1, 2) and w2 == (0, 0, Fraction(1, 2), 1)


def test_insert_knot_identity_random():
    rng = random.Random(4)
    for p in (1, 2, 3):
        for _ in range(20):
            vals = sorted(Fraction(rng.randrange(0, 9), 8) for _ in range(p + 2))
            if vals[0] == vals[-1]:
                continue
            interior = [v for v in vals]
            x = Fraction(rng.randrange(1, 16), 16)
            if not vals[0] < x < vals[-1]:
                continue
            pieces = insert_knot(tuple(vals), p, x)
            for s in np.linspace(0.01, 0.99, 23):
                ref = cox_de_boor(vals, p, s)
                got = sum(float(c) * cox_de_boor(w, p, s) for c, w in pieces)
                assert got == pytest.approx(ref, abs=1e-12)


# -- rational-sweep oracle ------------------------------------------------------


def rect_covered(rect, rects):
    """Closed rectangle ⊆ union of closed rectangles, exact rationals."""
    x1, x2, y1, y2 = rect
    if x1 >= x2 or y1 >= y2:
        return any(r[0] <= x1 and x2 <= r[1] and r[2] <= y1 and y2 <= r[3] for r in rects)
    xs = sorted({x1, x2} | {v for r in rects for v in r[:2] if x1 < v < x2})
    ys = sorted({y1, y2} | {v for r in rects for v in r[2:] if y1 < v < y2})
    for xa, xb in zip(xs, xs[1:]):
        mx = (xa + xb) / 2
        for ya, yb in zip(ys, ys[1:]):
            my = (ya + yb) / 2
            if not any(r[0] <= mx <= r[1] and r[2] <= my <= r[3] for r in rects):
                return False
    return True


def covered(rect, domain):
    return domain is None or rect_covered(rect, domain)


def domain_rects(levels, k):
    """The domain of ``levels[k]`` as the parametric rectangles of its
    elements, None for the whole square."""
    return None if k == 0 else [param_rect(levels[k - 1], r) for r in levels[k].domain]


def reference_cells(lv):
    """Extended-mesh cells of positive parametric area, by rational comparison."""
    return [
        (x1, x2, y1, y2)
        for x1, x2, y1, y2 in lv.mesh.extended().cells
        if lv.hknots[x2] > lv.hknots[x1] and lv.vknots[y2] > lv.vknots[y1]
    ]


def reference_build(space):
    """(functions, elements) of the space's levels, every object of H and HE
    re-tested against each level's domain rectangles."""
    levels, spaces = space.levels, space.spaces
    H = [HFunction(1, f) for f in spaces[0].functions]
    E = [HElement(1, rect, param_rect(levels[0], rect)) for rect in reference_cells(levels[0])]
    for k in range(1, len(levels)):
        dom = domain_rects(levels, k)
        assert all(covered(r, domain_rects(levels, k - 1)) for r in dom)
        sp = spaces[k]
        H = [hf for hf in H if not covered(space.support(hf), dom)] + [
            HFunction(k + 1, f) for f in sp.functions if covered(tuple(sp.support(f)), dom)
        ]
        E = [he for he in E if not covered(he.param_rect, dom)] + [
            HElement(k + 1, rect, param_rect(levels[k], rect))
            for rect in reference_cells(levels[k])
            if covered(param_rect(levels[k], rect), dom)
        ]
    return tuple(sorted(H, key=HFunction.sort_key)), tuple(sorted(E, key=HElement.sort_key))


def test_rect_covered_exact():
    unit = (Fraction(0), Fraction(1), Fraction(0), Fraction(1))
    h = Fraction(1, 2)
    quarters = [
        (Fraction(0), h, Fraction(0), h),
        (h, Fraction(1), Fraction(0), h),
        (Fraction(0), h, h, Fraction(1)),
        (h, Fraction(1), h, Fraction(1)),
    ]
    assert rect_covered(unit, quarters)
    assert not rect_covered(unit, quarters[:3])
    assert rect_covered(quarters[0], [unit])
    assert covered(unit, None)
    assert not covered(unit, tuple(quarters[:2]))
    # the span-mask predicate agrees on the grid {0, 1/2, 1}
    line = {Fraction(0): 0, h: 1, Fraction(1): 2}
    spans = lambda rects: np.array([[line[v] for v in r] for r in rects]).reshape(-1, 4)
    for dom in (quarters, quarters[:3], quarters[:2], [unit]):
        got = in_domain(spans([unit] + quarters), summed_area(spans(dom), (3, 3)))
        assert list(got) == [rect_covered(r, dom) for r in [unit] + quarters]


def test_build_matches_rational_sweep(hierarchies, seeded_chains):
    spaces = list(hierarchies)
    path = os.path.join(os.path.dirname(__file__), "..", "samples", "two_level_p2.hier")
    spaces.append(HierarchicalSpace(meshio.parse_hierarchy(Path(path).read_text())))
    spaces += [chain[-1] for chain in seeded_chains]
    assert max(len(sp.levels) for sp in spaces) == 6
    for space in spaces:
        assert (space.functions, space.elements) == reference_build(space)
        check_levels_nest(space)


# -- builds that reuse level data ----------------------------------------------


@pytest.fixture
def fresh_build(monkeypatch):
    """Builds a list of levels again with nothing kept from earlier builds.
    The level ``Space``s come from this fixture's own memo, so that a chain
    of such builds makes each of them once."""
    memo = {}

    def space(mesh, hknots, vknots):
        key = (mesh.key(), hknots, vknots)
        if key not in memo:
            memo[key] = Space(mesh, hknots, vknots)
        return memo[key]

    def build(levels):
        with monkeypatch.context() as m:
            m.setattr(hierarchy, "Space", space)
            return HierarchicalSpace([replace(lv, kept=None) for lv in levels])

    return build


def assert_same_build(got, want):
    assert [f.sort_key() for f in got.functions] == [f.sort_key() for f in want.functions]
    assert [e.sort_key() for e in got.elements] == [e.sort_key() for e in want.elements]
    assert got.elements == want.elements
    arrays = lambda sp: [
        sp.function_boxes, sp.element_boxes, sp.geometry_boxes, *sp.knot_lines, *sp.geometry_lines
    ]
    for a, b in zip(arrays(got), arrays(want), strict=True):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert got.grid_shape == want.grid_shape
    assert got.grid_numerators == want.grid_numerators
    # every field that a hierarchy dump writes
    assert got.levels == want.levels


def test_refinement_matches_fresh_build(hierarchies, seeded_chains, fresh_build):
    """Every step of the seeded chains, those that add a level and those that
    do not, builds what a build of its levels from scratch does, and its
    levels dump to text that parses back to equal levels.  The hierarchy
    dumps are compared at the end of each chain; on the way, the equal level
    fields imply them."""
    added = same = 0
    ends = list(hierarchies)
    for chain in seeded_chains:
        for before, after in zip(chain, chain[1:]):
            if len(after.levels) > len(before.levels):
                added += 1
            else:
                same += 1
            assert_same_build(after, fresh_build(after.levels))
            assert meshio.parse_hierarchy(meshio.dump_hierarchy(after.levels)) == list(after.levels)
        ends.append(chain[-1])
    assert added and same
    for space in ends:
        fresh = fresh_build(space.levels)
        assert_same_build(space, fresh)
        text = meshio.dump_hierarchy(space.levels)
        assert text == meshio.dump_hierarchy(fresh.levels)
        assert meshio.parse_hierarchy(text) == list(space.levels)


def test_bad_domain_fails_after_refinement_and_from_file(seeded_chains):
    """Added to the level-(k+1) domain of levels that carry kept data, a
    rect that is no level-k cell, one past the level's index lines and a
    level-k cell outside the level-k domain raise.  In a hierarchy file, a
    rectangle that cuts a level-k element fails to parse, and one over that
    cell parses to the cell, which the build refuses."""
    space = seeded_chains[0][-1]
    e = next(e for e in space.elements if 1 < e.level < len(space.levels))
    lv, below = space.levels[e.level], space.levels[e.level - 1]
    x1, x2, y1, y2 = e.index_rect
    assert x2 - x1 == 1 and lv.kept[2] is not None  # masks on record
    cells = map(tuple, below.kept[0].cells.tolist())
    out = next(r for r in cells if not rect_covered(param_rect(below, r), domain_rects(space.levels, e.level - 1)))
    k = e.level
    refused = lambda rect: f"level {k + 1} domain element {rect} is no level {k} element inside the level {k} domain"
    for rect in ((x1, x2 + 1, y1, y2), (x1, 10**6, y1, y2), out):
        levels = list(space.levels)
        levels[k] = replace(lv, domain=lv.domain | {rect})
        with pytest.raises(MeshStructureError) as exc:
            HierarchicalSpace(levels)
        assert str(exc.value) == refused(rect)
    s1, s2, t1, t2 = e.param_rect
    text = meshio.dump_hierarchy(space.levels)
    cut = (s1, (s1 + s2) / 2, t1, (t1 + t2) / 2)
    with pytest.raises(MeshStructureError) as exc:
        meshio.parse_hierarchy(with_domain(text, k + 1, domain_rects(space.levels, k) + [cut]))
    why = f"is not a union of level {k} element closures"
    assert str(exc.value) == f"level {k + 1} domain rectangle ({', '.join(map(str, cut))}) {why}"
    levels = meshio.parse_hierarchy(with_domain(text, k + 1, domain_rects(space.levels, k) + [param_rect(below, out)]))
    assert levels[k].domain == lv.domain | {out}
    with pytest.raises(MeshStructureError) as exc:
        HierarchicalSpace(levels)
    assert str(exc.value) == refused(out)


def test_refinement_cost_follows_change(seeded_chains, monkeypatch):
    """A refinement that adds no level makes no ``Space`` and no Bezier cells,
    asks no mesh for its extension and checks no mesh; one that adds a
    level makes one ``Space`` and the new level's cells only, subdividing
    the parent with the cells it keeps, and checks the new level's mesh
    once for validity and once for suitability."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(hierarchy, "Space", counted("Space", Space))
    monkeypatch.setattr(hierarchy, "bezier_cells", counted("bezier_cells", hierarchy.bezier_cells))
    monkeypatch.setattr(TMesh, "extended", counted("extended", TMesh.extended))
    monkeypatch.setattr(TMesh, "validate", counted("validate", TMesh.validate))
    monkeypatch.setattr(TMesh, "is_analysis_suitable", counted("is_analysis_suitable", TMesh.is_analysis_suitable))
    deep = seeded_chains[0][-1]
    start = tensor_space(4, 2)
    calls.clear()
    same = refine_by_elements(deep, [e for e in deep.elements if e.level < len(deep.levels)][:3])
    assert len(same.levels) == len(deep.levels) and calls == Counter()
    two = refine_by_elements(start, start.elements[:3])
    assert len(two.levels) == 2 and calls["Space"] == calls["bezier_cells"] == 1
    assert calls["validate"] == calls["is_analysis_suitable"] == 1
    calls.clear()
    still = refine_by_elements(two, [e for e in two.elements if e.level == 1][:3])
    assert len(still.levels) == 2 and calls == Counter()


def test_domain_tests_follow_change(seeded_chains, monkeypatch, fresh_build):
    """A 3-element refinement of the deepest seeded chain passes at most 5 %
    of its level functions plus cells to ``in_domain``; a build of a built
    space's own levels passes none, a build with nothing kept more."""
    rows = Counter()

    def counted(spans, table):
        rows["calls"] += 1
        rows["rows"] += len(spans)
        return in_domain(spans, table)

    monkeypatch.setattr(hierarchy, "in_domain", counted)
    deep = max((chain[-1] for chain in seeded_chains), key=lambda sp: len(sp.levels))
    size = sum(len(sp.functions) for sp in deep.spaces)
    size += sum(len(lv.kept[0].cells) for lv in deep.levels)
    marked = [e for e in deep.elements if e.level < len(deep.levels)][-3:]
    assert max(e.level for e in marked) > 1
    same = refine_by_elements(deep, marked)
    assert 0 < rows["rows"] <= 0.05 * size
    assert_same_build(same, fresh_build(same.levels))
    rows.clear()
    assert_same_build(HierarchicalSpace(same.levels), same)
    assert rows == Counter()
    fresh_build(same.levels)
    assert rows["rows"] > 0.05 * size


def test_growth_matches_fresh_build(seeded_chains, fresh_build):
    """Builds that grow recorded domain masks build what builds of the same
    levels from scratch and from their dumps build, and the dumps parse back
    to equal levels: a refinement that adds a level, which changes the
    finest grid, and grows lower domains in one step; and a level-2 domain
    read from .hier text, grown by the four level-1 elements under a
    rectangle, one of them already in it.  The same rectangle added to the
    file's domain lines reads as the grown domain."""

    def check(got):
        assert_same_build(got, fresh_build(got.levels))
        text = meshio.dump_hierarchy(got.levels)
        assert meshio.parse_hierarchy(text) == list(got.levels)
        assert_same_build(got, HierarchicalSpace(meshio.parse_hierarchy(text)))
        assert text == meshio.dump_hierarchy(fresh_build(got.levels).levels)

    chain = seeded_chains[1]
    start = next(sp for sp in chain if len(sp.levels) == 4)
    top = len(start.levels)
    marked = [e for e in start.elements if e.level == top][:2]
    marked += [next(e for e in start.elements if e.level == lvl) for lvl in (top - 1, 1)]
    grown = refine_by_elements(start, marked)
    assert len(grown.levels) == top + 1 and grown.grid_shape != start.grid_shape
    assert all(len(grown.levels[e.level].domain) > len(start.levels[e.level].domain) for e in marked[2:])
    check(grown)

    text = meshio.dump_hierarchy(chain[-1].levels)
    read = HierarchicalSpace(meshio.parse_hierarchy(text))
    lv1 = read.levels[0]
    within = lambda r, box: box[0] <= r[0] and r[1] <= box[1] and box[2] <= r[2] and r[3] <= box[3]
    ends = [Fraction(k, 4) for k in range(3)]
    box = next(
        box
        for box in ((a, a + Fraction(1, 2), b, b + Fraction(1, 2)) for a in ends for b in ends)
        if any(within(param_rect(lv1, r), box) for r in read.levels[1].domain)
        and any(within(e.param_rect, box) for e in read.elements if e.level == 1)
    )
    under = {r for r in map(tuple, lv1.kept[0].cells.tolist()) if within(param_rect(lv1, r), box)}
    assert len(under) == 4
    levels = list(read.levels)
    levels[1] = replace(levels[1], domain=levels[1].domain | under)
    assert levels[1].kept is read.levels[1].kept
    big = HierarchicalSpace(levels)
    assert big.n_e > read.n_e
    check(big)
    overlapping = with_domain(text, 2, domain_rects(read.levels, 1) + [box])
    assert meshio.parse_hierarchy(overlapping) == levels


def test_masks_are_dropped_with_the_level_below(fresh_build):
    """Domain masks on record hold for the level data below them only: a
    level 1 replaced by a mesh on the same knots, with fewer cells, builds
    what a build from scratch does."""
    start = tensor_space(4, 2)
    two = refine_by_elements(start, start.elements[:3])
    levels = list(two.levels)
    # index line x = 6 loses every segment, so cells on its two sides merge
    merged = levels[0].mesh.without_segments(vsegs=[(6, y) for y in range(3, 7)])
    levels[0] = replace(levels[0], mesh=merged)
    got = HierarchicalSpace(levels)
    assert got.n_e < two.n_e and got.levels[1].kept[2][0] is got.levels[0].kept[0]
    assert_same_build(got, fresh_build(levels))


def test_refined_space_survives_pickling(seeded_chains):
    """The level data kept by builds pickles; a refinement of the copy
    builds what a refinement of the original does."""
    space = seeded_chains[0][-1]
    copy = pickle.loads(pickle.dumps(space))
    marked = [e for e in space.elements if e.level < len(space.levels)][:3]
    assert_same_build(refine_by_elements(copy, marked), refine_by_elements(space, marked))


# -- hierarchy construction ----------------------------------------------------


def recount_elements(space):
    """Independent HE bookkeeping: per level, cells of the extended mesh kept
    iff (not inside the next domain) and (inside this level's domain)."""
    count = 0
    for k, lv in enumerate(space.levels):
        cells = reference_cells(lv)
        nxt = space.levels[k + 1].domain if k + 1 < len(space.levels) else ()
        for rect in cells:
            pr = param_rect(lv, rect)
            if not covered(pr, domain_rects(space.levels, k)):
                continue
            if nxt and covered(pr, domain_rects(space.levels, k + 1)):
                continue
            count += 1
    return count


def test_element_count_matches_recount(hierarchies):
    for space in hierarchies:
        assert space.n_e == recount_elements(space)
        # every basis function is covered by HE element closures
        rects = [he.param_rect for he in space.elements]
        assert all(rect_covered(space.support(hf), rects) for hf in space.functions)


def test_empty_mark_is_identity():
    space = tensor_space(4, 2)
    same = refine_by_elements(space, [])
    assert same.n_f == space.n_f and same.n_e == space.n_e


def test_repeated_mark_is_one_mark():
    space = tensor_space(4, 2)
    e = space.elements[5]
    once = refine_by_elements(space, [e])
    twice = refine_by_elements(space, [e, e])
    assert twice.levels[1].domain == once.levels[1].domain == {e.index_rect}
    assert meshio.dump_hierarchy(twice.levels) == meshio.dump_hierarchy(once.levels)


def test_mark_all_equals_uniform_refinement():
    space = tensor_space(3, 2)
    refined = refine_by_elements(space, list(space.elements))
    # domain-wide second level: the hierarchy collapses to the fine space
    fine = refined.spaces[1]
    assert refined.n_f == len(fine.functions)
    assert all(hf.level == 2 for hf in refined.functions)
    assert refined.n_e == 4 * space.n_e


def test_single_mark_bicubic_two_span_patch():
    space = tensor_space(2, 3)
    assert space.n_e == 4
    marked = [space.elements[0]]
    refined = refine_by_elements(space, marked)
    assert refined.n_e == space.n_e + 3


def test_refine_rejects_foreign_element():
    space = tensor_space(3, 2)
    other = tensor_space(4, 2)
    with pytest.raises(MeshStructureError):
        refine_by_elements(space, [other.elements[0]])


def test_level_cap_enforced():
    space = tensor_space(2, 2)
    with pytest.raises(MeshStructureError):
        for _ in range(5):
            deepest = max(space.elements, key=lambda e: e.level)
            space = refine_by_elements(space, [deepest], max_levels=3)


def test_levels_must_nest(tmp_path, capsys):
    space = tensor_space(2, 2)
    refined = refine_by_elements(space, [space.elements[0]])
    lv1, lv2 = refined.levels
    # a level-3 domain escaping the level-2 domain must be rejected: in a
    # build, a level-2 element outside it, also when a file's rectangle
    # over such elements reads as them
    whole = refine_by_elements(space, space.elements)
    escape = [e for e in whole.elements if e.param_rect[0] >= Fraction(1, 2) and e.param_rect[2] == 0]
    lv3 = replace(subdivide_suitable(whole.levels[1]), domain=frozenset({escape[0].index_rect}))
    outside = r"level 3 domain element \(.*\) is no level 2 element inside the level 2 domain"
    with pytest.raises(MeshStructureError, match=outside):
        HierarchicalSpace([lv1, lv2, lv3])
    half = (Fraction(1, 2), Fraction(1), Fraction(0), Fraction(1, 2))
    text = meshio.dump_hierarchy([lv1, lv2, replace(lv3, domain=frozenset())])
    levels = meshio.parse_hierarchy(with_domain(text, 3, [half]))
    assert len(levels[2].domain) == 4
    with pytest.raises(MeshStructureError, match=outside):
        HierarchicalSpace(levels)
    # a domain that cuts through parent elements (3/8 is a level-2 knot but
    # no level-1 element boundary), and one with a corner that is no knot of
    # either level, in a hierarchy file: corners are judged on level 1's knots
    lv1 = tensor_space(4, 2).levels[0]
    text = meshio.dump_hierarchy([lv1, subdivide_suitable(lv1)])
    for cut in (Fraction(3, 8), Fraction(1, 16)):
        msg = f"level 2 domain rectangle (0, {cut}, 0, {cut}) is not a union of level 1 element closures"
        hier = tmp_path / "domain.hier"
        hier.write_text(with_domain(text, 2, [(0, cut, 0, cut)]))
        with pytest.raises(MeshStructureError) as exc:
            meshio.parse_hierarchy(hier.read_text())
        assert str(exc.value) == msg
        capsys.readouterr()
        assert main(["extract", "--mesh", str(hier), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", f"error: {msg}\n")


def test_level_meshes_must_nest(tmp_path, capsys):
    """A level-2 mesh that loses the vertical unit segments (7, 5) and
    (7, 6) of the subdivision of ``tensor_space(4, 2)``, on the line
    x = 1/2, is still valid and analysis-suitable but no longer holds the
    level-1 mesh, and 20 of the 36 level-1 functions are no sums of its
    functions.  The build refuses it, and so do extract and solve with a
    hierarchy file of it (exit 1)."""
    lv1 = tensor_space(4, 2).levels[0]
    lv2 = subdivide_suitable(lv1)
    assert lv2.hknots[7] == Fraction(1, 2)
    mesh = lv2.mesh.without_segments(vsegs=[(7, 5), (7, 6)])
    assert mesh.validate() == [] and mesh.is_analysis_suitable()[0]
    cut = replace(lv2, mesh=mesh, domain=frozenset(map(tuple, lv1.kept[0].cells[:2].tolist())))
    coarse, fine = lv1.kept[0].space, Space(mesh, lv2.hknots, lv2.vknots)
    lost = 0
    for fn in coarse.functions:
        try:
            represent_in_space(coarse.h_values(fn), coarse.v_values(fn), fine)
        except MeshStructureError as exc:
            assert "lies strictly inside span" in str(exc)
            lost += 1
    assert lost == 20
    msg = "level 2 mesh does not hold the extended level 1 mesh"
    with pytest.raises(MeshStructureError, match=msg):
        HierarchicalSpace([lv1, cut])
    hier = tmp_path / "cut.hier"
    hier.write_text(meshio.dump_hierarchy([lv1, cut]))
    for cmd in (["extract"], ["solve", "--iterations", "1"]):
        capsys.readouterr()
        assert main([*cmd, "--mesh", str(hier), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert not (tmp_path / "out").exists()


def test_knots_of_each_level_must_be_knots_of_the_next():
    """In a build, of levels made in memory or read from a hierarchy file;
    tensor levels whose knots nest also nest as meshes."""

    def level(k, ne, below=None, upto=Fraction(1)):
        mesh = samples.tensor_mesh(ne, ne, 2, 2)
        hk, vk = GlobalKnots.uniform_open(mesh.m, 2), GlobalKnots.uniform_open(mesh.n, 2)
        if below is None:
            return LevelMesh(k, mesh, hk, vk, None)
        cells = one_level(below.mesh).elements
        domain = frozenset(e.index_rect for e in cells if e.param_rect[1] <= upto and e.param_rect[3] <= upto)
        return LevelMesh(k, mesh, hk, vk, domain)

    def chain(*sizes):
        levels = [level(1, sizes[0])]
        for k, ne in enumerate(sizes[1:], 2):
            levels.append(level(k, ne, levels[-1], Fraction(1) if k == 2 else Fraction(1, 3)))
        return levels

    # thirds, sixths, twelfths nest
    space = HierarchicalSpace(chain(3, 6, 12))
    assert {hf.level for hf in space.functions} == {2, 3}
    check_levels_nest(space)
    assert meshio.parse_hierarchy(meshio.dump_hierarchy(space.levels)) == list(space.levels)
    # quarters, thirds, twelfths: every knot is a knot of the finest level,
    # but level 2 lacks the level-1 knot 1/4; quarters, eighths, thirds:
    # levels 1 and 2 nest, but neither level's knots are all knots of the
    # finest level
    for sizes, lost in (((4, 3, 12), "1/4"), ((4, 8, 3), "1/8")):
        msg = f"knot {lost} of a level is not a knot of the next level"
        with pytest.raises(MeshStructureError, match=msg):
            HierarchicalSpace(chain(*sizes))
        with pytest.raises(MeshStructureError, match=msg):
            HierarchicalSpace(meshio.parse_hierarchy(meshio.dump_hierarchy(chain(*sizes))))


def test_levels_must_have_the_same_degrees():
    lv1 = tensor_space(2, 2).levels[0]
    mesh = samples.tensor_mesh(4, 4, 3, 3)
    hk, vk = GlobalKnots.uniform_open(mesh.m, 3), GlobalKnots.uniform_open(mesh.n, 3)
    corner = frozenset({tensor_space(2, 2).elements[0].index_rect})
    with pytest.raises(MeshStructureError, match="same degrees"):
        HierarchicalSpace([lv1, LevelMesh(2, mesh, hk, vk, corner)])


# -- nesting -------------------------------------------------------------------


def test_coarse_functions_nest_in_fine_space():
    space = tensor_space(3, 2)
    space = refine_by_elements(space, list(space.elements)[:4])
    rng = np.random.default_rng(21)
    pts = rng.random((200, 2))
    sp1 = space.spaces[0]
    fine = space.spaces[1]
    for fn in sp1.functions[:: max(1, len(sp1.functions) // 6)]:
        coeffs = represent_in_space(sp1.h_values(fn), sp1.v_values(fn), fine)
        for s, t in pts:
            ref = eval_function(sp1, fn, s, t)
            got = sum(float(c) * eval_function(fine, f, s, t) for f, c in coeffs.items())
            assert abs(ref - got) < 1e-10


def test_representation_check_rejects_wrong_coefficients():
    space = tensor_space(3, 2)
    space = refine_by_elements(space, list(space.elements)[:4])
    sp1, fine = space.spaces[0], space.spaces[1]
    fn = sp1.functions[12]  # the central function, supported on all of [0,1]^2
    hv, vv = sp1.h_values(fn), sp1.v_values(fn)
    coeffs = represent_in_space(hv, vv, fine)
    wrong = {f: c * Fraction(1001, 1000) for f, c in coeffs.items()}
    with pytest.raises(MeshStructureError, match="nesting violated"):
        _verify_representation(hv, vv, fine, wrong)


def test_exact_check_rejects_doubled_deep_representations():
    """On a 5-level hierarchy grown like the refine-deep benchmark's set-up
    (3 seeded random elements of the deepest level per step, seed 1), the
    first 200 level-4 functions pass the exact check on level 5 and each
    fails it with every coefficient doubled, although most of their
    supports hold none of any fixed handful of sample points."""
    rng = random.Random(1)
    space = tensor_space(4, 2)
    while len(space.levels) < 5:
        deepest = [e for e in space.elements if e.level == max(e.level for e in space.elements)]
        space = refine_by_elements(space, rng.sample(deepest, 3), max_levels=5)
    coarse, fine = space.spaces[3], space.spaces[4]
    assert len(coarse.functions) == 1156
    for fn in coarse.functions[:200]:
        hv, vv = coarse.h_values(fn), coarse.v_values(fn)
        doubled = {f: 2 * c for f, c in represent_in_space(hv, vv, fine).items()}
        with pytest.raises(MeshStructureError) as exc:
            _verify_representation(hv, vv, fine, doubled)
        # the doubled sum is the coarse function again, first seen at its support's corner
        assert str(exc.value) == f"nesting violated: the representation differs on the spans at ({hv[0]}, {vv[0]})"


def test_nesting_across_randomized_refinements():
    """20 randomized marking steps; after each, every surviving coarse
    function must be representable on the deepest level."""
    rng = random.Random(77)
    space = tensor_space(4, 2)
    steps = 0
    while steps < 20:
        candidates = [e for e in space.elements if e.level < 6]
        marked = rng.sample(candidates, k=min(3, len(candidates)))
        if not marked:
            break
        space = refine_by_elements(space, marked, max_levels=6)
        steps += 1
        hf = rng.choice(space.functions)
        if hf.level < len(space.levels):
            # the representation verifies itself exactly
            represent_coarse_in_fine(space, hf, hf.level + 1)
    assert steps == 20


def support_area(support):
    s1, s2, t1, t2 = support
    return (s2 - s1) * (t2 - t1)


def test_representation_matches_knot_insertion_oracle(hierarchies, seeded_chains):
    """Dual functionals against knot insertion, equal dicts of Fractions, on
    the seeded chains, the sample hierarchies, the thirds spaces, and chains
    of degrees (2, 3) and (1, 2) and from a T-junction start.  Each level's
    active function of smallest support and 5 seeded others on the next
    level, and the smallest on the level after, so every finer level is
    reached from two levels.  Deeper pairs are left out for the oracle's
    sake: its queue splits one knot at a time, so its work multiplies with
    every level (a generic level-1 function takes seconds on level 4 and
    exceeds the queue's 100,000-step guard on level 6)."""
    spaces = [chain[-1] for chain in seeded_chains] + list(hierarchies)
    spaces += [thirds_space(2), thirds_space(3)]
    starts = [
        tensor_space(4, 2, 3),
        tensor_space(4, 1, 2),
        one_level(samples.random_as_mesh(2, 2, num_elements=6, removals=8, seed=1)),
    ]
    spaces += [refinement_chain(seed, start, steps=8)[-1] for seed, start in enumerate(starts, 4)]
    rng = random.Random(5)
    pairs = 0
    for space in spaces:
        check_levels_nest(space)
        top = len(space.levels)
        for k in range(1, top):
            coarse = space.spaces[k - 1]
            active = [hf.fn for hf in space.functions if hf.level == k]
            active.sort(key=lambda fn: support_area(coarse.support(fn)))
            if not active:
                continue
            sampled = [active[0]] + rng.sample(active[1:], min(5, len(active) - 1))
            for j, fns in zip(range(k + 1, top + 1), (sampled, active[:1])):
                fine = space.spaces[j - 1]
                for fn in fns:
                    hv, vv = coarse.h_values(fn), coarse.v_values(fn)
                    assert represent_in_space(hv, vv, fine) == represent_oracle(hv, vv, fine)
                    pairs += 1
    assert pairs > 250


def test_hierarchical_basis_full_rank(hierarchies):
    rng = np.random.default_rng(33)
    for space in hierarchies:
        g = space.greville_points()
        extra = rng.random((space.n_f // 2 + 5, 2))
        pts = np.vstack([g, extra])
        A = np.array([eval_all(space, s, t) for s, t in pts])
        assert np.linalg.matrix_rank(A, tol=1e-10) == space.n_f
