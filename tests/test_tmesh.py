"""Topology layer: validity, T-junctions, extensions, analysis-suitability.

Oracles here recompute junctions and extension crossings by brute force
directly from the segment arrays, independent of the library's cached
derivations; valences, and everything else the library reads off its
incidence arrays, are compared with the per-entity oracles of ``conftest``.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import conftest as oracle
from conftest import as_mesh_corpus, declared_vertices, sample_hierarchies, thirds_space
from hasts import meshio, samples
from hasts.basis import GlobalKnots, Space, anchors, minimal_edges
from hasts.tmesh import (
    MISSING_LEFT,
    MISSING_RIGHT,
    MISSING_UP,
    MISSING_DOWN,
    MeshStructureError,
    TMesh,
)


def brute_t_junctions(mesh):
    """Interior points with exactly three incident segments that are genuine
    vertices (both axes present or a terminating edge)."""
    out = set()
    for x in range(2, mesh.m):
        for y in range(2, mesh.n):
            if oracle.valence(mesh, x, y) == 3:
                out.add((x, y))
    return out


# -- elementary structure ------------------------------------------------------


def test_tensor_grid_structure():
    mesh = TMesh.tensor_grid(8, 7, 2, 2)
    assert mesh.validate() == []
    assert mesh.t_junctions() == []
    ok, bad = mesh.is_analysis_suitable()
    assert ok and bad == []
    # all unit cells, exact area partition
    assert len(mesh.cells) == (mesh.m - 1) * (mesh.n - 1)
    assert all(x2 - x1 == 1 and y2 - y1 == 1 for x1, x2, y1, y2 in mesh.cells)


def test_valence_matches_brute_force(as_meshes):
    for mesh in as_meshes:
        *dirs, valence = mesh.incidence
        for x in range(1, mesh.m + 1):
            for y in range(1, mesh.n + 1):
                assert valence[x, y] == oracle.valence(mesh, x, y)
                assert tuple(d[x, y] for d in dirs) == oracle.directions(mesh, x, y)


def test_t_junctions_match_brute_force(as_meshes):
    for mesh in as_meshes:
        got = {(tj.x, tj.y) for tj in mesh.t_junctions()}
        assert got == brute_t_junctions(mesh)


def test_t_junction_missing_direction():
    mesh = samples.tensor_mesh(6, 6, 2, 2).without_segments(hsegs=[(6, 6)])
    tjs = {(tj.x, tj.y): tj.missing for tj in mesh.t_junctions()}
    assert tjs == {(6, 6): MISSING_RIGHT, (7, 6): MISSING_LEFT}
    mesh = samples.tensor_mesh(6, 6, 2, 2).without_segments(vsegs=[(6, 6)])
    tjs = {(tj.x, tj.y): tj.missing for tj in mesh.t_junctions()}
    assert tjs == {(6, 6): MISSING_UP, (6, 7): MISSING_DOWN}


def test_region_split_bounds():
    mesh = TMesh.tensor_grid(13, 13, 2, 2)
    assert mesh.region_split() == (2, 12, 2, 12)
    mesh = TMesh.tensor_grid(15, 14, 3, 2)
    assert mesh.region_split() == (3, 13, 2, 13)


def test_cells_recount_area(as_meshes):
    for mesh in as_meshes:
        area = sum((x2 - x1) * (y2 - y1) for x1, x2, y1, y2 in mesh.cells)
        assert area == (mesh.m - 1) * (mesh.n - 1)
        # open cell interiors carry no skeleton
        for x1, x2, y1, y2 in mesh.cells:
            assert not mesh.hseg[x1:x2, y1 + 1 : y2].any()
            assert not mesh.vseg[x1 + 1 : x2, y1:y2].any()


# -- validation findings -------------------------------------------------------


def test_validate_reports_broken_boundary():
    mesh = TMesh.tensor_grid(8, 8, 2, 2).without_segments(hsegs=[(4, 1)])
    kinds = {v.kind for v in mesh.validate()}
    assert "frame-grid" in kinds


def test_validate_reports_incomplete_zero_knot_line():
    mesh = TMesh.tensor_grid(10, 10, 2, 2).without_segments(vsegs=[(2, 5)])
    kinds = {v.kind for v in mesh.validate()}
    assert "frame-grid" in kinds


def test_validate_reports_frame_t_junction():
    # stub line ending between the zero-knot lines of the frame band
    mesh = TMesh.tensor_grid(10, 10, 3, 3).without_segments(
        vsegs=[(6, 2)]
    )
    kinds = {v.kind for v in mesh.validate()}
    assert "frame-t-junction" in kinds


def test_validate_reports_dangling_edge():
    """A stub ending at (5, 5) inside a cell: its free end is a vertex of
    valence 1, so validation reports it and the dump reads back."""
    mesh = samples.tensor_mesh(4, 4, 2, 2).without_segments(hsegs=[(5, 5)], vsegs=[(5, 5), (5, 4)])
    assert (5, 5) in mesh.canonical_vertices
    assert [(v.kind, v.where) for v in mesh.validate()] == [("valence", (5, 5))]
    hk, vk = GlobalKnots.uniform_open(mesh.m, mesh.p), GlobalKnots.uniform_open(mesh.n, mesh.q)
    text = meshio.dump_mesh(mesh, hk, vk)
    back, _, _ = meshio.parse_mesh(text)
    assert np.array_equal(back.hseg, mesh.hseg) and np.array_equal(back.vseg, mesh.vseg)
    assert meshio.dump_mesh(back, hk, vk) == text


def test_validate_accepts_corpus(as_meshes):
    for mesh in as_meshes:
        assert mesh.validate() == []


def test_constructor_rejects_bad_shapes():
    with pytest.raises(MeshStructureError):
        TMesh(8, 8, 2, 2, np.zeros((8, 8), bool), np.zeros((9, 9), bool))
    with pytest.raises(MeshStructureError):
        TMesh(3, 3, 2, 2, np.zeros((4, 4), bool), np.zeros((4, 4), bool))  # domain too small
    with pytest.raises(MeshStructureError):
        TMesh(8, 8, 0, 2, np.zeros((9, 9), bool), np.zeros((9, 9), bool))


def test_from_vertices_edges_round_trip():
    base = samples.extension_mesh_suitable()
    verts = sorted(base.canonical_vertices)
    edges = []
    for i in range(1, base.m + 1):
        for j in range(1, base.n + 1):
            if base.hseg[i, j]:
                edges.append(((i, j), (i + 1, j)))
            if base.vseg[i, j]:
                edges.append(((i, j), (i, j + 1)))
    # unit-segment endpoints are not all canonical vertices; declare them all
    pts = {pt for e in edges for pt in e}
    mesh = TMesh.from_vertices_edges(base.m, base.n, base.p, base.q, pts, edges)
    assert np.array_equal(mesh.hseg, base.hseg)
    assert np.array_equal(mesh.vseg, base.vseg)


def test_from_vertices_edges_dangling_endpoint():
    with pytest.raises(MeshStructureError):
        TMesh.from_vertices_edges(6, 6, 2, 2, [(1, 1)], [((1, 1), (1, 6))])


def test_from_vertices_edges_rejects_diagonal():
    with pytest.raises(MeshStructureError):
        TMesh.from_vertices_edges(6, 6, 2, 2, [(1, 1), (2, 2)], [((1, 1), (2, 2))])


def test_from_vertices_edges_names_the_first_bad_entry():
    """Vertices are checked before edges, and edges in order, an edge's
    dangling endpoint before its direction; an endpoint off the index
    domain dangles.  Edges given as rows build what vertex pairs build."""
    verts = [(1, 1), (1, 6), (6, 1), (2, 2)]
    good = [((1, 1), (1, 6)), ((6, 1), (1, 1))]
    cases = [
        (verts + [(7, 1)], good, "vertex (7, 1) outside index domain"),
        (verts, good + [((2, 2), (2, 6)), ((1, 1), (2, 2))], "edge ((2, 2), (2, 6)) has dangling endpoint"),
        (verts, good + [((1, 1), (2, 2)), ((2, 2), (2, 6))], "edge ((1, 1), (2, 2)) is not axis-aligned"),
        (verts, good + [((2, 2), (2, 2))], "edge ((2, 2), (2, 2)) is not axis-aligned"),
        (verts, good + [((0, 1), (1, 1))], "edge ((0, 1), (1, 1)) has dangling endpoint"),
        (verts, good + [((1, 10**30), (1, 1))], "a vertex or edge endpoint lies outside the index domain"),
    ]
    for vs, es, message in cases:
        with pytest.raises(MeshStructureError) as exc:
            TMesh.from_vertices_edges(6, 6, 2, 2, vs, es)
        assert str(exc.value) == message
    pairs = TMesh.from_vertices_edges(6, 6, 2, 2, verts, good)
    rows = TMesh.from_vertices_edges(6, 6, 2, 2, np.array(verts), np.array(good).reshape(-1, 4))
    assert pairs == rows and np.array_equal(pairs.declared, rows.declared)
    assert declared_vertices(pairs) == set(verts)
    assert pairs.vseg[1, 1:6].all() and pairs.hseg[1:6, 1].all() and pairs.hseg.sum() + pairs.vseg.sum() == 10


# -- extensions and analysis-suitability --------------------------------------


def test_extension_lengths():
    """Face part crosses floor((deg+1)/2) perpendicular lines, edge part
    ceil((deg-1)/2), on a fully gridded neighborhood."""
    for p in (2, 3, 4):
        mesh = samples.tensor_mesh(9, 9, p, p)
        cx = (mesh.m + 1) // 2
        mesh = mesh.without_segments(hsegs=[(cx, cx)])
        for ext in mesh.extensions():
            assert ext.axis == "h"
            tj = ext.junction
            if tj.missing == MISSING_RIGHT:
                assert ext.face_hi - tj.x == (p + 1) // 2
                assert tj.x - ext.edge_lo == (p - 1 + 1) // 2
            else:
                assert tj.x - ext.face_lo == (p + 1) // 2
                assert ext.edge_hi - tj.x == (p - 1 + 1) // 2


def test_extension_clipped_at_boundary():
    # junction close to the frame: the face extension stops at the domain edge
    mesh = samples.build_mesh(13, 13, 2, 2, vlines=[(5, 3, 11), (9, 3, 11)],
                              hlines=[(7, 3, 5)])
    for ext in mesh.extensions():
        assert 1 <= ext.lo and ext.hi <= mesh.m


def test_suitability_golden_pair():
    ok, bad = samples.extension_mesh_suitable().is_analysis_suitable()
    assert ok and bad == []
    ok, bad = samples.extension_mesh_unsuitable().is_analysis_suitable()
    assert not ok and len(bad) >= 1
    for h, v in bad:
        assert h.axis == "h" and v.axis == "v"
        # all offending pairs cross at the single point (8, 8)
        assert h.lo <= 8 <= h.hi and v.lo <= 8 <= v.hi
        assert h.line == 8 and v.line == 8


def brute_crossing(h, v):
    hx = set(range(h.lo, h.hi + 1))
    vy = set(range(v.lo, v.hi + 1))
    return v.line in hx and h.line in vy


def test_suitability_matches_crossing_oracle(as_meshes):
    for mesh in as_meshes + [samples.extension_mesh_unsuitable()]:
        exts = mesh.extensions()
        hs = [e for e in exts if e.axis == "h"]
        vs = [e for e in exts if e.axis == "v"]
        expect = any(brute_crossing(h, v) for h in hs for v in vs)
        ok, bad = mesh.is_analysis_suitable()
        assert ok == (not expect)
        assert bool(bad) == expect


def test_extended_mesh_contains_original(as_meshes):
    for mesh in as_meshes:
        ext = mesh.extended()
        assert oracle.includes(ext, mesh)
        # every extended cell lies inside some original cell
        for x1, x2, y1, y2 in ext.cells:
            assert any(
                a1 <= x1 and x2 <= a2 and b1 <= y1 and y2 <= b2
                for a1, a2, b1, b2 in mesh.cells
            )


def test_extended_materializes_every_extension(as_meshes):
    for mesh in as_meshes:
        ext = mesh.extended()
        for e in mesh.extensions():
            if e.axis == "h":
                assert ext.hseg[e.lo : e.hi, e.line].all()
            else:
                assert ext.vseg[e.line, e.lo : e.hi].all()
        # still an exact area partition
        area = sum((x2 - x1) * (y2 - y1) for x1, x2, y1, y2 in ext.cells)
        assert area == (ext.m - 1) * (ext.n - 1)


def test_random_as_meshes_have_t_junctions():
    mesh = samples.random_as_mesh(2, 2, num_elements=6, removals=8, seed=1)
    assert mesh.t_junctions()
    assert mesh.validate() == []
    assert mesh.is_analysis_suitable()[0]


# -- cell components -----------------------------------------------------------


def reference_cell_scan(mesh):
    """(cells, cell_components_rectangular) by one mask scan per component."""
    ncomp, labels = mesh._cell_labels
    cells, bad = [], []
    for c in range(ncomp):
        xs, ys = np.nonzero(labels == c)
        cells.append((int(xs.min()) + 1, int(xs.max()) + 2, int(ys.min()) + 1, int(ys.max()) + 2))
        if (xs.max() - xs.min() + 1) * (ys.max() - ys.min() + 1) != len(xs):
            bad.append((int(xs.min()) + 1, int(ys.min()) + 1))
    return sorted(cells), bad


def test_cell_scan_matches_reference():
    meshes = as_mesh_corpus() + [samples.tensor_mesh(64, 64, 2, 2)]
    meshes += [m.extended() for m in meshes]
    # an L-shaped component: unit cell (i, j) joined to its right and upper
    # neighbours by removing one vertical and one horizontal unit segment
    mesh = samples.tensor_mesh(4, 4, 2, 2)
    i, j = mesh.p + 2, mesh.q + 2
    hseg, vseg = mesh.hseg.copy(), mesh.vseg.copy()
    vseg[i + 1, j] = False
    hseg[i, j + 1] = False
    meshes.append(TMesh(mesh.m, mesh.n, mesh.p, mesh.q, hseg, vseg))
    assert meshes[-1].cell_components_rectangular()
    for mesh in meshes:
        cells, bad = reference_cell_scan(mesh)
        assert mesh.cells == cells
        assert mesh.cell_components_rectangular() == bad


def serpentine_mesh(k):
    """A k x k unit-cell mesh whose cells form one component that winds
    row by row: each row of cells is open along x, and consecutive rows
    join alternately at the right and the left end."""
    hseg = np.zeros((k + 2, k + 2), dtype=bool)
    vseg = np.zeros((k + 2, k + 2), dtype=bool)
    hseg[1 : k + 1, 1 : k + 2] = True
    vseg[[1, k + 1], 1 : k + 1] = True
    for j in range(2, k + 1):
        hseg[k if j % 2 == 0 else 1, j] = False
    return TMesh(k + 1, k + 1, 1, 1, hseg, vseg)


def test_cell_labels_match_scipy(seeded_chains):
    """Label count and label arrays equal scipy's connected components on
    the AS corpus and its extended meshes, every level of the sample
    hierarchies and the last space of each seeded chain, meshes whose cell
    components are not rectangles, and serpentine meshes that are one
    component along either axis."""
    meshes = as_mesh_corpus()
    meshes += [mesh.extended() for mesh in meshes] + broken_meshes()
    spaces = sample_hierarchies() + [chain[-1] for chain in seeded_chains]
    meshes += [lv.mesh for space in spaces for lv in space.levels]
    serpentine = serpentine_mesh(200)
    meshes += [serpentine, TMesh(201, 201, 1, 1, serpentine.vseg.T, serpentine.hseg.T)]
    assert any(mesh.cell_components_rectangular() for mesh in meshes)
    for mesh in meshes:
        ncomp, labels = mesh._cell_labels
        want_n, want = oracle.cell_labels(mesh)
        assert ncomp == want_n
        assert np.array_equal(labels, want)
    assert meshes[-1]._cell_labels[0] == meshes[-2]._cell_labels[0] == 1


def test_library_imports_no_scipy():
    """Building, refining, extracting and reading meshes load no scipy:
    only the solver needs it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(samples.__file__)))
    code = (
        "import sys\n"
        "import hasts.tmesh, hasts.basis, hasts.hierarchy, hasts.benchmarks\n"
        "import hasts.extraction, hasts.meshio, hasts.samples\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- the incidence arrays against the per-entity oracles ------------------------


def broken_meshes():
    """Meshes with findings: a dangling stub, a frame T-junction, a broken
    boundary, an incomplete repeated-knot line, the unsuitable extension
    mesh, a declared vertex off the skeleton, and tensor meshes with random
    interior unit segments removed."""
    out = [
        samples.tensor_mesh(4, 4, 2, 2).without_segments(hsegs=[(5, 5)], vsegs=[(5, 5), (5, 4)]),
        TMesh.tensor_grid(10, 10, 3, 3).without_segments(vsegs=[(6, 2)]),
        TMesh.tensor_grid(8, 8, 2, 2).without_segments(hsegs=[(4, 1)]),
        TMesh.tensor_grid(10, 10, 2, 2).without_segments(vsegs=[(2, 5)]),
        samples.extension_mesh_unsuitable(),
    ]
    # a declared vertex in the hole left by the four segments at (6, 6)
    hole = samples.tensor_mesh(4, 4, 2, 2).without_segments(
        hsegs=[(5, 6), (6, 6)], vsegs=[(6, 5), (6, 6)]
    )
    edges = [((x1, y), (x2, y)) for x1, x2, y in minimal_edges(hole, "h")]
    edges += [((x, y1), (x, y2)) for x, y1, y2 in minimal_edges(hole, "v")]
    verts = hole.canonical_vertices | {(6, 6)}
    out.append(TMesh.from_vertices_edges(hole.m, hole.n, hole.p, hole.q, verts, edges))
    rng = np.random.default_rng(41)
    for p, q in ((2, 2), (3, 3), (2, 3), (3, 2)):
        mesh = samples.tensor_mesh(5, 5, p, q)
        xs, ys = np.arange(p + 2, mesh.m - p - 1), np.arange(q + 2, mesh.n - q - 1)
        pick = lambda: list(zip(rng.choice(xs, 6).tolist(), rng.choice(ys, 6).tolist()))
        out.append(mesh.without_segments(hsegs=pick(), vsegs=pick()))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except MeshStructureError as exc:
        return str(exc)


def test_topology_matches_per_entity_oracles(seeded_chains):
    """Vertices, T-junctions, extensions, validation findings, suitability,
    minimal edges, anchors and index vectors equal the per-entity oracles on
    the AS corpus and random AS meshes of degrees 1 and 4, with their
    extended meshes, meshes with findings, and every level of the sample
    hierarchies, the thirds spaces and the seeded chains."""
    meshes = as_mesh_corpus() + [
        samples.random_as_mesh(p, q, num_elements=6, removals=8, seed=p + q)
        for p, q in ((1, 1), (1, 2), (1, 3), (4, 2), (4, 4))
    ]
    meshes += [mesh.extended() for mesh in meshes] + broken_meshes()
    spaces = sample_hierarchies() + [thirds_space(2), thirds_space(3)]
    spaces += [chain[-1] for chain in seeded_chains]
    meshes += [lv.mesh for space in spaces for lv in space.levels]
    meshes = list({mesh: None for mesh in meshes})
    found = set()
    for mesh in meshes:
        assert mesh.canonical_vertices == oracle.canonical_vertices(mesh)
        assert mesh.t_junctions() == oracle.t_junctions(mesh)
        exts = oracle.extensions(mesh)
        assert mesh.extensions() == exts
        crossing = any(h.intersects(v) for h in exts for v in exts)
        assert mesh.is_analysis_suitable()[0] == (not crossing)
        report = [v for v in mesh.validate() if v.kind in oracle.VERTEX_FINDINGS]
        assert report == oracle.vertex_findings(mesh)
        found |= {v.kind for v in report}
        for axis in "hv":
            assert minimal_edges(mesh, axis) == oracle.minimal_edges(mesh, axis)
        assert anchors(mesh) == oracle.anchors(mesh)
        space = outcome(Space.uniform, mesh)
        want = [
            outcome(lambda a: (a, *oracle.local_index_vectors(mesh, a)), a)
            for a in oracle.anchors(mesh)
        ]
        if isinstance(space, str):  # the oracle's first failure, in anchor order
            assert space == next(w for w in want if isinstance(w, str))
        else:
            assert [(f.anchor, f.h_indices, f.v_indices) for f in space.functions] == want
    assert found == set(oracle.VERTEX_FINDINGS)
