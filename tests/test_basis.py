"""Spline space layer: anchors, local index vectors, B-spline evaluation.

B-splines are evaluated from the library's Bezier rows and Bernstein tables
(``conftest.bspline_eval``).  The evaluation oracles are
scipy.interpolate.BSpline on identical knot data and the Cox-de Boor
recursion, and Greville abscissae are checked against a
Fraction sum; golden index vectors are the published values for the four
shipped meshes, which ``Space`` and the per-entity marching oracle must both
give.
"""

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from scipy.interpolate import BSpline

import conftest as oracle
from conftest import as_mesh_corpus, bspline_eval, cox_de_boor, eval_all, eval_function, greville_oracle, greville_points
from hasts import basis, samples
from hasts.basis import (
    Anchor,
    BlendingFunction,
    GlobalKnots,
    Space,
    anchors,
    bernstein,
    bezier_coeffs_1d,
    greville_rows,
    minimal_edges,
)
from hasts.benchmarks import tensor_space
from hasts.extraction import default_geometry
from hasts.hierarchy import refine_by_elements
from hasts.tmesh import MeshStructureError


# -- golden local index vectors ------------------------------------------------


@pytest.mark.parametrize("case", sorted(samples.INDEX_VECTOR_CASES))
def test_golden_index_vectors(case):
    factory, ((hx1, hx2), (vy1, vy2)), want_h, want_v = samples.INDEX_VECTOR_CASES[case]
    mesh = factory()
    assert mesh.validate() == []
    anchor = Anchor(hx1, hx2, vy1, vy2)
    assert anchor in anchors(mesh)
    fn = next(f for f in Space.uniform(mesh).functions if f.anchor == anchor)
    assert (fn.h_indices, fn.v_indices) == (want_h, want_v)
    assert oracle.local_index_vectors(mesh, anchor) == (want_h, want_v)


# -- anchors -------------------------------------------------------------------


def test_anchor_count_on_tensor_grid():
    """On a tensor mesh the space is the tensor B-spline space: (m-p-1)(n-q-1)
    functions for open knot vectors of lengths m and n."""
    for p, q in ((2, 2), (3, 3), (2, 3), (3, 2)):
        mesh = samples.tensor_mesh(5, 4, p, q)
        assert len(anchors(mesh)) == (mesh.m - p - 1) * (mesh.n - q - 1)


def test_anchor_kind_by_parity():
    kinds = {
        (2, 2): "cell",
        (3, 3): "vertex",
        (2, 3): "hedge",
        (3, 2): "vedge",
    }
    for (p, q), kind in kinds.items():
        mesh = samples.tensor_mesh(4, 4, p, q)
        assert {a.kind for a in anchors(mesh)} == {kind}


def test_anchors_sorted_y_major(as_meshes):
    for mesh in as_meshes:
        aa = anchors(mesh)
        keys = [a.sort_key() for a in aa]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_index_vectors_have_degree_plus_two_entries(as_meshes):
    for mesh in as_meshes:
        for fn in Space.uniform(mesh).functions:
            h, v = fn.h_indices, fn.v_indices
            assert len(h) == mesh.p + 2
            assert len(v) == mesh.q + 2
            assert list(h) == sorted(h) and list(v) == sorted(v)


# -- knot vectors --------------------------------------------------------------


def test_uniform_open_knots():
    k = GlobalKnots.uniform_open(9, 2)
    assert k.values == (0, 0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1, 1, 1)
    assert k[1] == 0 and k[9] == 1
    with pytest.raises(IndexError):
        k[0]
    with pytest.raises(IndexError):
        k[10]


def test_knot_vector_rejects_bad_input():
    with pytest.raises(MeshStructureError):
        GlobalKnots([0, 0, 0, 1, 0, 1, 1, 1], 2)  # decreasing
    with pytest.raises(MeshStructureError):
        GlobalKnots([0, 0, 1, 1], 2)  # too short
    with pytest.raises(MeshStructureError):
        GlobalKnots([0, 0, 1, 2, 2, 2], 2)  # not open at the left end


# -- evaluation against scipy --------------------------------------------------


def scipy_bspline(vals, p, x):
    """Independent one-function evaluation; scipy needs p+2 knots too."""
    b = BSpline.basis_element([float(v) for v in vals], extrapolate=False)
    y = b(x)
    return 0.0 if np.isnan(y) else float(y)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_bspline_eval_matches_scipy(p):
    rng = np.random.default_rng(7)
    for _ in range(30):
        interior = np.sort(rng.random(p))
        vals = tuple([0.0] + list(interior) + [1.0])
        xs = rng.random(10)
        for x, got in zip(xs, bspline_eval(vals, p, xs)):
            assert got == pytest.approx(scipy_bspline(vals, p, x), abs=1e-12)


def test_bspline_eval_repeated_knots():
    # open end vector: value 1 at the end despite the half-open convention
    assert bspline_eval((0, 0, 0, 1), 2, [0.0])[0] == 1.0
    assert bspline_eval((0, 1, 1, 1), 2, [1.0])[0] == 1.0
    assert bspline_eval((0, 0, 0, 1), 2, [1.0])[0] == 0.0
    assert bspline_eval((0, 0, 1, 2), 2, [0.5])[0] == pytest.approx(
        scipy_bspline((0, 0, 1, 2), 2, 0.5), abs=1e-14
    )


def test_bspline_eval_matches_cox_de_boor():
    """Random knot vectors on a coarse dyadic grid, so knots repeat; the
    points include every knot and points outside the support."""
    rng = np.random.default_rng(19)
    for p in (1, 2, 3, 4):
        for _ in range(50):
            vals = tuple(sorted(Fraction(int(k), 8) for k in rng.integers(0, 9, p + 2)))
            xs = np.concatenate([[float(v) for v in vals], rng.uniform(-0.25, 1.25, 20)])
            want = [cox_de_boor(vals, p, x) for x in xs]
            assert np.abs(bspline_eval(vals, p, xs) - want).max() <= 1e-14


def absolute_knot_eval(vals, p, xs):
    """``bspline_eval`` as it was when it asked the row store with the
    absolute ``Fraction`` knots of each span."""
    vals = tuple(Fraction(v) for v in vals)
    knots = sorted(set(vals))
    breaks = np.array([float(v) for v in knots])
    xs = np.asarray(xs, dtype=float)
    span = np.searchsorted(breaks, xs, side="right") - 1
    span[xs == breaks[-1]] = len(knots) - 2
    out = np.zeros(len(xs))
    for k in np.unique(span[(span >= 0) & (span < len(knots) - 1)]):
        at = span == k
        a, b = breaks[k], breaks[k + 1]
        xi = (2 * xs[at] - a - b) / (b - a)
        row = np.array([float(c) for c in bezier_coeffs_1d(vals, p, knots[k], knots[k + 1])])
        out[at] = bernstein(p, xi) @ row
    return out


def test_bspline_eval_shares_rows_across_affine_images():
    """An affine image of a knot vector already evaluated asks the row store
    for no new entry, and the values are those of the absolute-knot path."""
    rng = np.random.default_rng(23)
    for p in (2, 3):
        vals = (Fraction(0), Fraction(1, 8), Fraction(1, 8), Fraction(3, 8), Fraction(1, 2))[: p + 2]
        bspline_eval(vals, p, np.linspace(0, 1, 41))  # a point in every span
        for scale, shift in ((Fraction(1, 2), Fraction(1, 4)), (Fraction(3, 7), Fraction(2, 5))):
            image = tuple(scale * v + shift for v in vals)
            xs = np.concatenate([[float(v) for v in image], rng.uniform(-0.1, 1.1, 30)])
            size = bezier_coeffs_1d.cache_info().currsize
            got = bspline_eval(image, p, xs)
            assert bezier_coeffs_1d.cache_info().currsize == size
            assert got.tobytes() == absolute_knot_eval(image, p, xs).tobytes()


def bezier_derivative(vals, p, x, order):
    """d^order N[vals]/ds^order at x from the Bezier row of x's span and the
    Bernstein derivative table, as the solver differentiates."""
    vals = tuple(Fraction(v) for v in vals)
    knots = sorted(set(vals))
    k = max(i for i in range(len(knots) - 1) if knots[i] <= x)
    a, b = knots[k], knots[k + 1]
    row = np.array([float(c) for c in bezier_coeffs_1d(vals, p, a, b)])
    xi = (2 * x - float(a) - float(b)) / float(b - a)
    return float(bernstein(p, [xi], order)[0] @ row) * (2 / float(b - a)) ** order


@pytest.mark.parametrize("p,order", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_bspline_derivative_finite_difference(p, order):
    rng = np.random.default_rng(11)
    vals = tuple([0.0, 0.0] + sorted(rng.random(p - 1).tolist()) + [1.0])
    h = 1e-5
    for x in rng.uniform(0.1, 0.9, 10):
        if order == 1:
            fd = (bspline_eval(vals, p, [x + h])[0] - bspline_eval(vals, p, [x - h])[0]) / (2 * h)
        else:
            fd = (
                bezier_derivative(vals, p, x + h, 1) - bezier_derivative(vals, p, x - h, 1)
            ) / (2 * h)
        assert bezier_derivative(vals, p, x, order) == pytest.approx(fd, abs=1e-6, rel=1e-6)


def _greville(knots, p):
    """``greville_rows`` of one local knot vector in [0, 1] of int, float or
    Fraction knots, over their least common denominator."""
    fracs = [Fraction(k) for k in knots]
    den = lcm(*(k.denominator for k in fracs))
    num = [k.numerator * (den // k.denominator) for k in fracs] + [den]
    return greville_rows((np.arange(p + 2)[None, :],), (num,), (p,))[0, 0]


def test_greville_is_knot_average():
    assert _greville((0, 0, 0, 1), 2) == 0.0
    assert _greville((0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1), 3) == 0.5


def test_greville_matches_fraction_oracle():
    """Bit for bit the float of the exact Fraction mean, on random rationals
    with unrelated denominators, floats, mixed int/Fraction knots and knots
    over 2^62, whose sums leave the range of int64."""
    rng = np.random.default_rng(29)
    for p in (1, 2, 3, 4):
        for _ in range(200):
            dens = rng.integers(1, 1000, p + 2).tolist()
            knots = sorted(Fraction(int(rng.integers(0, d + 1)), d) for d in dens)
            assert _greville(knots, p) == greville_oracle(knots, p)
            floats = sorted(rng.random(p + 2).tolist())
            assert _greville(floats, p) == greville_oracle(floats, p)
            mixed = [int(k) if k.denominator == 1 else k for k in knots]
            assert _greville(mixed, p) == greville_oracle(knots, p)
            wide = sorted(Fraction(int(k), 2**62) for k in rng.integers(2**61, 2**62, p + 2, dtype=np.int64))
            assert _greville(wide, p) == greville_oracle(wide, p)


# -- the assembled space -------------------------------------------------------


def test_partition_of_unity(as_meshes):
    pts = np.linspace(0, 1, 20)
    for mesh in as_meshes:
        space = Space.uniform(mesh)
        for s in pts:
            for t in pts:
                total = eval_all(space, s, t).sum()
                assert abs(total - 1.0) < 1e-12


def test_functions_vanish_outside_support(as_meshes):
    rng = np.random.default_rng(3)
    for mesh in as_meshes[:4]:
        space = Space.uniform(mesh)
        for fn in space.functions[:: max(1, len(space.functions) // 8)]:
            s1, s2, t1, t2 = (float(v) for v in space.support(fn))
            for s, t in rng.random((10, 2)):
                val = eval_function(space, fn, s, t)
                if not (s1 <= s <= s2 and t1 <= t <= t2):
                    assert val == 0.0
                else:
                    assert val >= 0.0


def test_tensor_space_matches_global_bsplines():
    """On a tensor mesh every blending function is the product of two global
    B-spline basis functions; compare against scipy's full-vector evaluation."""
    mesh = samples.tensor_mesh(4, 3, 2, 3)
    space = Space.uniform(mesh)
    hk = [float(v) for v in space.hknots.values]
    vk = [float(v) for v in space.vknots.values]
    nh = len(hk) - mesh.p - 1
    nv = len(vk) - mesh.q - 1
    assert len(space.functions) == nh * nv
    rng = np.random.default_rng(5)
    for s, t in rng.random((20, 2)):
        hb = [
            scipy_bspline(hk[i : i + mesh.p + 2], mesh.p, s) for i in range(nh)
        ]
        vb = [
            scipy_bspline(vk[j : j + mesh.q + 2], mesh.q, t) for j in range(nv)
        ]
        got = eval_all(space, s, t)
        want = np.array([hb[i] * vb[j] for j in range(nv) for i in range(nh)])
        assert np.allclose(got, want, atol=1e-12)


def test_greville_linear_precision():
    """Sum of Greville abscissae times basis values reproduces the identity."""
    mesh = samples.tensor_mesh(5, 5, 2, 2)
    space = Space.uniform(mesh)
    g = greville_points(space)
    rng = np.random.default_rng(9)
    for s, t in rng.random((20, 2)):
        b = eval_all(space, s, t)
        assert b @ g[:, 0] == pytest.approx(s, abs=1e-12)
        assert b @ g[:, 1] == pytest.approx(t, abs=1e-12)


def test_greville_points_match_per_function(hierarchies):
    """The Greville points of a hierarchy and of its default geometry, read
    from index arrays and integer knots, equal the per-function oracle bit
    for bit."""
    for space in hierarchies + [oracle.thirds_space(2), oracle.thirds_space(3)]:
        want = [greville_points(space.spaces[hf.level - 1], [hf.fn])[0].tolist() for hf in space.functions]
        assert space.greville_points().tolist() == want
        weights, points = default_geometry(space)
        assert points.tolist() == greville_points(space.spaces[0]).tolist()
        assert weights.tolist() == [1.0] * len(space.spaces[0].functions)


def test_functions_sequence_matches_eager_oracle(hierarchies):
    """``Space.functions`` equals every function made at once, under
    length, indexing from either end, slicing with a step, iteration and
    the sequence methods, and hands out one object per position."""
    spaces = [Space.uniform(mesh) for mesh in as_mesh_corpus()]
    spaces += [sp for space in hierarchies for sp in space.spaces]
    for space in spaces:
        fns, want = space.functions, oracle.eager_functions(space)
        n = len(want)
        assert len(fns) == n
        assert [fns[i] for i in range(-n, n)] == list(want) * 2
        for cut in (slice(None), slice(1, None, 3), slice(-2, None, -2), slice(2, -1), slice(n + 5, None)):
            assert fns[cut] == want[cut]
        assert tuple(fns) == want
        assert list(reversed(fns)) == list(reversed(want))
        assert want[n // 2] in fns and fns.index(want[n // 2]) == n // 2
        assert all(fns[i] is f for i, f in enumerate(fns))
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                fns[bad]


def test_refinement_makes_few_functions(monkeypatch):
    """Refining makes function objects only for the functions it selects:
    a 5-level hierarchy grown by 3 elements per step, and one more
    refinement of it, make far fewer than its levels hold."""
    made = []
    monkeypatch.setattr(basis, "BlendingFunction", lambda *a: made.append(a) or BlendingFunction(*a))
    rng = random.Random(1)
    space = tensor_space(4, 2)
    while len(space.levels) < 5:
        deepest = [e for e in space.elements if e.level == len(space.levels)]
        space = refine_by_elements(space, rng.sample(deepest, 3), max_levels=5)
    below = [e for e in space.elements if e.level < 5]
    space = refine_by_elements(space, rng.sample(below, 3), max_levels=5)
    level_functions = sum(len(sp.functions) for sp in space.spaces)
    assert len(made) < level_functions / 20


def test_space_rejects_mismatched_knots():
    mesh = samples.tensor_mesh(4, 4, 2, 2)
    with pytest.raises(MeshStructureError):
        Space(mesh, GlobalKnots.uniform_open(mesh.m + 1, 2), GlobalKnots.uniform_open(mesh.n, 2))
    with pytest.raises(MeshStructureError):
        Space(mesh, GlobalKnots.uniform_open(mesh.m, 3), GlobalKnots.uniform_open(mesh.n, 2))


# -- minimal edges -------------------------------------------------------------


def test_minimal_edges_match_reference():
    meshes = as_mesh_corpus()
    meshes += [samples.tensor_mesh(16, 16, p, q) for p, q in ((2, 2), (3, 3), (2, 3))]
    meshes += [
        samples.random_as_mesh(p, q, num_elements=8, removals=12, seed=seed)
        for seed, (p, q) in enumerate(((2, 2), (3, 3), (2, 3), (3, 2)), start=11)
    ]
    for mesh in meshes:
        assert minimal_edges(mesh, "h") == oracle.minimal_edges(mesh, "h")
        assert minimal_edges(mesh, "v") == oracle.minimal_edges(mesh, "v")
