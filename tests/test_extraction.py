"""Bezier extraction: Bernstein basis, element operators, connectivity.

The Bernstein oracles are the closed-form polynomial in the mapped variable
u = (xi+1)/2 and the per-point rows of ``conftest.bernstein_row``;
extraction operators are checked by evaluating both sides of N_a = C^e B at
Gauss points, the left side by Cox-de Boor, and bit for bit against an
element-by-element extraction whose exact rows come from the knot-insertion
oracle ``conftest.bezier_coeffs_oracle``.
"""

import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from conftest import (
    as_mesh_corpus,
    bern_index,
    bernstein_row,
    bezier_coeffs_oracle,
    cox_de_boor,
    eval_all,
    eval_function,
    extract_solve_space,
    float_knot_space,
    local_linear_independence,
    one_level,
    sample_hierarchies,
    thirds_space,
)
from hasts.basis import bernstein, bernstein_grid
from hasts.benchmarks import tensor_space
from hasts.extraction import (
    bezier_coeffs_1d,
    build_ien,
    dump_extraction,
    extract_all,
)
from hasts.hierarchy import refine_by_elements
from hasts.iga import Discretization
from hasts.tmesh import MeshStructureError


def bernstein_oracle(p, i, xi):
    u = (xi + 1) / 2
    return comb(p, i - 1) * u ** (i - 1) * (1 - u) ** (p - i + 1)


def gauss_points(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


# -- Bernstein basis -----------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_bernstein_matches_closed_form(p):
    xs = np.linspace(-1, 1, 15)
    B = bernstein(p, xs)
    assert B.shape == (len(xs), p + 1)
    for i in range(1, p + 2):
        for k, xi in enumerate(xs):
            assert B[k, i - 1] == pytest.approx(bernstein_oracle(p, i, xi), abs=1e-14)
    # partition of unity on the reference interval
    assert np.allclose(B.sum(1), 1.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("p,order", [(2, 1), (3, 1), (3, 2)])
def test_bernstein_derivative_finite_difference(p, order):
    h = 1e-6
    xs = np.linspace(-0.9, 0.9, 7)
    fd = (bernstein(p, xs + h, order - 1) - bernstein(p, xs - h, order - 1)) / (2 * h)
    assert np.allclose(bernstein(p, xs, order), fd, rtol=0, atol=1e-6)


def test_bernstein_index_numbering():
    """Rows run eta-major over the grid; column (p+1)(j-1) + i - 1 holds
    B_i(xi) B_j(eta)."""
    row = bernstein_grid(2, 2, [-1.0], [-1.0])[0]
    assert row[0] == pytest.approx(1.0)
    assert row[1:].sum() == pytest.approx(0.0, abs=1e-15)
    xs, etas = [-0.5, 0.25, 1.0], [0.1, -0.7]
    grid = bernstein_grid(2, 3, xs, etas)
    bu, bv = bernstein(2, xs), bernstein(3, etas)
    for k, l in np.ndindex(len(etas), len(xs)):
        for j in range(1, 5):
            for i in range(1, 4):
                assert grid[k * len(xs) + l, bern_index(i, j, 2) - 1] == bu[l, i - 1] * bv[k, j - 1]


def test_bernstein_grid_matches_bernstein_row():
    """Bit for bit the one-point-at-a-time rows, ends of [-1,1] included."""
    g, _ = np.polynomial.legendre.leggauss(5)
    xs = np.concatenate([[-1.0, 1.0], g, np.linspace(-1, 1, 7)])
    for p in (1, 2, 3, 4):
        for q in (1, 2, 3):
            for d in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
                want = np.array([bernstein_row(p, q, xi, eta, *d) for eta in xs for xi in xs])
                assert bernstein_grid(p, q, xs, xs, *d).tobytes() == want.tobytes()


# -- 1D extraction coefficients ------------------------------------------------


def test_bezier_coeffs_1d_reproduce_function():
    cases = [
        ((0, 0, 0, 1), 2, 0, Fraction(1, 2)),
        ((0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1), 3, Fraction(1, 4), Fraction(1, 2)),
        ((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1), 2, Fraction(1, 2), Fraction(3, 4)),
    ]
    for vals, p, a, b in cases:
        coeffs = bezier_coeffs_1d(tuple(Fraction(v) for v in vals), p, Fraction(a), Fraction(b))
        assert len(coeffs) == p + 1
        for xi in np.linspace(-1, 1, 9):
            s = float(a) + (xi + 1) / 2 * float(b - a)
            want = cox_de_boor(vals, p, s)
            got = float(bernstein(p, [xi])[0] @ [float(c) for c in coeffs])
            assert got == pytest.approx(want, abs=1e-13)


def test_bezier_coeffs_1d_is_one_cached_function():
    import hasts.basis
    import hasts.extraction

    assert hasts.extraction.bezier_coeffs_1d is hasts.basis.bezier_coeffs_1d
    assert hasattr(bezier_coeffs_1d, "cache_info")


def test_bezier_coeffs_identity_on_single_span():
    # open vector, one span: the B-splines are the Bernstein polynomials
    p = 3
    for i in range(p + 1):
        vals = tuple([Fraction(0)] * (p + 1 - i) + [Fraction(1)] * (i + 1))
        coeffs = bezier_coeffs_1d(vals, p, Fraction(0), Fraction(1))
        want = [Fraction(0)] * (p + 1)
        want[i] = Fraction(1)
        assert list(coeffs) == want


def test_bezier_coeffs_reject_interior_knot():
    with pytest.raises(MeshStructureError):
        bezier_coeffs_1d(
            (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)), 2, Fraction(0), Fraction(1)
        )


def test_bezier_coeffs_reject_wrong_length():
    for vals in ((0, 0, 1, 1), (0, 0, 0, 0, 1, 1, 1)):
        with pytest.raises(MeshStructureError, match="not p\\+2"):
            bezier_coeffs_1d(vals, 3, 0, 1)


def test_bezier_coeffs_reject_empty_span():
    for a, b in ((0, 0), (Fraction(1, 2), Fraction(1, 4))):
        with pytest.raises(MeshStructureError, match="empty"):
            bezier_coeffs_1d((0, 0, 0, 1), 2, a, b)


def test_bezier_coeffs_1d_match_insertion_oracle():
    """Blossom against knot insertion, equal as Fractions: random knot
    vectors on grids of 1/den, dyadic or not, so knots repeat; every span
    of the grid from below the support to above it, so the rows include
    zero rows and spans that touch knots of multiplicity above 1."""
    rng = random.Random(23)
    seen_zero = seen_multiple = 0
    for p in (1, 2, 3, 4):
        for den in (1, 2, 3, 4, 5, 6, 8, 12, 16):
            for _ in range(4):
                vals = tuple(sorted(Fraction(rng.randrange(den + 1), den) for _ in range(p + 2)))
                for k in range(-1, den + 1):
                    a, b = Fraction(k, den), Fraction(k + 1, den)
                    want = bezier_coeffs_oracle(vals, p, a, b)
                    assert bezier_coeffs_1d(vals, p, a, b) == want, (vals, p, a, b)
                    seen_zero += not any(want)
                    seen_multiple += any(vals.count(v) > 1 for v in (a, b))
    assert seen_zero and seen_multiple
    # non-dyadic interior knots off a common grid, and integer knots
    for p in (2, 3):
        vals = tuple(Fraction(n, d) for n, d in ((1, 3), (1, 3), (2, 5), (5, 7), (5, 7)))[: p + 2]
        spans = sorted(set(vals))
        for a, b in zip(spans, spans[1:]):
            assert bezier_coeffs_1d(vals, p, a, b) == bezier_coeffs_oracle(vals, p, a, b)
        ints = tuple(range(0, 3 * (p + 2), 3))
        assert bezier_coeffs_1d(ints, p, 3, 6) == bezier_coeffs_oracle(ints, p, 3, 6)


def test_row_store_stays_bounded():
    """Rows are keyed by scale-free patterns, so a finer uniform grid of the
    same degree needs no row that a coarser one did not."""
    for p in (2, 3):
        extract_all(tensor_space(8, p))
        size = bezier_coeffs_1d.cache_info().currsize
        extract_all(tensor_space(16, p))
        assert bezier_coeffs_1d.cache_info().currsize == size


def bezier_coeffs_2d(hvals, vvals, p, q, rect):
    """Bivariate Bernstein coefficients on one element, bern_index ordering:
    the exact product of the two 1D rows of the insertion oracle, one
    Fraction per entry."""
    s1, s2, t1, t2 = rect
    ch = bezier_coeffs_oracle(tuple(hvals), p, s1, s2)
    cv = bezier_coeffs_oracle(tuple(vvals), q, t1, t2)
    out = [Fraction(0)] * ((p + 1) * (q + 1))
    for j in range(1, q + 2):
        for i in range(1, p + 2):
            out[bern_index(i, j, p) - 1] = ch[i - 1] * cv[j - 1]
    return out


def test_bezier_coeffs_2d_is_tensor_product():
    hv = (Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1))
    vv = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1))
    rect = (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1))
    c2 = bezier_coeffs_2d(hv, vv, 2, 2, rect)
    ch = bezier_coeffs_1d(hv, 2, rect[0], rect[1])
    cv = bezier_coeffs_1d(vv, 2, rect[2], rect[3])
    for j in range(1, 4):
        for i in range(1, 4):
            assert c2[bern_index(i, j, 2) - 1] == ch[i - 1] * cv[j - 1]


# -- element operators ---------------------------------------------------------


def test_single_element_patch_extracts_to_identity():
    for p in (2, 3):
        space = tensor_space(1, p)
        elems = extract_all(space)
        assert len(elems) == 1
        ed = elems[0]
        n_b = (p + 1) * (p + 1)
        assert ed.C.shape == (n_b, n_b)
        assert np.array_equal(ed.C, np.eye(n_b))


def consistency_error(space, elems, ng=5):
    xi, _ = gauss_points(ng)
    worst = 0.0
    for ed in elems:
        s1, s2, t1, t2 = (float(v) for v in ed.param_rect)
        for gx in xi:
            for gy in xi:
                s = (s1 + s2) / 2 + gx * (s2 - s1) / 2
                t = (t1 + t2) / 2 + gy * (t2 - t1) / 2
                B = bernstein_row(
                    space.levels[0].mesh.p, space.levels[0].mesh.q, gx, gy
                )
                vals = ed.C @ B
                for r, a in enumerate(ed.ien):
                    ref = eval_function(space, space.functions[a], s, t)
                    worst = max(worst, abs(vals[r] - ref))
    return worst


def test_extraction_consistency_on_hierarchies(hierarchies):
    for space in hierarchies:
        elems = extract_all(space)
        assert consistency_error(space, elems) < 1e-12


def test_extraction_consistency_on_t_meshes(as_meshes):
    for mesh in as_meshes[:6]:
        space = one_level(mesh)
        elems = extract_all(space)
        assert consistency_error(space, elems, ng=3) < 1e-12


def test_local_linear_independence_single_level(as_meshes):
    for mesh in as_meshes[:6]:
        for ed in extract_all(one_level(mesh)):
            assert local_linear_independence(ed)
            assert len(ed.ien) <= ed.C.shape[1]


def test_local_linear_independence_uniform_hierarchies():
    for p in (2, 3):
        space = tensor_space(2, p)
        for _ in range(2):
            space = refine_by_elements(space, list(space.elements))
        assert len(space.levels) == 3
        for ed in extract_all(space):
            assert local_linear_independence(ed)


def test_local_dependence_at_refinement_boundary(hierarchies):
    """A partially refined hierarchy carries coarse survivors across fine
    elements near the refinement boundary; there n_loc can exceed the
    Bernstein dimension and the check must report the dependence."""
    space = hierarchies[0]
    flags = [local_linear_independence(ed) for ed in extract_all(space)]
    n_b = 9
    over = [ed for ed in extract_all(space) if len(ed.ien) > n_b]
    assert over, "expected at least one overfull element"
    assert not all(flags)
    # coarse-only and deep-interior elements remain independent
    for ed in extract_all(space):
        if len(ed.ien) <= n_b:
            assert local_linear_independence(ed)


def test_ien_matches_pointwise_support(hierarchies):
    rng = np.random.default_rng(17)
    for space in hierarchies[:2]:
        fns, n_loc = build_ien(space)
        ien = np.split(fns, np.cumsum(n_loc)[:-1])
        for he, row in zip(space.elements, ien):
            s1, s2, t1, t2 = (float(v) for v in he.param_rect)
            for _ in range(3):
                s = rng.uniform(s1, s2)
                t = rng.uniform(t1, t2)
                vals = eval_all(space, s, t)
                nz = set(np.nonzero(np.abs(vals) > 1e-14)[0])
                assert nz <= set(row)


def test_default_geometry_is_identity_map():
    """With no weights or points the domain is the identity map of weight 1:
    the export's element Bezier weights and points, and the Gauss points of
    ``Discretization``, map [-1,1]^2 onto each element's rectangle."""
    space = tensor_space(3, 2)
    lines = dump_extraction(space, extract_all(space)).splitlines()
    assert [ln for ln in lines if ln.startswith("w ")] == ["w " + " ".join(["1"] * 9)] * space.n_e
    points = np.array([ln.split()[1:] for ln in lines if ln.startswith("Q ")], dtype=float).reshape(space.n_e, 9, 2)
    disc = Discretization(space)
    assert (disc.c, disc.A.tolist(), disc.b.tolist()) == (1.0, [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    x = np.concatenate([g.x for g in disc.groups])[np.argsort(np.concatenate([g.pos for g in disc.groups]))]
    xi, _ = gauss_points(3)
    for he, Q, xk in zip(space.elements, points, x, strict=True):
        s1, s2, t1, t2 = (float(v) for v in he.param_rect)
        for n, (gx, gy) in enumerate((gx, gy) for gy in xi for gx in xi):
            want = ((s1 + s2) / 2 + gx * (s2 - s1) / 2, (t1 + t2) / 2 + gy * (t2 - t1) / 2)
            assert bernstein_row(2, 2, gx, gy) @ Q == pytest.approx(want, abs=1e-13)
            assert xk[:, n] == pytest.approx(want, abs=1e-13)


def test_dump_extraction_deterministic(hierarchies):
    space = hierarchies[0]
    a = dump_extraction(space, extract_all(space))
    b = dump_extraction(space, extract_all(space))
    assert a == b
    assert a.startswith("hasts-extraction 1\n")


# -- bit identity with the per-element path ------------------------------------


def _overlaps(support, rect):
    s1, s2, t1, t2 = support
    e1, e2, f1, f2 = rect
    return s1 < e2 and e1 < s2 and t1 < f2 and f1 < t2


def float_row(sp, fn, rect):
    """The exact 2D Bezier row of a function of the single-level space
    ``sp`` on a rectangle, converted entry by entry with float."""
    p, q = sp.mesh.p, sp.mesh.q
    return np.array([float(v) for v in bezier_coeffs_2d(sp.h_values(fn), sp.v_values(fn), p, q, rect)])


def reference_extract(space):
    """Extraction one element at a time: the exact 2D product of every
    (function, element) pair converted entry by entry with float.  Returns
    (ien, C) per element."""
    p, q = space.levels[0].mesh.p, space.levels[0].mesh.q
    out = []
    for he in space.elements:
        rect = he.param_rect
        ien = [a for a, hf in enumerate(space.functions) if _overlaps(space.support(hf), rect)]
        C = np.array(
            [float_row(space.spaces[space.functions[a].level - 1], space.functions[a].fn, rect) for a in ien]
        ).reshape(-1, (p + 1) * (q + 1))
        out.append((ien, C))
    return out


def reference_geometry(space, geometries):
    """The element Bezier weights and points of each element under each
    geometry (one weight and one point per level-1 function), summed one
    overlapping level-1 function at a time from its exact Bezier row: per
    geometry, (weights, points) per element."""
    sp1 = space.spaces[0]
    rows = [
        [(g, float_row(sp1, fn, he.param_rect)) for g, fn in enumerate(sp1.functions) if _overlaps(sp1.support(fn), he.param_rect)]
        for he in space.elements
    ]
    out = []
    for weights, points in geometries:
        out.append([])
        for element in rows:
            wbf, qb = 0.0, 0.0
            for g, cof in element:
                wg = float(weights[g])
                wbf += wg * cof
                qb += np.outer(cof, points[g]) * wg
            out[-1].append((wbf, qb / wbf[:, None]))
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_bit_identical(space):
    got = extract_all(space)
    want = reference_extract(space)
    assert len(got) == len(want) == space.n_e
    for ed, (ien, C) in zip(got, want):
        assert [int(a) for a in ed.ien] == ien
        assert same_bits(ed.C, C)


def test_extract_all_bit_identical_on_corpus():
    for mesh in as_mesh_corpus():
        assert_bit_identical(one_level(mesh))


def test_extract_all_bit_identical_on_hierarchies():
    for space in sample_hierarchies():
        assert_bit_identical(space)
    for seed in (1, 2, 3):
        assert_bit_identical(extract_solve_space(seed))
    for p in (2, 3):
        assert_bit_identical(thirds_space(p))


def test_extract_all_bit_identical_past_int64():
    """Four levels over knots of denominator 2^62: the grid knots as
    integers leave int64, and the row keys stay exact in Python ints."""
    space = float_knot_space()
    assert max(space.grid_numerators[0]) > 2**63
    assert_bit_identical(space)


def same_element(a, b):
    return (a.level, a.param_rect) == (b.level, b.param_rect) and all(
        same_bits(getattr(a, name), getattr(b, name)) for name in ("ien", "C")
    )


def test_extract_all_items_are_views_of_its_stacks():
    space = extract_solve_space(2)
    stacks = extract_all(space)
    assert len(stacks) == space.n_e
    assert len(stacks.ien) == len(stacks.C) == stacks.n_loc.sum()
    items = list(stacks)
    for k, (ed, he) in enumerate(zip(items, space.elements, strict=True)):
        at = slice(stacks.n_loc[:k].sum(), stacks.n_loc[: k + 1].sum())
        assert (ed.level, ed.param_rect) == (he.level, he.param_rect)
        assert same_bits(ed.ien, stacks.ien[at]) and same_bits(ed.C, stacks.C[at])
    assert same_element(stacks[-1], items[-1]) and same_element(stacks[-space.n_e], items[0])
    for cut in (slice(3, 40, 7), slice(None, None, -1), slice(-5, None)):
        assert len(stacks[cut]) == len(items[cut]) and all(map(same_element, stacks[cut], items[cut]))
    assert all(same_element(a, b) for a, b in zip(reversed(stacks), items[::-1], strict=True))
    for k in (space.n_e, -space.n_e - 1):
        with pytest.raises(IndexError):
            stacks[k]


def test_extraction_does_not_depend_on_call_order(monkeypatch):
    """Key ids and pair codes are numbered in first-seen order.  From fresh
    process-wide stores, two spaces of one degree extracted in either order
    give the same element data, bit for bit."""
    import hasts.extraction

    spaces = (thirds_space(3), extract_solve_space(1))
    got = []
    for order in (spaces, spaces[::-1]):
        monkeypatch.setattr(hasts.extraction, "_key_ids", {})
        monkeypatch.setattr(hasts.extraction, "_products", {})
        got.append({id(space): extract_all(space) for space in order})
    for space in spaces:
        for a, b in zip(got[0][id(space)], got[1][id(space)], strict=True):
            assert (a.level, a.param_rect) == (b.level, b.param_rect)
            for name in ("ien", "C"):
                assert same_bits(getattr(a, name), getattr(b, name))
