"""Shared fixtures: mesh corpora and small hierarchies reused across tests,
and pointwise evaluation oracles.

The oracles are the evaluators the library used before every basis function
went through Bezier rows and Bernstein tables: recursive Cox-de Boor, one
scalar Bernstein row per point, and a field sampler that finds each point's
element by a linear scan.  Tests that compare extraction with pointwise
evaluation use them, so those checks stay independent of the library path.
``bspline_eval`` is the other way round: one B-spline at many points from
the library's Bezier rows and Bernstein tables, which the tests compare
with scipy and Cox-de Boor.

The row oracles compute exact Bezier rows and Greville abscissae as the
library did before it blossomed over integer knots: a queue of single knot
insertions on ``Fraction`` knot vectors, and a sum of ``Fraction`` knots.
The representation oracle finds a coarse function's coefficients in a finer
space as the library did before it applied dual functionals: single knot
insertions wherever the fine mesh demands a line the knot vector lacks.

The topology oracles derive what the library reads off its incidence
arrays one entity at a time, as the library did before: each point's four
directions, vertices, T-junctions, extension traces, the vertex findings of
validation, minimal edges, anchors and local knot marching, which tests
whether one index line spans one anchor.  The cell-labeling oracle is
scipy's ``connected_components`` on the graph of open unit-cell
adjacencies, which the library used before it labelled cells in numpy.
The function oracle makes every blending function of a ``Space`` at once,
as ``Space`` did before it made them on demand.

The FE oracles are the finite-element loop the library ran before it
evaluated elements in groups: quadrature, assembly, the Dirichlet projection
and the estimator, one element at a time.  Their quadrature computes each
element's Gauss-point data from its affine frame, as the library does;
``rational_element_quadrature`` keeps the general rational map the library
used before (the quotient rule and a jacobian at every Gauss point), as an
independent check of the frame to rounding.  The Dirichlet oracle selects the
boundary functions and element sides by comparing exact knot values, as the
library did before it compared grid lines; like the library, it sums its
boundary mass matrix by scipy from one element side's triplets at a time
and factorises it with SuperLU.
"""

import os
import random
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb, isfinite, lcm, sqrt

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from hasts import meshio, samples
from hasts.benchmarks import tensor_space
from hasts.basis import Anchor, BlendingFunction, GlobalKnots, bernstein, bernstein_grid, bezier_coeffs_1d, row_keys
from hasts.hierarchy import HFunction, HierarchicalSpace, LevelMesh, refine_by_elements
from hasts.iga import _bern_tables, _gauss, tau_element
from hasts.tmesh import (
    MISSING_DOWN,
    MISSING_LEFT,
    MISSING_RIGHT,
    MISSING_UP,
    Extension,
    MeshStructureError,
    TJunction,
    Violation,
)


def as_mesh_corpus():
    """Analysis-suitable meshes of mixed degree: tensor grids, the figure
    reconstructions, and randomized T-junction meshes."""
    meshes = [
        samples.tensor_mesh(3, 3, 2, 2),
        samples.tensor_mesh(4, 4, 2, 2),
        samples.tensor_mesh(3, 3, 3, 3),
        samples.tensor_mesh(4, 3, 2, 3),
        samples.tensor_mesh(3, 4, 3, 2),
        samples.index_vector_mesh_a(),
        samples.index_vector_mesh_b(),
        samples.index_vector_mesh_c(),
        samples.index_vector_mesh_d(),
        samples.extension_mesh_suitable(),
        samples.random_as_mesh(2, 2, num_elements=6, removals=8, seed=1),
        samples.random_as_mesh(3, 3, num_elements=6, removals=8, seed=2),
        samples.random_as_mesh(2, 3, num_elements=6, removals=6, seed=3),
    ]
    return meshes


@pytest.fixture(scope="session")
def as_meshes():
    return as_mesh_corpus()


def one_level(mesh):
    """The single-level hierarchy of a mesh with uniform open knots."""
    return HierarchicalSpace(
        [
            LevelMesh(
                1,
                mesh,
                GlobalKnots.uniform_open(mesh.m, mesh.p),
                GlobalKnots.uniform_open(mesh.n, mesh.q),
                None,
            )
        ]
    )


def two_level_space(ne=4, p=2, marked_levels=(1,)):
    """Tensor start refined once in the lower-left corner."""
    space = tensor_space(ne, p)
    marked = [e for e in space.elements
              if e.level in marked_levels
              and float(e.param_rect[1]) <= 0.5 and float(e.param_rect[3]) <= 0.5]
    return refine_by_elements(space, marked)


def sample_hierarchies():
    """Multi-level hierarchical spaces of depth 2..4 and mixed degree."""
    out = []
    sp = two_level_space(4, 2)
    out.append(sp)
    sp3 = refine_by_elements(
        sp, [e for e in sp.elements if e.level == 2 and float(e.param_rect[1]) <= 0.25]
    )
    sp4 = refine_by_elements(
        sp3, [e for e in sp3.elements if e.level == 3 and float(e.param_rect[1]) <= 0.125]
    )
    out.append(sp4)
    out.append(two_level_space(4, 3))
    sp23 = tensor_space(4, 2, 3)
    sp23 = refine_by_elements(
        sp23, [e for e in sp23.elements if float(e.param_rect[0]) >= 0.5]
    )
    out.append(sp23)
    return out


def thirds_space(p):
    """A non-dyadic start refined twice: ``tensor_space(3, p)`` with its left
    column of elements refined, then the bottom row of level 2, so the
    knots include 1/3, 1/6 and 1/12."""
    space = tensor_space(3, p)
    space = refine_by_elements(space, [e for e in space.elements if e.param_rect[0] == 0])
    lv2 = [e for e in space.elements if e.level == 2 and e.param_rect[2] == 0]
    return refine_by_elements(space, lv2)


def extract_solve_space(seed, start=4):
    """A bicubic hierarchy built like the extract-solve benchmark's: a random
    half of the start elements refined, then a random half of level 2."""
    rng = random.Random(seed)
    space = tensor_space(start, 3)
    space = refine_by_elements(space, rng.sample(list(space.elements), space.n_e // 2))
    lv2 = [e for e in space.elements if e.level == 2]
    return refine_by_elements(space, rng.sample(lv2, len(lv2) // 2))


_U = (2**49 + 1) / 2**62  # exact; its multiples up to 4 _U are floats too
FLOAT_KNOTS = (0.0, 0.0, 0.0, _U, 2 * _U, 3 * _U, 4 * _U, 0.5, 0.75, 1.0, 1.0, 1.0)


def float_knot_mesh(hknots):
    """The T-mesh of ``samples/index_vector_c.mesh`` (p = 2, q = 3) with
    the given h knots and uniform eighths as v knots, read from .mesh text,
    so that each knot is the exact Fraction of a float."""
    with open(os.path.join(os.path.dirname(__file__), "..", "samples", "index_vector_c.mesh")) as f:
        lines = f.read().splitlines()
    lines[2] = "hknots " + " ".join(map(repr, hknots))
    lines[3] = "vknots " + " ".join(map(repr, [0.0] * 4 + [k / 8 for k in range(1, 7)] + [1.0] * 4))
    return meshio.parse_mesh("\n".join(lines) + "\n")


def float_knot_space():
    """Four levels over ``float_knot_mesh(FLOAT_KNOTS)``, whose knots have
    denominator 2^62: each refinement marks two elements of the deepest
    level.  Grid numerators of the finest level leave int64."""
    space = HierarchicalSpace([LevelMesh(1, *float_knot_mesh(FLOAT_KNOTS), None)])
    for _ in range(3):
        top = max(e.level for e in space.elements)
        space = refine_by_elements(space, [e for e in space.elements if e.level == top][:2])
    return space


@pytest.fixture(scope="session")
def hierarchies():
    return sample_hierarchies()


def refinement_chain(seed, start, steps=20, max_levels=6):
    """The start space and the spaces of ``steps`` seeded refinements of 3
    random elements each, below the level cap."""
    rng = random.Random(seed)
    chain = [start]
    for _ in range(steps):
        candidates = [e for e in chain[-1].elements if e.level < max_levels]
        marked = rng.sample(candidates, 3)
        chain.append(refine_by_elements(chain[-1], marked, max_levels=max_levels))
    return chain


@pytest.fixture(scope="session")
def seeded_chains():
    """The refinement chains of seeds 1, 2, 3 from 4x4 starts of degrees 2
    and 3."""
    return [refinement_chain(seed, tensor_space(4, p)) for seed in (1, 2, 3) for p in (2, 3)]


def param_rect(lv, rect):
    """The parametric rectangle (s1, s2, t1, t2) of an index rect on the
    knots of the level ``lv``."""
    x1, x2, y1, y2 = rect
    return (lv.hknots[x1], lv.hknots[x2], lv.vknots[y1], lv.vknots[y2])


def with_domain(text, level, rects):
    """Hierarchy file text with the domain section of ``level`` replaced by
    the parametric rectangles ``rects``."""
    lines = text.splitlines()
    at = lines.index(f"level {level}")
    at = next(i for i in range(at, len(lines)) if lines[i].startswith("domain "))
    count = int(lines[at].split()[1])
    rows = [" ".join(f"{Fraction(v).numerator}/{Fraction(v).denominator}" for v in r) for r in rects]
    lines[at : at + 1 + count] = [f"domain {len(rows)}"] + rows
    return "\n".join(lines) + "\n"


# -- per-entity topology oracles ---------------------------------------------------


def directions(mesh, x, y):
    """(left, right, down, up) incident unit-segment presence at (x, y)."""
    return (
        bool(mesh.hseg[x - 1, y]) if x >= 2 else False,
        bool(mesh.hseg[x, y]),
        bool(mesh.vseg[x, y - 1]) if y >= 2 else False,
        bool(mesh.vseg[x, y]),
    )


def valence(mesh, x, y):
    return sum(directions(mesh, x, y))


def is_interior(mesh, x, y):
    return 1 < x < mesh.m and 1 < y < mesh.n


def v_line_covers(mesh, x, ylo, yhi):
    """Vertical skeleton at index x covers the closed interval [ylo, yhi]."""
    if ylo == yhi:
        return bool(mesh.vseg[x, ylo]) or (ylo >= 2 and bool(mesh.vseg[x, ylo - 1]))
    return bool(mesh.vseg[x, ylo:yhi].all())


def h_line_covers(mesh, y, xlo, xhi):
    if xlo == xhi:
        return bool(mesh.hseg[xlo, y]) or (xlo >= 2 and bool(mesh.hseg[xlo - 1, y]))
    return bool(mesh.hseg[xlo:xhi, y].all())


def declared_vertices(mesh):
    """The points of a mesh's declared-vertex mask as a set of (x, y)."""
    if mesh.declared is None:
        return set()
    xs, ys = np.nonzero(mesh.declared)
    return set(zip(xs.tolist(), ys.tolist()))


def canonical_vertices(mesh):
    """Points where the skeleton branches, crosses, turns or terminates, the
    domain corners and the declared vertices, one point at a time."""
    verts = {(1, 1), (1, mesh.n), (mesh.m, 1), (mesh.m, mesh.n)}
    verts |= declared_vertices(mesh)
    for x in range(1, mesh.m + 1):
        for y in range(1, mesh.n + 1):
            left, right, down, up = directions(mesh, x, y)
            count = left + right + down + up
            if count and not (count == 2 and ((left and right) or (down and up))):
                verts.add((x, y))
    return frozenset(verts)


def t_junctions(mesh):
    out = []
    for (x, y) in sorted(canonical_vertices(mesh)):
        if not is_interior(mesh, x, y):
            continue
        left, right, down, up = directions(mesh, x, y)
        if left + right + down + up != 3:
            continue
        if not left:
            out.append(TJunction(x, y, MISSING_LEFT))
        elif not right:
            out.append(TJunction(x, y, MISSING_RIGHT))
        elif not down:
            out.append(TJunction(x, y, MISSING_DOWN))
        else:
            out.append(TJunction(x, y, MISSING_UP))
    return out


def _trace(mesh, verts, x, y, axis, step, count):
    """Walk from (x, y) along ``axis`` in direction ``step`` until ``count``
    perpendicular edges or vertices are met; clip at the domain boundary."""
    pos = x if axis == "h" else y
    limit = (1, mesh.m) if axis == "h" else (1, mesh.n)
    met = 0
    while met < count:
        pos += step
        if pos < limit[0]:
            pos = limit[0]
            break
        if pos > limit[1]:
            pos = limit[1]
            break
        if axis == "h":
            hit = v_line_covers(mesh, pos, y, y) or (pos, y) in verts
        else:
            hit = h_line_covers(mesh, pos, x, x) or (x, pos) in verts
        if hit:
            met += 1
    return pos


def extensions(mesh):
    verts = canonical_vertices(mesh)
    out = []
    for tj in t_junctions(mesh):
        if tj.horizontal:
            axis, deg, origin = "h", mesh.p, tj.x
            sign = 1 if tj.missing == MISSING_RIGHT else -1
        else:
            axis, deg, origin = "v", mesh.q, tj.y
            sign = 1 if tj.missing == MISSING_UP else -1
        face_end = _trace(mesh, verts, tj.x, tj.y, axis, sign, (deg + 1) // 2)
        edge_end = _trace(mesh, verts, tj.x, tj.y, axis, -sign, deg // 2)
        face_lo, face_hi = sorted((origin, face_end))
        edge_lo, edge_hi = sorted((origin, edge_end))
        line = tj.y if axis == "h" else tj.x
        out.append(Extension(tj, axis, line, face_lo, face_hi, edge_lo, edge_hi))
    return out


def includes(mesh, other):
    """Whether every unit segment of ``other`` is a segment of ``mesh``; the
    meshes must share degrees and index domain."""
    assert (mesh.m, mesh.n, mesh.p, mesh.q) == (other.m, other.n, other.p, other.q)
    return not (other.hseg & ~mesh.hseg).any() and not (other.vseg & ~mesh.vseg).any()


# the findings of ``TMesh.validate`` that these oracles derive
VERTEX_FINDINGS = ("valence", "off-skeleton-vertex", "frame-t-junction")


def vertex_findings(mesh):
    """The ``VERTEX_FINDINGS`` of ``TMesh.validate``, in its order."""
    report = []
    for (x, y) in sorted(canonical_vertices(mesh)):
        v = valence(mesh, x, y)
        if is_interior(mesh, x, y) and v not in (3, 4):
            report.append(Violation("valence", (x, y), f"interior vertex has valence {v}"))
    for (x, y) in sorted(declared_vertices(mesh)):
        if valence(mesh, x, y) == 0:
            report.append(Violation("off-skeleton-vertex", (x, y), "declared vertex not on any edge"))
    dp, dq = (mesh.p + 1) // 2, (mesh.q + 1) // 2
    for tj in t_junctions(mesh):
        if not (1 + dp <= tj.x <= mesh.m - dp and 1 + dq <= tj.y <= mesh.n - dq):
            report.append(Violation("frame-t-junction", (tj.x, tj.y), "T-junction inside frame region"))
    return report


def minimal_edges(mesh, axis):
    """Minimal edges as (x1, x2, y) or (x, y1, y2), split at canonical
    vertices, one point at a time."""
    verts = canonical_vertices(mesh)
    if axis == "h":
        seg, n_lines, n_pos = mesh.hseg, mesh.n, mesh.m
        point = lambda line, pos: (pos, line)
        edge = lambda line, a, b: (a, b, line)
    else:
        seg, n_lines, n_pos = mesh.vseg, mesh.m, mesh.n
        point = lambda line, pos: (line, pos)
        edge = lambda line, a, b: (line, a, b)
    out = []
    for line in range(1, n_lines + 1):
        start = None
        for pos in range(1, n_pos + 1):
            xy = point(line, pos)
            if start is not None and (xy in verts or not seg[xy]):
                out.append(edge(line, start, pos))
                start = None
            if seg[xy] and start is None:
                start = pos
        if start is not None:
            out.append(edge(line, start, n_pos))
    return out


def anchors(mesh):
    """Anchor entities selected by degree parity, one entity at a time, in
    the active region; sorted by ``Anchor.sort_key``."""
    dp, dq = (mesh.p + 1) // 2, (mesh.q + 1) // 2
    inside = lambda x1, x2, y1, y2: (
        1 + dp <= x1 and x2 <= mesh.m - dp and 1 + dq <= y1 and y2 <= mesh.n - dq
    )
    if mesh.p % 2 and mesh.q % 2:
        found = [(x, x, y, y) for x, y in canonical_vertices(mesh)]
    elif mesh.q % 2:
        found = [(x1, x2, y, y) for x1, x2, y in minimal_edges(mesh, "h")]
    elif mesh.p % 2:
        found = [(x, x, y1, y2) for x, y1, y2 in minimal_edges(mesh, "v")]
    else:
        found = mesh.cells
    return sorted((Anchor(*a) for a in found if inside(*a)), key=Anchor.sort_key)


def cell_labels(mesh):
    """(number of components, (m-1, n-1) labels) of the unit-cell grid by
    scipy's connected components of the open adjacencies."""
    mu, nu = mesh.m - 1, mesh.n - 1
    idx = np.arange(mu * nu).reshape(mu, nu)
    # unit cell (i, j) <-> grid slot [i-1, j-1]
    open_right = ~mesh.vseg[2 : mesh.m, 1 : mesh.n]
    open_up = ~mesh.hseg[1 : mesh.m, 2 : mesh.n]
    rows = np.concatenate([idx[:-1, :][open_right], idx[:, :-1][open_up]])
    cols = np.concatenate([idx[1:, :][open_right], idx[:, 1:][open_up]])
    graph = sp.coo_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(mu * nu, mu * nu)
    )
    ncomp, labels = connected_components(graph, directed=False)
    return ncomp, labels.reshape(mu, nu)


def eager_functions(space):
    """Every blending function of a ``Space``, made at once from the
    per-entity anchors and the space's index arrays."""
    return tuple(
        BlendingFunction(a, tuple(h), tuple(v))
        for a, h, v in zip(anchors(space.mesh), space.h_indices.tolist(), space.v_indices.tolist())
    )


def local_index_vectors(mesh, anchor):
    """(hLocal, vLocal) global index lines for one anchor, each of length
    degree+2, found by marching away from the anchor and keeping only lines
    that span the anchor's full perpendicular extent."""
    return _march(mesh, anchor, horizontal=True), _march(mesh, anchor, horizontal=False)


def _march(mesh, anchor, horizontal):
    if horizontal:
        deg, lo, hi, limit = mesh.p, anchor.hx1, anchor.hx2, mesh.m
        spans = lambda x: v_line_covers(mesh, x, anchor.vy1, anchor.vy2)
    else:
        deg, lo, hi, limit = mesh.q, anchor.vy1, anchor.vy2, mesh.n
        spans = lambda y: h_line_covers(mesh, y, anchor.hx1, anchor.hx2)
    need = (deg + 1) // 2
    found = [lo] if lo == hi else [lo, hi]
    pos, got = lo, 0
    while got < need:
        pos -= 1
        if pos < 1:
            raise MeshStructureError(f"local knot marching left the domain at anchor {anchor}")
        if spans(pos):
            found.append(pos)
            got += 1
    pos, got = hi, 0
    while got < need:
        pos += 1
        if pos > limit:
            raise MeshStructureError(f"local knot marching left the domain at anchor {anchor}")
        if spans(pos):
            found.append(pos)
            got += 1
    found.sort()
    assert len(found) == deg + 2
    return tuple(found)


# -- pointwise evaluation oracles ------------------------------------------------


def cox_de_boor(knots, p, x):
    """B-spline N[knots](x) with local knot vector of length p+2, by the
    Cox-de Boor recursion.

    Intervals are half-open [v_i, v_{i+1}) except at the last knot, where the
    function is closed so that the partition of unity holds at the domain end.
    """
    knots = [float(v) for v in knots]
    assert len(knots) == p + 2
    return _cox_de_boor(tuple(knots), 0, p, float(x), knots[-1])


def _cox_de_boor(knots, i, p, x, closure):
    if p == 0:
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        # right-closed at the end of the support so the last span is covered
        if x == closure and knots[i] < knots[i + 1] and knots[i + 1] == closure:
            return 1.0
        return 0.0
    left = 0.0
    den = knots[i + p] - knots[i]
    if den > 0.0:
        left = (x - knots[i]) / den * _cox_de_boor(knots, i, p - 1, x, closure)
    right = 0.0
    den = knots[i + p + 1] - knots[i + 1]
    if den > 0.0:
        right = (knots[i + p + 1] - x) / den * _cox_de_boor(knots, i + 1, p - 1, x, closure)
    return left + right


def bspline_eval(vals, p, xs):
    """B-spline N[vals], local knot vector of length p+2, at the points xs
    from the library's rows: the span of each point by bisection on the
    distinct knots, its exact Bezier row from the store under the
    normalised key (``row_keys``), times a Bernstein table.  Spans are
    half-open except the last, which is closed; outside the support the
    value is 0."""
    vals = tuple(Fraction(v) for v in vals)
    den = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (den // v.denominator) for v in vals]
    knots = sorted(set(ints))
    breaks = np.array([v / den for v in knots])
    xs = np.asarray(xs, dtype=float)
    span = np.searchsorted(breaks, xs, side="right") - 1
    span[xs == breaks[-1]] = len(knots) - 2
    out = np.zeros(len(xs))
    for k in np.unique(span[(span >= 0) & (span < len(knots) - 1)]):
        at = span == k
        a, b = breaks[k], breaks[k + 1]
        (key,) = row_keys([ints + knots[k : k + 2]], p)
        row = np.array([float(c) for c in bezier_coeffs_1d(*key)])
        out[at] = bernstein(p, (2 * xs[at] - a - b) / (b - a)) @ row
    return out


def eval_function(space, fn, s, t):
    """One function of a Space (a BlendingFunction) or of a
    HierarchicalSpace (an HFunction) at (s, t), by Cox-de Boor."""
    if isinstance(fn, HFunction):
        space, fn = space.spaces[fn.level - 1], fn.fn
    return cox_de_boor(space.h_values(fn), space.mesh.p, s) * cox_de_boor(
        space.v_values(fn), space.mesh.q, t
    )


def eval_all(space, s, t):
    """Every function of the space at (s, t), in function order."""
    return np.array([eval_function(space, fn, s, t) for fn in space.functions])


# -- exact row oracles ------------------------------------------------------------


def insert_knot(vals, p, x):
    """Split a single B-spline local knot vector at x: returns two
    (coefficient, child vector) pairs with N[vals] = c1 N[w1] + c2 N[w2]."""
    v = list(vals)
    w = sorted(v + [x])
    if x >= v[p] or v[p] == v[0]:
        c1 = Fraction(1)
    else:
        c1 = Fraction(x - v[0]) / (v[p] - v[0])
    if x <= v[1]:
        c2 = Fraction(1)
    else:
        c2 = Fraction(v[p + 1] - x) / (v[p + 1] - v[1])
    return (c1, tuple(w[: p + 2])), (c2, tuple(w[1 : p + 3]))


@lru_cache(maxsize=None)
def bezier_coeffs_oracle(vals, p, a, b):
    """Bernstein coefficients of N[vals] on the span [a, b], exact: insert a
    and b into the local knot vector until every piece is a Bernstein
    polynomial of [a, b] or vanishes there.  Cached apart from the library's
    row store."""
    vals = tuple(Fraction(v) for v in vals)
    a, b = Fraction(a), Fraction(b)
    assert len(vals) == p + 2 and a < b
    if any(a < v < b for v in vals):
        raise MeshStructureError(f"knot of {vals} lies strictly inside span ({a}, {b})")
    out = [Fraction(0)] * (p + 1)
    queue = [(Fraction(1), vals)]
    while queue:
        c, v = queue.pop()
        if c == 0 or v[0] == v[-1] or v[-1] <= a or v[0] >= b:
            continue
        if all(x == a or x == b for x in v):
            j = sum(1 for x in v if x == b)
            if 1 <= j <= p + 1:
                out[j - 1] += c
            continue
        x = a if v[0] < a else b
        for cc, child in insert_knot(v, p, x):
            queue.append((c * cc, child))
    return tuple(out)


def represent_oracle(hvals, vvals, fine):
    """Coefficients of one blending function, given by its local knot
    values, over the functions of a finer ``Space``, by repeated single knot
    insertion wherever the fine mesh demands a line the vector lacks."""
    p, q = fine.mesh.p, fine.mesh.q
    table = {(f.h_indices, f.v_indices): f for f in fine.functions}
    out = defaultdict(Fraction)
    queue = [(Fraction(1), tuple(Fraction(v) for v in hvals), tuple(Fraction(v) for v in vvals))]
    guard = 0
    while queue:
        guard += 1
        if guard > 100000:
            raise MeshStructureError("representation did not terminate")
        c, hv, vv = queue.pop()
        if c == 0 or hv[0] == hv[-1] or vv[0] == vv[-1]:
            continue
        hidx = _values_to_indices(fine.hknots, hv)
        vidx = _values_to_indices(fine.vknots, vv)
        anchor = _anchor_from(hidx, vidx, p, q)
        gap = _anchor_gap(fine, anchor, hv, vv)
        if gap is not None:
            axis, x = gap
            if axis == "h":
                for cc, child in insert_knot(hv, p, x):
                    queue.append((c * cc, child, vv))
            else:
                for cc, child in insert_knot(vv, q, x):
                    queue.append((c * cc, hv, child))
            continue
        mh, mv = local_index_vectors(fine.mesh, anchor)
        mhv = fine.hknots.take(mh)
        mvv = fine.vknots.take(mv)
        if Counter(mhv) != Counter(hv):
            x = _missing_value(mhv, hv)
            for cc, child in insert_knot(hv, p, x):
                queue.append((c * cc, child, vv))
        elif Counter(mvv) != Counter(vv):
            x = _missing_value(mvv, vv)
            for cc, child in insert_knot(vv, q, x):
                queue.append((c * cc, hv, child))
        else:
            key = (mh, mv)
            if key not in table:
                raise MeshStructureError(f"no fine function with index vectors {key}")
            out[table[key]] += c
    return {f: c for f, c in out.items() if c != 0}


def _values_to_indices(knots, vals):
    """Canonical index lines for a sorted local value vector: repeated domain
    ends hug the core (zeros end at index p+1, ones start at m-p); interior
    values match their unique index line."""
    p, m = knots.p, knots.m
    lo, hi = knots.values[0], knots.values[-1]
    nlo = sum(1 for v in vals if v == lo)
    nhi = sum(1 for v in vals if v == hi)
    idx = list(range(p + 2 - nlo, p + 2))
    inner = [v for v in vals if v != lo and v != hi]
    pos = p + 2
    for v in inner:
        while pos <= m and knots[pos] != v:
            pos += 1
        if pos > m:
            raise MeshStructureError(f"knot value {v} not on the fine knot vector")
        idx.append(pos)
        pos += 1
    idx.extend(range(m - p, m - p + nhi))
    return tuple(idx)


def _anchor_from(hidx, vidx, p, q):
    if p % 2:
        hx1 = hx2 = hidx[(p + 1) // 2]
    else:
        hx1, hx2 = hidx[p // 2], hidx[p // 2 + 1]
    if q % 2:
        vy1 = vy2 = vidx[(q + 1) // 2]
    else:
        vy1, vy2 = vidx[q // 2], vidx[q // 2 + 1]
    return Anchor(hx1, hx2, vy1, vy2)


def _anchor_gap(fine, anchor, hv, vv):
    """A fine index line crossing the open interior of the implied anchor.

    A genuine fine function has a cell/edge/vertex anchor with no spanning
    line strictly inside; a candidate vector that straddles one is missing
    that knot value.  Returns ('h'|'v', value) or None.
    """
    for x in range(anchor.hx1 + 1, anchor.hx2):
        if v_line_covers(fine.mesh, x, anchor.vy1, anchor.vy2):
            val = fine.hknots[x]
            if hv[0] < val < hv[-1]:
                return "h", val
    for y in range(anchor.vy1 + 1, anchor.vy2):
        if h_line_covers(fine.mesh, y, anchor.hx1, anchor.hx2):
            val = fine.vknots[y]
            if vv[0] < val < vv[-1]:
                return "v", val
    return None


def _missing_value(marched_vals, vals):
    diff = Counter(marched_vals) - Counter(vals)
    for v in sorted(diff):
        if vals[0] < v < vals[-1]:
            return v
    raise MeshStructureError(
        f"fine index vector {marched_vals} incompatible with coarse vector {vals}"
    )


def greville_oracle(knots, p):
    """Greville abscissa as the float of the exact mean of the p interior knots."""
    return float(sum(Fraction(k) for k in knots[1 : p + 1]) / p)


def identity_geometry(space):
    """The identity map of the parametric square as one weight and one point
    per level-1 function: unit weights and the Greville points."""
    return np.ones(len(space.spaces[0].functions)), greville_points(space.spaces[0])


def greville_points(space, fns=None):
    """Greville points of functions of a single-level ``Space`` (all of
    them by default), one function at a time from its knot values."""
    fns = space.functions if fns is None else fns
    p, q = space.mesh.p, space.mesh.q
    return np.array(
        [[greville_oracle(space.h_values(fn), p), greville_oracle(space.v_values(fn), q)] for fn in fns]
    ).reshape(-1, 2)


def bernstein_eval(p, i, xi):
    """B_{i,p}(xi) on [-1,1], 1 <= i <= p+1."""
    if not 1 <= i <= p + 1:
        raise ValueError(f"Bernstein index {i} out of range for degree {p}")
    return comb(p, i - 1) * (1 - xi) ** (p - i + 1) * (1 + xi) ** (i - 1) / 2**p


def bernstein_deriv(p, i, xi, order=1):
    """d^order/dxi^order of B_{i,p} on [-1,1]."""
    if order == 0:
        return bernstein_eval(p, i, xi)
    if p == 0:
        return 0.0
    lo = bernstein_deriv(p - 1, i - 1, xi, order - 1) if i - 1 >= 1 else 0.0
    hi = bernstein_deriv(p - 1, i, xi, order - 1) if i <= p else 0.0
    return p * (lo - hi) / 2


def bern_index(i, j, p):
    """Bivariate Bernstein numbering a(i,j) = (p+1)(j-1) + i."""
    return (p + 1) * (j - 1) + i


def bernstein_row(p, q, xi, eta, dxi=0, deta=0):
    """All n_b bivariate Bernstein values (or mixed derivatives) at one point."""
    bu = [bernstein_deriv(p, i, xi, dxi) for i in range(1, p + 2)]
    bv = [bernstein_deriv(q, j, eta, deta) for j in range(1, q + 2)]
    out = np.empty((p + 1) * (q + 1))
    for j in range(1, q + 2):
        for i in range(1, p + 2):
            out[bern_index(i, j, p) - 1] = bu[i - 1] * bv[j - 1]
    return out


def sample_field(disc, coeffs, nx=65, ny=65):
    """phi on an nx x ny uniform parametric grid, one point at a time: each
    point takes the first element that contains it, and x = A s + b."""
    ss = np.linspace(0.0, 1.0, nx)
    tt = np.linspace(0.0, 1.0, ny)
    rects = [tuple(float(v) for v in ed.param_rect) for ed in disc.elems]
    X = np.zeros((ny, nx))
    Y = np.zeros((ny, nx))
    PHI = np.zeros((ny, nx))
    for jy, t in enumerate(tt):
        for jx, s in enumerate(ss):
            k = _locate(rects, s, t)
            ed = disc.elems[k]
            s1, s2, t1, t2 = rects[k]
            xi = (2 * s - s1 - s2) / (s2 - s1)
            eta = (2 * t - t1 - t2) / (t2 - t1)
            B = bernstein_row(disc.p, disc.q, xi, eta)
            PHI[jy, jx] = float(coeffs[np.array(ed.ien)] @ (ed.C @ B)) / disc.c
            X[jy, jx], Y[jy, jx] = disc.A[:, 0] * s + disc.A[:, 1] * t + disc.b
    return X, Y, PHI


def _locate(rects, s, t):
    for k, (s1, s2, t1, t2) in enumerate(rects):
        if s1 <= s <= s2 and t1 <= t <= t2:
            return k
    raise MeshStructureError(f"no element contains parametric point ({s}, {t})")


def local_linear_independence(edata, tol=1e-10):
    """rank(C^e) == n_loc with a relative singular-value tolerance.

    Holds on every element of a single-level analysis-suitable space.  On a
    partially refined hierarchy an element near the refinement boundary can
    carry more functions than Bernstein modes (coarse survivors overlap fine
    elements), in which case this truthfully reports False.
    """
    if edata.C.shape[0] == 0:
        return True
    if edata.C.shape[0] > edata.C.shape[1]:
        return False
    sv = np.linalg.svd(edata.C, compute_uv=False)
    return bool(sv[-1] > tol * sv[0])


# -- per-element FE oracles -------------------------------------------------------


def element_frame(disc, ed):
    """The element's frame under the discretization's map x = A s + b: the
    image o of its centre and J = A diag(half widths), from the exact
    rational rectangle rounded once."""
    s1, s2, t1, t2 = ed.param_rect
    ms, mt = float((s1 + s2) / 2), float((t1 + t2) / 2)
    return ms * disc.A[:, 0] + mt * disc.A[:, 1] + disc.b, disc.A * [float((s2 - s1) / 2), float((t2 - t1) / 2)]


def frame_points(o, J, xi, eta):
    """o + J (xi, eta) at each point, 2 x n."""
    return o[:, None] + J[:, :1] * xi + J[:, 1:] * eta


def element_quadrature(disc, ed):
    """Per Gauss point: physical coords, jacobian factors, basis values,
    physical gradients and laplacians of the element's functions, from the
    map's constant weight c and the element's frame: x = o + J xi with
    J = A diag(half widths), and det J."""
    wts, _, T = _bern_tables(disc.p, disc.q)
    ng, c = len(wts), disc.c
    o, J = element_frame(disc, ed)
    (J00, J01), (J10, J11) = J
    det = J00 * J11 - J01 * J10
    if not (isfinite(det) and det > 0):
        raise MeshStructureError(f"singular element jacobian on element {ed.param_rect}")
    N, Nxi, Neta, Nxixi, Nxieta, Netaeta = (ed.C @ T).reshape(len(ed.C), 6, ng).swapaxes(0, 1)
    # rows of J^{-1}
    xix, etax, xiy, etay = J11 / det, -J10 / det, -J01 / det, J00 / det
    R = N / c
    Rx = (Nxi * xix + Neta * etax) / c
    Ry = (Nxi * xiy + Neta * etay) / c
    lap = (Nxixi * (xix * xix + xiy * xiy) + Nxieta * (2 * (xix * etax + xiy * etay))
           + Netaeta * (etax * etax + etay * etay)) / c
    gx, gy = _gauss(disc.p + 1)[0], _gauss(disc.q + 1)[0]
    x = frame_points(o, J, np.tile(gx, disc.q + 1), np.repeat(gy, disc.p + 1))
    dvol = wts * det
    return x, dvol, R, Rx, Ry, lap


def rational_element_quadrature(disc, ed, wb, Qb):
    """Per Gauss point: physical coords, jacobian factors, basis values,
    physical gradients and second derivatives of the element's functions,
    from the general rational map of the element Bezier weights ``wb`` and
    points ``Qb``: the quotient rule and a 2x2 jacobian at every point (the
    second derivatives still take the map to be affine)."""
    wts, _, _ = _bern_tables(disc.p, disc.q)
    gx, _ = _gauss(disc.p + 1)
    gy, _ = _gauss(disc.q + 1)
    tabs = {key: bernstein_grid(disc.p, disc.q, gx, gy, *key) for key in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))}
    C = ed.C
    N = C @ tabs[(0, 0)].T        # n_loc x n_g
    Nxi = C @ tabs[(1, 0)].T
    Neta = C @ tabs[(0, 1)].T
    Nxixi = C @ tabs[(2, 0)].T
    Nxieta = C @ tabs[(1, 1)].T
    Netaeta = C @ tabs[(0, 2)].T
    w = wb @ tabs[(0, 0)].T       # n_g
    wxi = wb @ tabs[(1, 0)].T
    weta = wb @ tabs[(0, 1)].T
    wxixi = wb @ tabs[(2, 0)].T
    wxieta = wb @ tabs[(1, 1)].T
    wetaeta = wb @ tabs[(0, 2)].T
    # rational basis R = N / w by the quotient rule
    R = N / w
    Rxi = (Nxi - R * wxi) / w
    Reta = (Neta - R * weta) / w
    Rxixi = (Nxixi - 2 * Rxi * wxi - R * wxixi) / w
    Rxieta = (Nxieta - Rxi * weta - Reta * wxi - R * wxieta) / w
    Retaeta = (Netaeta - 2 * Reta * weta - R * wetaeta) / w
    # geometry map x = (Qb * wb) B / w
    P = Qb * wb[:, None]          # n_b x d
    x = (P.T @ tabs[(0, 0)].T) / w
    x_xi = (P.T @ tabs[(1, 0)].T - x * wxi) / w
    x_eta = (P.T @ tabs[(0, 1)].T - x * weta) / w
    # 2x2 jacobian per point, inverse-transpose applied to gradients
    det = x_xi[0] * x_eta[1] - x_xi[1] * x_eta[0]
    if (det <= 0).any():
        raise MeshStructureError(f"singular element jacobian on element {ed.param_rect}")
    # grad_x = J^{-T} grad_xi with J columns (x_xi, x_eta)
    Rx = (x_eta[1] * Rxi - x_xi[1] * Reta) / det
    Ry = (-x_eta[0] * Rxi + x_xi[0] * Reta) / det
    # second derivatives under an affine map: H_x = J^{-T} H_xi J^{-1}
    a11 = x_eta[1] / det
    a12 = -x_xi[1] / det
    a21 = -x_eta[0] / det
    a22 = x_xi[0] / det
    Rxx = a11 * (a11 * Rxixi + a12 * Rxieta) + a12 * (a11 * Rxieta + a12 * Retaeta)
    Ryy = a21 * (a21 * Rxixi + a22 * Rxieta) + a22 * (a21 * Rxieta + a22 * Retaeta)
    lap = Rxx + Ryy
    dvol = wts * det
    return x, dvol, R, Rx, Ry, lap


def canonical_sum(n, blocks):
    """The n x n sum of item blocks (indices, matrix) taken densely one item
    at a time, in the order given, as ``A[ix_(idx, idx)] += A^e``; as a CSR
    matrix that stores every entry some item reaches, zeros too."""
    A, hit = np.zeros((n, n)), np.zeros((n, n), dtype=bool)
    for idx, Ae in blocks:
        A[np.ix_(idx, idx)] += Ae
        hit[np.ix_(idx, idx)] = True
    indptr = np.concatenate([[0], np.cumsum(hit.sum(axis=1))])
    return sp.csr_matrix((A[hit], np.nonzero(hit)[1], indptr), shape=A.shape)


def assemble(problem, disc, supg=True):
    """Global (K, F) with Galerkin + SUPG terms, before boundary conditions."""
    ux, uy = problem.velocity
    unorm = sqrt(ux * ux + uy * uy)
    kappa = problem.kappa
    n = disc.space.n_f
    blocks = []
    F = np.zeros(n)
    for ed in disc.elems:
        x, dvol, R, Rx, Ry, lap = element_quadrature(disc, ed)
        adv = ux * Rx + uy * Ry
        Ke = (kappa * (Rx * dvol) @ Rx.T + kappa * (Ry * dvol) @ Ry.T
              + (R * dvol) @ adv.T)
        Fe = np.zeros(len(ed.ien))
        if problem.source is not None:
            f = np.array([problem.source(px, py) for px, py in x.T])
            Fe += (R * dvol) @ f
        if supg and unorm > 0:
            h = sqrt(float(dvol.sum()))
            tau = tau_element(h, unorm, kappa)
            Ke += tau * (adv * dvol) @ (adv - kappa * lap).T
            if problem.source is not None:
                Fe += tau * (adv * dvol) @ f
        idx = np.array(ed.ien)
        blocks.append((idx, Ke))
        F[idx] += Fe
    return canonical_sum(n, blocks), F


def _edge_quadrature(disc, ed, side, ng):
    """Gauss points along one element edge on the domain boundary: returns
    physical points, arc weights, and local basis values."""
    g, gw = _gauss(ng)
    s1, s2, t1, t2 = ed.param_rect
    end = -1.0 if side in ("s0", "t0") else 1.0
    if side in ("s0", "s1"):  # along eta
        xs, etas, d, h = [end], g, 1, float((t2 - t1) / 2)
    else:
        xs, etas, d, h = g, [end], 0, float((s2 - s1) / 2)
    B = bernstein_grid(disc.p, disc.q, xs, etas)
    # the arc length element |A e_side| h along the edge, times the half
    # width h once more
    a0, a1 = disc.A[:, d]
    arc = sqrt(a0 * a0 + a1 * a1) * h * h
    return frame_points(*element_frame(disc, ed), *np.broadcast_arrays(xs, etas)), gw * arc, ed.C @ B.T / disc.c


def boundary_functions(space):
    """Indices of hierarchical functions with nonzero trace on the boundary,
    from exact knot values: p+1 (q+1) knots at a domain end."""
    out = set()
    for a, hf in enumerate(space.functions):
        sp_ = space.spaces[hf.level - 1]
        hv = sp_.h_values(hf.fn)
        vv = sp_.v_values(hf.fn)
        p, q = sp_.mesh.p, sp_.mesh.q
        if hv[p] == 0 or hv[1] == 1 or vv[q] == 0 or vv[1] == 1:
            out.add(a)
    return sorted(out)


def boundary_mass(problem, disc):
    """The boundary mass matrix, summed one element side at a time, and the
    load of the L2 projection of g, over the boundary functions."""
    space = disc.space
    bidx = boundary_functions(space)
    bpos = {a: k for k, a in enumerate(bidx)}
    blocks = []
    rhs = np.zeros(len(bidx))
    ng = max(disc.p, disc.q) + 2
    for ed in disc.elems:
        s1, s2, t1, t2 = [float(v) for v in ed.param_rect]
        sides = []
        if s1 == 0.0:
            sides.append("s0")
        if s2 == 1.0:
            sides.append("s1")
        if t1 == 0.0:
            sides.append("t0")
        if t2 == 1.0:
            sides.append("t1")
        for side in sides:
            x, dw, N = _edge_quadrature(disc, ed, side, ng)
            loc = [k for k, a in enumerate(ed.ien) if a in bpos]
            if not loc:
                continue
            gi = [bpos[ed.ien[k]] for k in loc]
            Nl = N[loc]
            g = np.array([problem.dirichlet(px, py) for px, py in x.T])
            blocks.append((gi, (Nl * dw) @ Nl.T))
            rhs[gi] += (Nl * dw) @ g
    return canonical_sum(len(bidx), blocks), rhs


def apply_dirichlet(K, F, problem, disc):
    """Boundary-wide L2 projection of g onto the trace space, then
    elimination.  Returns (K_ii, F_i, interior index array, full-length
    solution template with boundary values filled in)."""
    space = disc.space
    bidx = boundary_functions(space)
    M, rhs = boundary_mass(problem, disc)
    gb = splu(M.tocsc()).solve(rhs)
    full = np.zeros(space.n_f)
    full[bidx] = gb
    on = set(bidx)
    interior = np.array([a for a in range(space.n_f) if a not in on], dtype=int)
    K = K.tocsc()
    Fi = F[interior] - K[:, bidx][interior, :] @ gb
    Kii = K[interior, :][:, interior]
    return Kii, Fi, interior, full


def estimate_error(problem, disc, coeffs):
    """Per-element tau^e times the L2 norm of the strong residual."""
    ux, uy = problem.velocity
    unorm = sqrt(ux * ux + uy * uy)
    out = np.zeros(len(disc.elems))
    for k, ed in enumerate(disc.elems):
        x, dvol, R, Rx, Ry, lap = element_quadrature(disc, ed)
        c = coeffs[np.array(ed.ien)]
        resid = ux * (c @ Rx) + uy * (c @ Ry) - problem.kappa * (c @ lap)
        if problem.source is not None:
            resid = resid - np.array([problem.source(px, py) for px, py in x.T])
        h = sqrt(float(dvol.sum()))
        tau = tau_element(h, unorm, problem.kappa)
        out[k] = tau * sqrt(float((resid**2 * dvol).sum()))
    return out
