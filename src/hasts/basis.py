"""Spline spaces over a T-mesh: global knot vectors, anchors and local index
vectors, plus the univariate primitives that every basis evaluation uses.

Anchors and index vectors are read off the mesh's segment arrays: minimal
edges are the runs of ``hseg`` and ``vseg`` split at ``TMesh.vertex_mask``,
the anchors are one selection of vertices, minimal edges or cells by degree
parity, and ``Space`` marches all anchors together, testing whether an
index line spans an anchor by prefix sums of the segment arrays.  A
``Space`` keeps its anchors and index vectors as arrays, one row per
function; its ``functions`` is a read-only sequence over them that makes a
``BlendingFunction`` the first time a position is read and keeps it, so a
hierarchy makes objects only for the functions it selects or a
representation asks for.  Greville points of many functions come from the
same arrays and the knots as integers over one denominator
(``GlobalKnots.numerators``, ``greville_rows``); the knots own their
knot-span grid, which every location test reads (``GlobalKnots.onto``).

Knot values are stored as exact ``fractions.Fraction`` so that equality and
interval predicates never see rounding.  One recurrence serves every exact
coefficient: ``blossom`` evaluates the blossom of one B-spline's polynomial
piece on a knot span by the de Boor recurrence over integer knots.  A
B-spline is written one way only: on each span its exact Bernstein
coefficients are the blossoms at (a^(p-j), b^j) (``bezier_coeffs_1d``), and
floats appear only when such a row multiplies a table of Bernstein
polynomials on [-1,1] (``bernstein``, ``bernstein_grid``), as the element
arrays of ``extraction`` and the quadrature and sampling of ``iga`` do per
element.  A row does not change under affine maps of the knots, so the
cache of ``bezier_coeffs_1d``, keyed with knot patterns normalised to the
span (``row_keys``), is one store of rows for the whole process; extraction
and the exact check of ``hierarchy.represent_in_space`` ask it.  The
blossoms at a finer function's interior knots are its dual functionals,
which ``hierarchy.represent_in_space`` applies.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, lcm

import numpy as np

from .tmesh import MeshStructureError, TMesh


class GlobalKnots:
    """Open global knot vector over index lines 1..m.

    The first and last p+1 entries are the domain ends, which must be 0 and
    1; no knot repeats more than p+1 times, so every support has positive
    area; entries are exact rationals.  The knots own their knot-span grid,
    the distinct values numbered from 0, and every map onto grid lines.
    """

    def __init__(self, values, p):
        values = tuple(Fraction(v) for v in values)
        m = len(values)
        if m < 2 * (p + 1):
            raise MeshStructureError(f"knot vector of length {m} too short for degree {p}")
        if any(values[i] > values[i + 1] for i in range(m - 1)):
            raise MeshStructureError("knot vector is not non-decreasing")
        lo, hi = values[0], values[-1]
        if values[p] != lo or values[m - p - 1] != hi:
            raise MeshStructureError("knot vector is not open (end multiplicity < p+1)")
        if lo != 0 or hi != 1:
            raise MeshStructureError(f"knot vector runs from {lo} to {hi}, not from 0 to 1")
        crowded = next((v for v, w in zip(values, values[p + 1 :]) if v == w), None)
        if crowded is not None:
            raise MeshStructureError(
                f"knot {crowded} repeats {values.count(crowded)} times, more than p+1 = {p + 1}"
            )
        self.values = values
        self.p = p
        self.m = m

    @classmethod
    def uniform_open(cls, m, p):
        """Open knots on [0,1]: p+1 zeros, uniform interior, p+1 ones."""
        spans = m - 2 * p - 1
        if spans < 1:
            raise MeshStructureError(f"m={m} leaves no interior span for degree {p}")
        vals = (
            [Fraction(0)] * (p + 1)
            + [Fraction(k, spans) for k in range(1, spans)]
            + [Fraction(1)] * (p + 1)
        )
        return cls(vals, p)

    def __getitem__(self, index):
        """1-based index lookup matching the mesh index lines."""
        if not 1 <= index <= self.m:
            raise IndexError(index)
        return self.values[index - 1]

    def __len__(self):
        return self.m

    def __eq__(self, other):
        return (
            isinstance(other, GlobalKnots)
            and self.p == other.p
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.p, self.values))

    def take(self, indices):
        """Knot values at the given 1-based index lines, as a tuple."""
        return tuple(self[i] for i in indices)

    @cached_property
    def numerators(self):
        """The knots as integers over their least common denominator, which
        is the last entry (the knot 1): an object array of Python ints, so
        that sums and products stay exact at any denominator, indexed by
        index line, slot 0 holding 0."""
        den = lcm(*(v.denominator for v in self.values))
        return np.array([0] + [v.numerator * (den // v.denominator) for v in self.values], dtype=object)

    @cached_property
    def grid(self):
        """Each distinct knot value mapped to its grid line (the knots are
        non-decreasing, so first appearance is grid order)."""
        return {v: i for i, v in enumerate(dict.fromkeys(self.values))}

    @cached_property
    def lines(self):
        """The grid line of each index line, slot 0 holding 0."""
        return np.array([0] + [self.grid[v] for v in self.values], dtype=np.int64)

    @cached_property
    def grid_numerators(self):
        """The grid knots as integers, the distinct ``numerators``."""
        return list(dict.fromkeys(self.numerators[1:].tolist()))

    def onto(self, finer):
        """The grid line of ``finer`` of each of these grid lines."""
        g = finer.grid
        try:
            return np.array([g[v] for v in self.grid], dtype=np.int64)
        except KeyError as exc:
            raise MeshStructureError(f"knot {exc.args[0]} of a level is not a knot of the next level") from None


# -- anchors ------------------------------------------------------------------


@dataclass(frozen=True)
class Anchor:
    """Closed extents of an anchor entity: [hx1,hx2] x [vy1,vy2] in index
    space.  Points have equal endpoints; a cell has two proper intervals."""

    hx1: int
    hx2: int
    vy1: int
    vy2: int

    @property
    def kind(self):
        h = self.hx1 < self.hx2
        v = self.vy1 < self.vy2
        if h and v:
            return "cell"
        if h:
            return "hedge"
        if v:
            return "vedge"
        return "vertex"

    def sort_key(self):
        # y-major, x fastest: aligns function order with the bivariate
        # Bernstein numbering so a one-element patch extracts to the identity
        return (self.vy1, self.hx1, self.vy2, self.hx2)


def _runs(seg, mask):
    """(line, start, end) arrays of the runs of ``seg[line, pos]``, the unit
    segments [pos, pos+1] of each index line, split at the points of
    ``mask``; line by line, in order along each line."""
    before = np.zeros_like(seg)
    before[:, 1:] = seg[:, :-1]
    lines, starts = np.nonzero(seg & (~before | mask))
    return lines, starts, np.nonzero(before & (~seg | mask))[1]


def minimal_edges(mesh, axis):
    """Minimal edges, the runs of unit segments split at canonical vertices:
    horizontal ones (axis "h") as (x1, x2, y), vertical ones (axis "v") as
    (x, y1, y2), index line by index line."""
    if axis == "h":
        y, x1, x2 = _runs(mesh.hseg.T, mesh.vertex_mask.T)
        return list(zip(x1.tolist(), x2.tolist(), y.tolist()))
    x, y1, y2 = _runs(mesh.vseg, mesh.vertex_mask)
    return list(zip(x.tolist(), y1.tolist(), y2.tolist()))


def _anchor_rows(mesh):
    """The anchors as an (k, 4) array of (hx1, hx2, vy1, vy2): vertices,
    minimal edges or cells by degree parity, inside the active region and
    sorted by ``Anchor.sort_key``."""
    x1, x2, y1, y2 = mesh.region_split()
    if mesh.p % 2 and mesh.q % 2:
        xs, ys = np.nonzero(mesh.vertex_mask)
        rows = np.column_stack([xs, xs, ys, ys])
    elif mesh.q % 2:
        y, a, b = _runs(mesh.hseg.T, mesh.vertex_mask.T)
        rows = np.column_stack([a, b, y, y])
    elif mesh.p % 2:
        x, a, b = _runs(mesh.vseg, mesh.vertex_mask)
        rows = np.column_stack([x, x, a, b])
    else:
        rows = mesh.cell_rows
    rows = rows[(rows[:, 0] >= x1) & (rows[:, 1] <= x2) & (rows[:, 2] >= y1) & (rows[:, 3] <= y2)]
    return rows[np.lexsort((rows[:, 1], rows[:, 3], rows[:, 0], rows[:, 2]))]


def anchors(mesh):
    """Anchor entities of the mesh, selected by degree parity and restricted
    to the active region; sorted by ``Anchor.sort_key``."""
    return [Anchor(*row) for row in _anchor_rows(mesh).tolist()]


def _local_lines(seg, deg, lo, hi, a, b):
    """Local index vectors of many anchors along one direction.

    ``lo``, ``hi`` are the anchors' extents along the direction and [a, b]
    across it; ``seg[i, j]`` is the unit segment [j, j+1] of the crossing
    index line i.  Beyond each end the (deg+1)//2 nearest lines are kept
    that span the anchor's extent across, or touch it where that is a
    point; every anchor still marching takes its next step together, and a
    line's spanning is a difference of prefix sums of ``seg``.  Returns the
    sorted (k, deg+2) index lines and the mask of the anchors whose march
    left the domain."""
    point = a == b
    a, b = a - point, b + point
    prefix = np.zeros((seg.shape[0], seg.shape[1] + 1), dtype=np.int64)
    prefix[:, 1:] = seg.cumsum(axis=1)
    need = (deg + 1) // 2
    out = np.empty((len(lo), deg + 2), dtype=np.int64)
    out[:, need], out[:, deg + 1 - need] = lo, hi
    lost = np.zeros(len(lo), dtype=bool)
    for step, first, pos in ((-1, need - 1, lo.copy()), (1, deg + 2 - need, hi.copy())):
        idx, got = np.arange(len(lo)), np.zeros(len(lo), dtype=np.int64)
        while idx.size:
            pos += step
            on = (pos >= 1) & (pos < seg.shape[0])
            lost[idx[~on]] = True
            idx, pos, got = idx[on], pos[on], got[on]
            covered = prefix[pos, b[idx]] - prefix[pos, a[idx]]
            hit = np.where(point[idx], covered > 0, covered == b[idx] - a[idx])
            out[idx[hit], first + step * got[hit]] = pos[hit]
            got += hit
            go = got < need
            idx, pos, got = idx[go], pos[go], got[go]
    return out, lost


# -- univariate primitives: blossoms, Bezier rows, Bernstein tables -----------


def blossom(vals, p, a, b, points):
    """Blossoms of N[vals]'s polynomial piece on the span [a, b], one at each
    tuple of p values in ``points``, exact: the de Boor recurrence on
    ``vals`` padded with p copies of each end knot, over integers of one
    denominator.  ``vals`` must hold p+2 knots, a < b, and no knot may lie
    strictly inside (a, b); a span outside the support gives zeros."""
    if len(vals) != p + 2:
        raise MeshStructureError(f"{len(vals)} knots in {vals}, not p+2 = {p + 2}")
    vals = tuple(Fraction(v) for v in vals)
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise MeshStructureError(f"span ({a}, {b}) is empty")
    if any(a < v < b for v in vals):
        raise MeshStructureError(f"knot of {vals} lies strictly inside span ({a}, {b})")
    if b <= vals[0] or a >= vals[-1]:
        return (Fraction(0),) * len(points)
    points = [[Fraction(u) for u in us] for us in points]
    den = lcm(*(v.denominator for v in (*vals, a, *(u for us in points for u in us))))
    scaled = lambda v: v.numerator * (den // v.denominator)
    t = [scaled(v) for v in vals]
    t = [t[0]] * p + t + [t[-1]] * p
    mu = bisect_right(t, scaled(a)) - 1  # [a, b] lies in the padded span [t[mu], t[mu + 1]]
    out = []
    for us in points:
        # on (numerator, denominator) pairs
        d = [(int(k == p), 1) for k in range(mu - p, mu + 1)]
        for r, u in enumerate(map(scaled, us), 1):
            for i in range(p, r - 1, -1):
                lo, hi = t[mu - p + i], t[mu + 1 + i - r]
                (n0, d0), (n1, d1) = d[i - 1], d[i]
                d[i] = ((hi - u) * n0 * d1 + (u - lo) * n1 * d0, (hi - lo) * d0 * d1)
        out.append(Fraction(*d[p]))
    return tuple(out)


@lru_cache(maxsize=None)
def bezier_coeffs_1d(vals, p, a, b):
    """Bernstein coefficients of the single B-spline N[vals] on the span
    [a, b]: N[vals](s(xi)) = sum_j c_j B_{j,p}(xi) there.  Exact rationals.

    c_j is the blossom of N[vals]'s polynomial piece over [a, b] at
    (a^(p-j), b^j).  The row is invariant under affine maps of the knots,
    so callers may pass normalised integer knots.  The checks of ``blossom``
    apply.
    """
    return blossom(vals, p, a, b, [[a] * (p - j) + [b] * j for j in range(p + 1)])


def row_keys(knots, p):
    """The normalised ``bezier_coeffs_1d`` arguments of many rows.  Each row
    of ``knots`` holds one function's p+2 integer knots, then its span's
    ends a < b; its key is the knots shifted to a and divided, with b - a,
    by their gcd.  Affine images of one pattern share the key.  The array
    holds Python ints, so the keys are exact at any size."""
    rel = np.asarray(knots, dtype=object)
    rel = rel - rel[:, p + 2, None]
    rel //= np.gcd.reduce(rel, axis=1)[:, None]
    return [(tuple(r[: p + 2]), p, 0, r[-1]) for r in rel.tolist()]


def _bernstein_1d(p, x, order):
    """B_{1,p} .. B_{p+1,p} on [-1,1], or their derivatives of the given
    order, at one xi, as Python floats: scalar pow, as numpy's array power
    can differ from it in the last bit."""
    if order == 0:
        return [comb(p, i) * (1 - x) ** (p - i) * (1 + x) ** i / 2**p for i in range(p + 1)]
    if p == 0:
        return [0.0]
    low = _bernstein_1d(p - 1, x, order - 1)
    return [
        p * ((low[i - 1] if i >= 1 else 0.0) - (low[i] if i < p else 0.0)) / 2
        for i in range(p + 1)
    ]


def bernstein(p, xs, order=0):
    """(len(xs), p+1) table of the degree-p Bernstein polynomials on [-1,1],
    or of their derivatives of the given order, at the points xs."""
    rows = [_bernstein_1d(p, float(x), order) for x in xs]
    return np.array(rows, dtype=float).reshape(len(rows), p + 1)


def bernstein_grid(p, q, xs, etas, dxi=0, deta=0):
    """Bivariate Bernstein values (or mixed derivatives) on the tensor grid
    xs x etas: one row per point, eta-major; column (p+1)(j-1) + i - 1 holds
    B_i(xi) B_j(eta)."""
    bu = bernstein(p, xs, dxi)
    bv = bernstein(q, etas, deta)
    return (bv[:, None, :, None] * bu[None, :, None, :]).reshape(
        len(bv) * len(bu), (q + 1) * (p + 1)
    )


def greville_rows(lines, numerators, degrees):
    """(k, 2) Greville points of k functions.  Per direction, each row of
    ``lines`` holds the deg+2 positions of one local knot vector into
    ``numerators``, integer knots whose last entry is the knot 1 and so
    their denominator.  The deg interior knots of a row are summed as
    Python ints and divided once, which gives the float of their exact
    mean."""
    out = []
    for rows, num, deg in zip(lines, numerators, degrees):
        num = np.asarray(num, dtype=object)
        den = int(num[-1]) * deg
        out.append([s / den for s in num[rows[:, 1 : deg + 1]].sum(axis=1).tolist()])
    return np.array(out, dtype=float).T


# -- a complete spline space over one mesh ------------------------------------


@dataclass(frozen=True)
class BlendingFunction:
    """One bivariate blending function: anchor plus its global index lines."""

    anchor: Anchor
    h_indices: tuple
    v_indices: tuple


class _Functions(Sequence):
    """The blending functions of one ``Space``, as a read-only sequence over
    its anchor and index arrays.  A function is made on first access and
    kept, so every access to one position returns the same object."""

    def __init__(self, anchors, h_indices, v_indices):
        self._rows = anchors, h_indices, v_indices
        self._made = [None] * len(anchors)

    def __len__(self):
        return len(self._made)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._make, range(*i.indices(len(self._made)))))
        k = operator.index(i)
        if not -len(self._made) <= k < len(self._made):
            raise IndexError(f"function {k} of {len(self._made)}")
        return self._make(k % len(self._made))

    def __iter__(self):
        return map(self._make, range(len(self._made)))

    def _make(self, k):
        fn = self._made[k]
        if fn is None:
            a, h, v = (rows[k].tolist() for rows in self._rows)
            fn = self._made[k] = BlendingFunction(Anchor(*a), tuple(h), tuple(v))
        return fn


class Space:
    """All blending functions of an analysis-suitable T-mesh with its two
    open global knot vectors.  The anchors and local index vectors are
    arrays, one row per function; ``functions`` makes the function objects
    on demand."""

    def __init__(self, mesh, hknots, vknots):
        if hknots.m != mesh.m or vknots.m != mesh.n:
            raise MeshStructureError("knot vector length does not match mesh index domain")
        if hknots.p != mesh.p or vknots.p != mesh.q:
            raise MeshStructureError("knot vector degree does not match mesh degree")
        self.mesh = mesh
        self.hknots = hknots
        self.vknots = vknots
        rows = _anchor_rows(mesh)
        hx1, hx2, vy1, vy2 = rows.T
        # the functions' local index vectors as arrays, one row per function
        self.h_indices, lost = _local_lines(mesh.vseg, mesh.p, hx1, hx2, vy1, vy2)
        self.v_indices, lost_v = _local_lines(mesh.hseg.T, mesh.q, vy1, vy2, hx1, hx2)
        if (lost | lost_v).any():
            anchor = Anchor(*rows[(lost | lost_v).argmax()].tolist())
            raise MeshStructureError(f"local knot marching left the domain at anchor {anchor}")
        self.functions = _Functions(rows, self.h_indices, self.v_indices)

    @classmethod
    def uniform(cls, mesh):
        return cls(
            mesh,
            GlobalKnots.uniform_open(mesh.m, mesh.p),
            GlobalKnots.uniform_open(mesh.n, mesh.q),
        )

    def h_values(self, fn):
        return self.hknots.take(fn.h_indices)

    def v_values(self, fn):
        return self.vknots.take(fn.v_indices)

    def support(self, fn):
        """Closed parametric support rectangle (s1, s2, t1, t2) as Fractions."""
        hv = self.h_values(fn)
        vv = self.v_values(fn)
        return (hv[0], hv[-1], vv[0], vv[-1])
