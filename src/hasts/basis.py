"""Spline spaces over a T-mesh: global knot vectors, anchors, local index
vectors, and B-spline / blending-function evaluation.

Knot values are stored as exact ``fractions.Fraction`` so that equality and
interval predicates never see rounding; floats appear only when a function is
evaluated at a parametric point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .tmesh import MeshStructureError, TMesh


class GlobalKnots:
    """Open global knot vector over index lines 1..m.

    The first and last p+1 entries are the domain ends (0 and 1); entries are
    exact rationals.
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


def _minimal_h_edges(mesh):
    """Minimal horizontal edges as (x1, x2, y), split at canonical vertices."""
    out = []
    verts = mesh.canonical_vertices
    for j in range(1, mesh.n + 1):
        start = None
        for i in range(1, mesh.m + 1):
            at_vertex = (i, j) in verts
            if start is not None and (at_vertex or not mesh.hseg[i, j]):
                out.append((start, i, j))
                start = None
            if mesh.hseg[i, j] and (start is None):
                start = i
        if start is not None:
            out.append((start, mesh.m, j))
    return out


def _minimal_v_edges(mesh):
    out = []
    verts = mesh.canonical_vertices
    for i in range(1, mesh.m + 1):
        start = None
        for j in range(1, mesh.n + 1):
            at_vertex = (i, j) in verts
            if start is not None and (at_vertex or not mesh.vseg[i, j]):
                out.append((i, start, j))
                start = None
            if mesh.vseg[i, j] and (start is None):
                start = j
        if start is not None:
            out.append((i, start, mesh.n))
    return out


def anchors(mesh):
    """Anchor entities of the mesh, selected by degree parity and restricted
    to the active region; sorted lexicographically."""
    rs = mesh.region_split()
    p_odd = mesh.p % 2 == 1
    q_odd = mesh.q % 2 == 1
    out = []
    if p_odd and q_odd:
        for (x, y) in mesh.canonical_vertices:
            if rs.contains(x, y):
                out.append(Anchor(x, x, y, y))
    elif not p_odd and q_odd:
        for (x1, x2, y) in _minimal_h_edges(mesh):
            if rs.contains_rect(x1, x2, y, y):
                out.append(Anchor(x1, x2, y, y))
    elif p_odd and not q_odd:
        for (x, y1, y2) in _minimal_v_edges(mesh):
            if rs.contains_rect(x, x, y1, y2):
                out.append(Anchor(x, x, y1, y2))
    else:
        for (x1, x2, y1, y2) in mesh.cells:
            if rs.contains_rect(x1, x2, y1, y2):
                out.append(Anchor(x1, x2, y1, y2))
    out.sort(key=Anchor.sort_key)
    return out


def local_index_vectors(mesh, anchor):
    """(hLocal, vLocal) global index lines for one anchor, each of length
    degree+2, found by marching away from the anchor and keeping only lines
    that span the anchor's full perpendicular extent."""
    h = _march(mesh, anchor, horizontal=True)
    v = _march(mesh, anchor, horizontal=False)
    return h, v


def _march(mesh, anchor, horizontal):
    if horizontal:
        deg, lo, hi, limit = mesh.p, anchor.hx1, anchor.hx2, mesh.m
        spans = lambda x: mesh.v_line_covers(x, anchor.vy1, anchor.vy2)
    else:
        deg, lo, hi, limit = mesh.q, anchor.vy1, anchor.vy2, mesh.n
        spans = lambda y: mesh.h_line_covers(y, anchor.hx1, anchor.hx2)
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


# -- B-spline evaluation ------------------------------------------------------


def bspline_eval(knots, p, x):
    """B-spline N[knots](x) with local knot vector of length p+2.

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


def bspline_derivative(knots, p, x, order=1):
    """Derivative of N[knots] at x; terms with zero knot span are dropped."""
    knots = [float(v) for v in knots]
    assert len(knots) == p + 2
    if order == 0:
        return _cox_de_boor(tuple(knots), 0, p, float(x), knots[-1])
    closure = knots[-1]
    out = 0.0
    den = knots[p] - knots[0]
    if den > 0.0:
        out += p / den * _deriv(tuple(knots[: p + 1]), p - 1, float(x), order - 1, closure)
    den = knots[p + 1] - knots[1]
    if den > 0.0:
        out -= p / den * _deriv(tuple(knots[1:]), p - 1, float(x), order - 1, closure)
    return out


def _deriv(knots, p, x, order, closure):
    if order == 0:
        return _cox_de_boor(knots, 0, p, x, closure)
    out = 0.0
    den = knots[p] - knots[0]
    if den > 0.0:
        out += p / den * _deriv(knots[: p + 1], p - 1, x, order - 1, closure)
    den = knots[p + 1] - knots[1]
    if den > 0.0:
        out -= p / den * _deriv(knots[1:], p - 1, x, order - 1, closure)
    return out


def greville(knots, p):
    """Greville abscissa of one local knot vector: mean of the p interior knots."""
    return float(sum(Fraction(k) for k in knots[1 : p + 1]) / p)


# -- a complete spline space over one mesh ------------------------------------


@dataclass(frozen=True)
class BlendingFunction:
    """One bivariate blending function: anchor plus its global index lines."""

    anchor: Anchor
    h_indices: tuple
    v_indices: tuple


class Space:
    """All blending functions of an analysis-suitable T-mesh with its two
    open global knot vectors."""

    def __init__(self, mesh, hknots, vknots):
        if hknots.m != mesh.m or vknots.m != mesh.n:
            raise MeshStructureError("knot vector length does not match mesh index domain")
        if hknots.p != mesh.p or vknots.p != mesh.q:
            raise MeshStructureError("knot vector degree does not match mesh degree")
        self.mesh = mesh
        self.hknots = hknots
        self.vknots = vknots
        self.functions = tuple(
            BlendingFunction(a, *local_index_vectors(mesh, a)) for a in anchors(mesh)
        )

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

    def eval_function(self, fn, s, t):
        return bspline_eval(self.h_values(fn), self.mesh.p, s) * bspline_eval(
            self.v_values(fn), self.mesh.q, t
        )

    def eval_all(self, s, t):
        return np.array([self.eval_function(fn, s, t) for fn in self.functions])

    def greville_points(self):
        """Greville abscissae of every function, in function order."""
        return np.array(
            [
                (greville(self.h_values(fn), self.mesh.p), greville(self.v_values(fn), self.mesh.q))
                for fn in self.functions
            ]
        )
