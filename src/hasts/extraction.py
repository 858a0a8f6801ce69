"""Bezier extraction: per-element extraction operators for hierarchical
spline bases, element connectivity, weights, and Bezier control points.

Each hierarchical function is a tensor product of two univariate
B-splines, so each row of C^e is the product of two 1D Bezier rows.  The
1D rows are exact rationals from knot insertion (``basis.bezier_coeffs_1d``,
re-exported here with its cache); each entry of a 2D row is the exact
product of two 1D entries, rounded to float once, in the column order of
``basis.bernstein_grid``.  ``extract_all`` computes each distinct 1D row
and each distinct pair of them once, in a row table keyed by integer index
data that lives for one call, and gathers the element arrays from it.

Which functions meet an element (the IEN, and the level-1 functions that
carry the geometry) is decided on the hierarchy's knot-span grid: a support
meets an element when their open grid boxes overlap.  Grid lines number the
distinct knot values in order, so this is the open overlap of the exact
rational rectangles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import bezier_coeffs_1d
from .hierarchy import HierarchicalSpace
from .tmesh import MeshStructureError

FMT = "%.17g"


def _meets(boxes, box):
    """Positions of the (n, 4) grid boxes whose open interior meets the open
    grid box (x1, x2, y1, y2)."""
    x1, x2, y1, y2 = box
    return np.flatnonzero(
        (boxes[:, 0] < x2) & (x1 < boxes[:, 1]) & (boxes[:, 2] < y2) & (y1 < boxes[:, 3])
    )


def build_ien(space: HierarchicalSpace):
    """Per element, the positions (into space.functions) of the hierarchical
    functions nonzero on its interior, in canonical function order."""
    return [_meets(space.function_boxes, box) for box in space.element_boxes.tolist()]


@dataclass
class ElementData:
    level: int
    param_rect: tuple
    ien: np.ndarray     # n_loc positions into space.functions
    C: np.ndarray       # n_loc x n_b
    weights: np.ndarray  # n_b element Bezier weights
    points: np.ndarray   # n_b x d element Bezier control points


def default_geometry(space: HierarchicalSpace):
    """Unit weights and level-1 Greville control points: the identity map of
    the parametric square (linear parameterization)."""
    sp1 = space.spaces[0]
    weights = np.ones(len(sp1.functions))
    return weights, sp1.greville_points()


class _ExactRows:
    """Exact 1D Bernstein rows of one parametric direction, numbered by value.

    A row is looked up by plain ints: (function level, the function's index
    lines in this direction, element level, the element's two index lines).
    ``bezier_coeffs_1d`` runs only for a key not seen before."""

    def __init__(self, knots, degree):
        self.knots = knots  # GlobalKnots of this direction, per level
        self.degree = degree
        self.ids = {}
        self.by_value = {}
        self.rows = []

    def id(self, level, indices, elevel, i1, i2):
        key = (level, indices, elevel, i1, i2)
        rid = self.ids.get(key)
        if rid is None:
            ek = self.knots[elevel - 1]
            row = bezier_coeffs_1d(self.knots[level - 1].take(indices), self.degree, ek[i1], ek[i2])
            rid = self.ids[key] = self.by_value.setdefault(row, len(self.by_value))
            if rid == len(self.rows):
                self.rows.append([(c.numerator, c.denominator) for c in row])
        return rid


def _rounded_product(ch, cv):
    """float(ch[i] * cv[j]) in bivariate Bernstein order, from (numerator,
    denominator) pairs.  Int true division rounds correctly, so each entry
    is the exact product rounded once."""
    return [(an * bn) / (ad * bd) for bn, bd in cv for an, ad in ch]


def extract_all(space, weights=None, points=None):
    """Element arrays for every element of the space, in canonical order."""
    p, q = space.levels[0].mesh.p, space.levels[0].mesh.q
    if weights is None or points is None:
        weights, points = default_geometry(space)
    hrows = _ExactRows([lv.hknots for lv in space.levels], p)
    vrows = _ExactRows([lv.vknots for lv in space.levels], q)
    pair_ids = {}  # (h row id, v row id) -> row of ``products``
    products = []

    def row_id(level, fn, he):
        x1, x2, y1, y2 = he.index_rect
        key = (
            hrows.id(level, fn.h_indices, he.level, x1, x2),
            vrows.id(level, fn.v_indices, he.level, y1, y2),
        )
        r = pair_ids.get(key)
        if r is None:
            r = pair_ids[key] = len(products)
            products.append(_rounded_product(hrows.rows[key[0]], vrows.rows[key[1]]))
        return r

    sp1 = space.spaces[0]
    ien = build_ien(space)
    geom = [_meets(space.geometry_boxes, box) for box in space.element_boxes.tolist()]
    c_ids = [
        [row_id(space.functions[a].level, space.functions[a].fn, he) for a in row.tolist()]
        for he, row in zip(space.elements, ien)
    ]
    g_ids = [
        [row_id(1, sp1.functions[g], he) for g in gs.tolist()]
        for he, gs in zip(space.elements, geom)
    ]
    table = np.array(products).reshape(-1, (p + 1) * (q + 1))
    w = np.asarray(weights, dtype=float)
    P = np.asarray(points, dtype=float)
    out = []
    for he, row, gs, ci, gi in zip(space.elements, ien, geom, c_ids, g_ids):
        G = table[gi]
        wg = w[gs]
        # a sequential sum from 0.0 in function order: bit-identical to adding
        # one overlapping function at a time
        wbf = (G * wg[:, None]).sum(0, initial=0.0)
        if (wbf <= 0).any():
            raise MeshStructureError(f"nonpositive element Bezier weight on element {he}")
        qb = (G[:, :, None] * P[gs][:, None, :] * wg[:, None, None]).sum(0, initial=0.0)
        qb /= wbf[:, None]
        out.append(ElementData(he.level, he.param_rect, row, table[ci], wbf, qb))
    return out


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


# -- export -------------------------------------------------------------------

EXTRACT_MAGIC = "hasts-extraction 1"


def dump_extraction(space, elems):
    p, q = space.levels[0].mesh.p, space.levels[0].mesh.q
    out = [EXTRACT_MAGIC, f"degrees {p} {q}", f"n_f {space.n_f}", f"n_e {space.n_e}"]
    for k, ed in enumerate(elems):
        out.append(f"element {k}")
        out.append(f"level {ed.level}")
        out.append("rect " + " ".join(FMT % float(v) for v in ed.param_rect))
        out.append("ien " + " ".join(str(a) for a in ed.ien))
        for row in ed.C:
            out.append("C " + " ".join(FMT % v for v in row))
        out.append("w " + " ".join(FMT % v for v in ed.weights))
        for pt in ed.points:
            out.append("Q " + " ".join(FMT % v for v in pt))
    return "\n".join(out) + "\n"
