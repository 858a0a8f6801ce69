"""Bezier extraction: per-element extraction operators for hierarchical
spline bases, element connectivity, weights, and Bezier control points.

Each hierarchical function is a tensor product of two univariate
B-splines, so each row of C^e is the product of two 1D Bezier rows.  A 1D
row is exact (``basis.bezier_coeffs_1d``, a blossom, re-exported here with
its cache) and invariant under affine maps, so ``extract_all`` keys it by
the function's knots normalised to the element's span: integers shifted to
the span's start and divided by their gcd with its length
(``basis.row_keys``).  The cache of ``bezier_coeffs_1d`` is thus one store
of rows for every element, call and hierarchy of the process, and one dict
gives each key an int id (``_key_ids``).  Each entry of a 2D row is the
exact product of two 1D entries, rounded to float once, in the column order
of ``basis.bernstein_grid``, and is kept as long in one growing float array
per row width, found by the int64 code of its pair of key ids in a sorted
array.  A call normalises each distinct (function, element) column of grid
lines once, asks the row store once per distinct key, looks up all its pair
codes with one search and gathers the element arrays with numpy.  Ids and
codes are numbered in first-seen order, which no result depends on.

Which functions meet an element (the IEN, and the level-1 functions that
carry the geometry) is decided on the hierarchy's knot-span grid: a support
meets an element when their open grid boxes overlap.  Grid lines number the
distinct knot values in order, so this is the open overlap of the exact
rational rectangles.  ``extract_all`` returns its stacks (``ElementStacks``),
which ``iga`` reads by index and which, as a sequence, make each element's
``ElementData`` when it is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .basis import bezier_coeffs_1d, greville_rows, row_keys
from .hierarchy import HierarchicalSpace
from .tmesh import MeshStructureError

FMT = "%.17g"
_CHUNK = 1 << 20  # most entries of one element-by-function overlap block


def _overlaps(element_boxes, boxes):
    """(element, function) positions of the pairs of an element grid box and
    one of the (n, 4) grid boxes whose open interiors meet, by element, then
    by ascending function."""
    rows = max(1, _CHUNK // max(1, len(boxes)))
    found = []
    for s in range(0, len(element_boxes), rows):
        eb = element_boxes[s : s + rows, None, :]
        e, f = np.nonzero(
            (boxes[:, 0] < eb[..., 1]) & (eb[..., 0] < boxes[:, 1])
            & (boxes[:, 2] < eb[..., 3]) & (eb[..., 2] < boxes[:, 3])
        )
        found.append((e + s, f))
    return tuple(np.concatenate(a) for a in zip(*found))


def build_ien(space: HierarchicalSpace):
    """Positions (into space.functions) of the functions nonzero on each element's
    interior, element after element in canonical function order; n_loc per element."""
    e, f = _overlaps(space.element_boxes, space.function_boxes)
    return f, np.bincount(e, minlength=space.n_e)


@dataclass
class ElementData:
    level: int
    param_rect: tuple
    ien: np.ndarray     # n_loc positions into space.functions
    C: np.ndarray       # n_loc x n_b
    weights: np.ndarray  # n_b element Bezier weights
    points: np.ndarray   # n_b x d element Bezier control points


class ElementStacks(Sequence):
    """The element arrays of a space in canonical order as stacks: n_loc per
    element, the IEN and C^e rows flat (element k's from ``start[k]``), weights
    n_e x n_b, points n_e x n_b x d.  Item k is element k's ``ElementData``."""

    def __init__(self, elements, n_loc, ien, C, weights, points):
        self.elements, self.n_loc, self.ien, self.C = elements, n_loc, ien, C
        self.weights, self.points = weights, points
        self.start = np.concatenate([[0], np.cumsum(n_loc)])

    def rows(self, pos, n):
        """Flat rows (len(pos) x n) of the elements at ``pos``, of n functions each."""
        return self.start[pos, None] + np.arange(n)

    def __len__(self):
        return len(self.n_loc)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]
        at, he = slice(self.start[k], self.start[k + 1]), self.elements[k]
        return ElementData(he.level, he.param_rect, self.ien[at], self.C[at], self.weights[k], self.points[k])


def default_geometry(space: HierarchicalSpace):
    """Unit weights and level-1 Greville control points: the identity map of
    the parametric square (linear parameterization)."""
    mesh = space.levels[0].mesh
    points = greville_rows(space.geometry_lines, space.grid_numerators, (mesh.p, mesh.q))
    return np.ones(len(points)), points


def _codes(columns, base):
    """One int64 per row of integer columns in [0, base), equal exactly when
    the rows are: mixed radix, renumbered densely before it could overflow."""
    code, size = np.zeros(len(columns[0]), dtype=np.int64), 1
    for col in columns:
        if size * base > 2**62:
            code = np.unique(code, return_inverse=True)[1]
            size = int(code.max()) + 1
        code, size = code * base + col, size * base
    return code


def _row_keys(lines, fn, spans, elem, num, p):
    """Numbered 1D row keys of (function, element) pairs in one direction:
    pair k joins a function's p+2 knot grid lines ``lines[fn[k]]`` and an
    element's two ``spans[elem[k]]``, ``num`` the grid knots as integers.
    Distinct columns are normalised together (``basis.row_keys``) and
    numbered for the process (``_key_ids``).  Returns each pair's key id
    and, per id of the call, the exact row from the store as int ratios."""
    f, e = (np.unique(_codes(a.T, len(num)), return_inverse=True)[1] for a in (lines, spans))
    distinct, inverse = np.unique(f[fn] * (e.max() + 1) + e[elem], return_inverse=True)
    first = np.empty(len(distinct), dtype=np.int64)
    first[inverse] = np.arange(len(inverse))  # a pair of each distinct column
    keys = row_keys(np.array(num, dtype=object)[np.column_stack([lines[fn[first]], spans[elem[first]]])], p)
    ids = [_key_ids.setdefault(k, len(_key_ids)) for k in keys]
    rows = {i: [c.as_integer_ratio() for c in bezier_coeffs_1d(*k)] for i, k in dict(zip(ids, keys)).items()}
    return np.array(ids, dtype=np.int64)[inverse], rows


class _ProductRows:
    """Rounded 2D rows of C^e of one width, kept for the process like the
    exact rows: one growing float array, and the number of each row by the
    int64 code h id * 2^32 + v id of its pair of key ids, in an array kept
    sorted, so that a call looks up all its pairs with one search and
    gathers C^e and the geometry rows straight from the array."""

    def __init__(self, width):
        self.codes = np.empty(0, dtype=np.int64)
        self.number = np.empty(0, dtype=np.int64)  # row number of each code
        self.rows = np.empty((0, width))

    def numbers(self, codes, rows):
        """Row numbers of the sorted distinct pair ``codes``, ``rows`` the
        exact 1D rows by key id; a row not kept yet is made and appended."""
        at = np.searchsorted(self.codes, codes)
        new = np.flatnonzero(np.append(self.codes, -1)[at] != codes)
        if len(new):
            # float(ch[i] * cv[j]) in bivariate Bernstein order: int true
            # division rounds the exact product once
            hv = zip(*(a.tolist() for a in np.divmod(codes[new], 1 << 32)))
            made = [[(an * bn) / (ad * bd) for bn, bd in rows[v] for an, ad in rows[h]] for h, v in hv]
            n = len(self.rows)
            self.rows = np.concatenate([self.rows, np.reshape(made, (len(new), -1))])
            self.codes = np.insert(self.codes, at[new], codes[new])
            self.number = np.insert(self.number, at[new], np.arange(n, n + len(new)))
            at = np.searchsorted(self.codes, codes)
        return self.number[at]


_key_ids = {}  # normalised 1D row key -> its id, in first-seen order
_products = {}  # row width -> _ProductRows


def extract_all(space, weights=None, points=None):
    """``ElementStacks`` of every element of the space, from one finite weight
    and one finite point (a row) per level-1 function."""
    p, q = space.levels[0].mesh.p, space.levels[0].mesh.q
    if weights is None or points is None:
        weights, points = default_geometry(space)
    w, P, n1 = np.asarray(weights, dtype=float), np.asarray(points, dtype=float), len(space.geometry_boxes)
    if w.shape != (n1,) or P.ndim != 2 or len(P) != n1 or not (np.isfinite(w).all() and np.isfinite(P).all()):
        raise MeshStructureError(f"the geometry needs one finite weight and one finite point per level-1 function "
                                 f"({n1}), not weights of shape {w.shape} and points of shape {P.shape}")
    fns, n_loc = build_ien(space)
    ge, gf = _overlaps(space.element_boxes, space.geometry_boxes)
    # every (function, element) pair: the IEN's, then the geometry's
    elem = np.concatenate([np.repeat(np.arange(space.n_e), n_loc), ge])
    fn = np.concatenate([fns, space.n_f + gf])  # rows of the lines below
    (hid, hrows), (vid, vrows) = (
        _row_keys(
            np.concatenate([space.knot_lines[d], space.geometry_lines[d]]), fn,
            space.element_boxes[:, 2 * d : 2 * d + 2], elem,
            space.grid_numerators[d], deg,
        )
        for d, deg in ((0, p), (1, q))
    )
    codes, at = np.unique((hid << 32) + vid, return_inverse=True)
    n_b = (p + 1) * (q + 1)
    store = _products.setdefault(n_b, _ProductRows(n_b))
    numbers = store.numbers(codes, hrows | vrows)[at]
    C, G = store.rows[numbers[: len(fns)]], store.rows[numbers[len(fns) :]]
    # the geometry, stacked by the number k of level-1 functions per element
    count = np.bincount(ge, minlength=space.n_e)
    start = np.cumsum(count) - count
    dim = P.shape[1]
    wb, qb = np.empty((space.n_e, n_b)), np.empty((space.n_e, n_b, dim))
    for k in np.unique(count).tolist():
        es = np.flatnonzero(count == k)
        at_k = start[es, None] + np.arange(k)
        Gk, wk, Pk = G[at_k], w[gf[at_k]], P[gf[at_k]]
        # sequential sums from 0.0 in function order: bit-identical to adding
        # one overlapping function at a time
        wsum, qsum = np.zeros((len(es), n_b)), np.zeros((len(es), n_b, dim))
        for j in range(k):
            wsum += Gk[:, j] * wk[:, j, None]
            qsum += Gk[:, j, :, None] * Pk[:, j, None, :] * wk[:, j, None, None]
        wb[es], qb[es] = wsum, qsum
    bad = (wb <= 0).any(axis=1)
    if bad.any():
        raise MeshStructureError(
            f"nonpositive element Bezier weight on element {space.elements[int(bad.argmax())]}"
        )
    qb /= wb[:, :, None]
    return ElementStacks(space.elements, n_loc, fns, C, wb, qb)


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
