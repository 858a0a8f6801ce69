"""Bezier extraction: per-element extraction operators for hierarchical
spline bases, and element connectivity.

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

Which functions meet an element (the IEN) is decided on the hierarchy's
knot-span grid: a support meets an element when their open grid boxes
overlap.  Grid lines number the distinct knot values in order, so this is
the open overlap of the exact rational rectangles.  ``extract_all`` returns
its stacks (``ElementStacks``), which ``iga`` reads by index and which, as
a sequence, make each element's ``ElementData`` when it is read.

No geometry is extracted: the domain is one affine map (``iga``), so an
element's map needs only its centre and half widths (``element_spans``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .basis import bezier_coeffs_1d, row_keys
from .hierarchy import HierarchicalSpace

FMT = "%.17g"
_CHUNK = 1 << 20  # most entries of one element-by-function overlap block


def build_ien(space: HierarchicalSpace):
    """Positions (into space.functions) of the functions nonzero on each element's
    interior, element after element in canonical function order; n_loc per element.
    A support meets an element when their open grid boxes meet."""
    boxes = space.function_boxes
    rows = max(1, _CHUNK // max(1, len(boxes)))
    found = []
    for s in range(0, space.n_e, rows):
        eb = space.element_boxes[s : s + rows, None, :]
        e, f = np.nonzero(
            (boxes[:, 0] < eb[..., 1]) & (eb[..., 0] < boxes[:, 1])
            & (boxes[:, 2] < eb[..., 3]) & (eb[..., 2] < boxes[:, 3])
        )
        found.append((e + s, f))
    e, f = (np.concatenate(a) for a in zip(*found))
    return f, np.bincount(e, minlength=space.n_e)


@dataclass
class ElementData:
    level: int
    param_rect: tuple
    ien: np.ndarray     # n_loc positions into space.functions
    C: np.ndarray       # n_loc x n_b


class ElementStacks(Sequence):
    """The element arrays of a space in canonical order as stacks: n_loc per
    element, the IEN and C^e rows flat (element k's from ``start[k]``).
    Item k is element k's ``ElementData``."""

    def __init__(self, elements, n_loc, ien, C):
        self.elements, self.n_loc, self.ien, self.C = elements, n_loc, ien, C
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
        return ElementData(he.level, he.param_rect, self.ien[at], self.C[at])


def element_spans(space: HierarchicalSpace):
    """The centre and the half widths of each element, n_e x 2 each: the
    exact values of its grid box, ints divided once."""
    num = [np.asarray(n, dtype=object) for n in space.grid_numerators]
    lo, hi = (np.column_stack([n[space.element_boxes[:, 2 * d + k]] for d, n in enumerate(num)]) for k in (0, 1))
    den = np.array([2 * n[-1] for n in num], dtype=object)
    return ((lo + hi) / den).astype(float), ((hi - lo) / den).astype(float)


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
    gathers C^e straight from the array."""

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


def extract_all(space):
    """``ElementStacks`` of every element of the space."""
    p, q = space.levels[0].mesh.p, space.levels[0].mesh.q
    fns, n_loc = build_ien(space)
    elem = np.repeat(np.arange(space.n_e), n_loc)  # every (function, element) pair of the IEN
    (hid, hrows), (vid, vrows) = (
        _row_keys(space.knot_lines[d], fns, space.element_boxes[:, 2 * d : 2 * d + 2], elem, num, deg)
        for d, (num, deg) in enumerate(zip(space.grid_numerators, (p, q)))
    )
    codes, at = np.unique((hid << 32) + vid, return_inverse=True)
    n_b = (p + 1) * (q + 1)
    store = _products.setdefault(n_b, _ProductRows(n_b))
    numbers = store.numbers(codes, hrows | vrows)[at]  # makes rows not kept yet
    return ElementStacks(space.elements, n_loc, fns, store.rows[numbers])


# -- export -------------------------------------------------------------------

EXTRACT_MAGIC = "hasts-extraction 1"


def dump_extraction(space, elems):
    """The export: per element its level, rectangle, IEN, C^e rows, and identity-map Bezier weights and points."""
    p, q = space.levels[0].mesh.p, space.levels[0].mesh.q
    # the Bezier points of an affine map are its images of the evenly spaced
    # control grid of [-1,1]^2, xi fastest; its Bezier weights are its weight
    xi, eta = np.linspace(-1.0, 1.0, p + 1), np.linspace(-1.0, 1.0, q + 1)
    mid, half = element_spans(space)
    Q = mid[:, None, :] + half[:, None, :] * np.column_stack([np.tile(xi, q + 1), np.repeat(eta, p + 1)])
    w = "w " + " ".join([FMT % 1.0] * len(xi) * len(eta))
    out = [EXTRACT_MAGIC, f"degrees {p} {q}", f"n_f {space.n_f}", f"n_e {space.n_e}"]
    for k, ed in enumerate(elems):
        out.append(f"element {k}")
        out.append(f"level {ed.level}")
        out.append("rect " + " ".join(FMT % float(v) for v in ed.param_rect))
        out.append("ien " + " ".join(str(a) for a in ed.ien))
        for row in ed.C:
            out.append("C " + " ".join(FMT % v for v in row))
        out.append(w)
        for pt in Q[k]:
            out.append("Q " + " ".join(FMT % v for v in pt))
    return "\n".join(out) + "\n"
