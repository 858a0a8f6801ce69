"""Nested mesh sequences and the hierarchical spline basis.

A level k+1 is a mesh, its global knots and its domain Ω^{k+1}, a set of
level-k Bezier elements.  Subdivision doubles the positive-area index grid,
halving every knot span, on the level's knots as integers over one
denominator (``GlobalKnots.numerators``); the hierarchical basis keeps
coarse functions whose support leaks out of the next level's domain and
adopts fine functions fully inside it.

The child mesh is the parent's extended mesh, mapped onto the child's index
lines, plus the midlines of the parent's Bezier cells, so it holds the
parent's extended mesh, which nesting needs, by construction.  Every
extension of the parent is already an edge and the midlines split every
element alike, so unlike local refinement of AS T-splines, subdivision
repairs no extensions; it refuses a parent that repeats an interior knot,
whose multiplicity halving the zero-length span would raise.  Every level,
the child as a start or a file's, is admitted once, where its level data
is made: its mesh must be valid and analysis-suitable.

Levels nest when each holds the knots and the extended mesh of the one
below, which a build checks once per pair of level data (``check_nested``).
Every location test is integer arithmetic on one knot-span grid per
hierarchy, the finest level's distinct knots numbered from 0, which each
level reaches through its knots' own map (``GlobalKnots.onto``).  Each
element of a domain must be a cell of the level below that lies in that
level's domain; a rectangle lies inside a domain when the summed-area table
of its elements covers all of it.
Rectangles from files become elements once, in ``meshio.parse_hierarchy``.
The build keeps, in canonical order, the grid boxes of the active functions,
the active elements and the level-1 functions, the grid lines of the local
knot vectors of the active and the level-1 functions, and each direction's
grid knots as integers over one denominator.

A refinement changes only the domains and adds at most one level, so what
a build derives from a level travels with it in ``LevelMesh.kept``.  Its
``LevelData``, made once: the ``Space``, the Bezier cells, the H functions
and HE elements, each made on first use, and maps onto the grid, made again
only when the finest level changes.  The domain a build has seen, and the
domain masks: which functions and cells of the level and of the one below
lie inside it.  Domains only grow, so a build finds the new elements as a
set difference, paints a table only on a level that gained some, and tests
only the objects outside the masks whose boxes meet a new element.

A coarse function is represented on a finer level by the fine functions'
dual functionals, blossoms of its pieces (``basis.blossom``), and each
representation is verified exactly on Bezier rows.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cache
from fractions import Fraction
from math import lcm

import numpy as np

from .basis import GlobalKnots, Space, bezier_coeffs_1d, blossom, greville_rows, row_keys
from .tmesh import MeshStructureError, TMesh, runs_mask


@dataclass(frozen=True)
class LevelMesh:
    """One hierarchy level.  ``domain`` is a frozenset of the previous
    level's Bezier elements as index rects (x1, x2, y1, y2), rows of its
    ``LevelData.cells``, whose closures the domain is the union of; None
    means the whole parametric square (level 1 only).

    ``kept`` is what a build derived from the level: its ``LevelData``, the
    domain last seen, and the masks with the level data below they index.
    It is no part of the level's value, and ``dataclasses.replace`` carries
    it to a level with a grown domain."""

    level: int
    mesh: TMesh
    hknots: GlobalKnots
    vknots: GlobalKnots
    domain: frozenset | None = None
    kept: tuple | None = field(default=None, compare=False, repr=False)


# -- the knot-span grid and domain masks --------------------------------------


def index_spans(rects, lines):
    """(n, 4) grid rectangles of index-line rectangles (x1, x2, y1, y2); an
    index past either end of the lines reads as that end."""
    r = np.array(rects, dtype=np.int64).reshape(-1, 4)
    hl, vl = (a.take(r[:, cols], mode="clip") for a, cols in zip(lines, ([0, 1], [2, 3])))
    return np.column_stack([hl, vl])


def summed_area(spans, shape):
    """Summed-area table of the union of grid rectangles on a grid of
    ``shape`` lines per direction: entry (a, b) counts the covered spans
    left of grid line a and below grid line b."""
    table = np.zeros(shape, dtype=np.int64)
    for a1, a2, b1, b2 in spans.tolist():
        table[a1 + 1 : a2 + 1, b1 + 1 : b2 + 1] = 1
    return table.cumsum(0, out=table).cumsum(1, out=table)


def in_domain(spans, table):
    """Which grid rectangles of an (n, 4) array (a1, a2, b1, b2) lie inside
    the domain whose summed-area table is ``table``."""
    a1, a2, b1, b2 = spans.T
    covered = table[a2, b2] - table[a1, b2] - table[a2, b1] + table[a1, b1]
    return covered == (a2 - a1) * (b2 - b1)


# -- subdivision --------------------------------------------------------------

# index points of the largest level made by subdivision, started or read: a
# level's time and memory grow with its global index grid, and 2^21 points
# admits the 1029 x 1029 grid of level 7 over a 16 x 16 biquadratic start
# (about 2 GB) but refuses level 8 (4.2M points, about 7 GB)
MAX_LEVEL_POINTS = 2**21


def check_level_points(what, m, n):
    """Raise unless an m x n index grid, which ``what`` would hold, is within
    ``MAX_LEVEL_POINTS``; callers ask before any of it is made."""
    if m * n > MAX_LEVEL_POINTS:
        raise MeshStructureError(
            f"{what} would hold a {m} x {n} index grid, more than the budget of {MAX_LEVEL_POINTS} points"
        )


def index_map(i, m, p):
    """Parent index line -> child index line under span-halving subdivision."""
    if i <= p + 1:
        return i
    if i >= m - p:
        return i + m - 2 * p - 1
    return 2 * i - p - 1


def refine_knots(knots):
    """Child global knots: parent values on mapped lines, span midpoints
    between, on the parent's integer knots over twice their denominator."""
    m, p = knots.m, knots.p
    ints = knots.numerators
    child = np.empty(2 * m - 2 * p, dtype=object)
    child[[index_map(i, m, p) for i in range(m + 1)]] = 2 * ints
    i = np.arange(p + 1, m - p)
    child[2 * i - p] = ints[i] + ints[i + 1]
    den = 2 * int(ints[-1])
    return GlobalKnots([Fraction(c, den) for c in child[1:].tolist()], p)


def bezier_cells(mesh, hknots, vknots):
    """Positive-parametric-area cells of the extended mesh, as an (n, 4)
    array of index rects."""
    hl, vl = hknots.lines, vknots.lines
    cells = mesh.extended().cell_rows
    keep = (hl[cells[:, 1]] > hl[cells[:, 0]]) & (vl[cells[:, 3]] > vl[cells[:, 2]])
    return cells[keep]


def subdivide_suitable(parent: LevelMesh):
    """Split every Bezier element of the parent into four congruent
    children, as the module docstring says; returns the child level, at
    level+1 with an empty domain, for a build to admit.  A child whose
    index grid holds more than ``MAX_LEVEL_POINTS`` points, or whose parent
    repeats an interior knot, is refused before anything is made.  The
    parent's cells are those of its level data, made (and the parent
    admitted) here if no build has kept it yet."""
    mesh = parent.mesh
    m, n, p, q = mesh.m, mesh.n, mesh.p, mesh.q
    mc = 2 * m - 2 * p - 1
    nc = 2 * n - 2 * q - 1
    check_level_points(f"level {parent.level + 1}", mc, nc)
    dup = [v for k in (parent.hknots, parent.vknots) for v, w in zip(k.values, k.values[1:]) if 0 < v == w < 1]
    if dup:
        raise MeshStructureError(
            f"level {parent.level + 1} cannot be made: level {parent.level} repeats the "
            f"interior knot {dup[0]}, whose multiplicity subdivision would raise"
        )
    parent = _kept(parent)
    ext = mesh.extended()
    fx = np.array([index_map(i, m, p) for i in range(m + 1)])
    fy = np.array([index_map(j, n, q) for j in range(n + 1)])
    hseg = np.zeros((mc + 1, nc + 1), dtype=bool)
    vseg = np.zeros((mc + 1, nc + 1), dtype=bool)
    # a parent unit segment maps to one or two child unit segments: the
    # first and the last of the mapped span
    i, j = np.nonzero(ext.hseg)
    hseg[fx[i], fy[j]] = True
    hseg[fx[i + 1] - 1, fy[j]] = True
    i, j = np.nonzero(ext.vseg)
    vseg[fx[i], fy[j]] = True
    vseg[fx[i], fy[j + 1] - 1] = True
    chk = refine_knots(parent.hknots)
    cvk = refine_knots(parent.vknots)
    cells = parent.kept[0].cells
    x1, x2, y1, y2 = cells.T
    cx = (fx[x1] + fx[x2]) // 2
    cy = (fy[y1] + fy[y2]) // 2
    # the child line through each element's index middle must hold its
    # parametric middle: on exact integer knots, c / C == (a + b) / 2A
    mid = np.ones(len(cells), dtype=bool)
    for knots, kids, c, lo, hi in ((parent.hknots, chk, cx, x1, x2), (parent.vknots, cvk, cy, y1, y2)):
        a, b = knots.numerators, kids.numerators
        mid &= b[c] * (2 * a[-1]) == (a[lo] + a[hi]) * b[-1]
    if not mid.all():
        raise MeshStructureError(
            f"element {tuple(cells[mid.argmin()].tolist())} has no parametric-midpoint index line; "
            "spans must be index-uniform for congruent subdivision"
        )
    # continue midlines through the zero-area band when they hit the core edge
    ylo, yhi = fy[y1], fy[y2]
    ylo[ylo == q + 1], yhi[yhi == nc - q] = 1, nc
    xlo, xhi = fx[x1], fx[x2]
    xlo[xlo == p + 1], xhi[xhi == mc - p] = 1, mc
    vseg |= runs_mask(vseg.shape, cx, ylo, yhi)
    hseg |= runs_mask(hseg.T.shape, cy, xlo, xhi).T
    # a parent extension that ends inside the frame region, where no
    # T-junction may lie, is carried on to the boundary
    dp, dq = (p + 1) // 2, (q + 1) // 2
    hseg[1:dp] |= hseg[dp]
    hseg[mc - dp + 1 : mc] |= hseg[mc - dp]
    vseg[:, 1:dq] |= vseg[:, dq, None]
    vseg[:, nc - dq + 1 : nc] |= vseg[:, nc - dq, None]
    return LevelMesh(parent.level + 1, TMesh(mc, nc, p, q, hseg, vseg), chk, cvk, domain=frozenset())


# -- hierarchical space -------------------------------------------------------


@dataclass(frozen=True)
class HFunction:
    """A hierarchical basis function: a level tag plus its blending function."""

    level: int
    fn: object  # BlendingFunction

    def sort_key(self):
        return (self.level, self.fn.anchor.sort_key())


@dataclass(frozen=True)
class HElement:
    level: int
    index_rect: tuple
    param_rect: tuple  # (s1, s2, t1, t2) Fractions

    def sort_key(self):
        return (self.level, self.index_rect)


class LevelData:
    """What a build uses of one level's mesh and knots, which no refinement
    changes, made once per level.

    On the level's own index lines: its ``Space``, which holds the index
    lines of its functions' local knot vectors, and its Bezier cells
    (``cells``).  ``on(top)`` maps all of it, through the knots' own grids
    (``GlobalKnots.onto``), onto the knot-span grid of the finest level
    ``top``, which holds every knot of the level once the build has checked
    that each level nests in the next, and keeps the last map, so it is
    recomputed only when the finest level's knots change.  ``nests_on`` is
    the level data below that this level was checked to nest on
    (``check_nested``)."""

    def __init__(self, mesh, hknots, vknots):
        self.mesh, self.hknots, self.vknots = mesh, hknots, vknots
        self.space = Space(mesh, hknots, vknots)
        self.cells = bezier_cells(mesh, hknots, vknots)
        # the supports, then the cells, by lower edge: every map onto a grid keeps this order
        lower = np.concatenate([self.space.v_indices[:, 0], self.cells[:, 2]])
        self.order = np.argsort(lower, kind="stable")
        # the knots of the finest level of the last map hold no level data,
        # and ``nests_on`` points down only, so these form no reference cycle
        self._top = self.nests_on = None
        self._on, self._made = None, {}

    def on(self, top):
        """This level on the grid of ``top``: the grid line of each index
        line, the grid lines of the local knot vectors, and the support
        boxes followed by the cell boxes as a ``_grow`` family, all
        read-only."""
        knots = top.hknots, top.vknots
        if self._top != knots:
            hl, vl = (k.onto(t)[k.lines] for k, t in zip((self.hknots, self.vknots), knots))
            h, v = hl[self.space.h_indices], vl[self.space.v_indices]
            supports = np.column_stack([h[:, 0], h[:, -1], v[:, 0], v[:, -1]])
            boxes = np.concatenate([supports, index_spans(self.cells, (hl, vl))])
            for a in (hl, vl, h, v, boxes):
                a.flags.writeable = False
            family = (boxes, self.order, boxes[self.order, 2], (boxes[:, 3] - boxes[:, 2]).max())
            self._top, self._on = knots, ((hl, vl), (h, v), family)
        return self._on

    def made(self, level, on):
        """The H functions, then the HE elements, of this level as level
        ``level`` where ``on`` holds for its boxes, each made on first use."""
        nf, made = len(self.space.functions), self._made.setdefault(level, {})
        idx = np.flatnonzero(on).tolist()
        for i in set(idx) - made.keys():
            if i < nf:
                made[i] = HFunction(level, self.space.functions[i])
            else:
                x1, x2, y1, y2 = rect = tuple(self.cells[i - nf].tolist())
                hk, vk = self.hknots, self.vknots
                made[i] = HElement(level, rect, (hk[x1], hk[x2], vk[y1], vk[y2]))
        return [made[i] for i in idx]


def _kept(lv):
    """The level with valid level data: its own if it still matches the
    mesh and knots, else new data and no domain on record.  New data is
    made only for a valid, analysis-suitable mesh, so every level is
    admitted here, once per level data."""
    data = lv.kept[0] if lv.kept else None
    if data and data.mesh is lv.mesh and data.hknots is lv.hknots and data.vknots is lv.vknots:
        return lv
    bad = lv.mesh.validate()
    if bad:
        raise MeshStructureError(f"level {lv.level} invalid: {bad[0]}")
    if not lv.mesh.is_analysis_suitable()[0]:
        raise MeshStructureError(f"level {lv.level} mesh is not analysis-suitable")
    return replace(lv, kept=(LevelData(lv.mesh, lv.hknots, lv.vknots), frozenset(), None))


def check_nested(lower, upper, level):
    """Raise unless the level data ``upper`` of level ``level`` + 1 nests on
    ``lower``: its knots and its mesh hold the knots and the extended mesh
    of ``lower``, the meshes compared by prefix sums of positive-length unit
    segments (seg[i, j] joins index lines i and i+1 on the crossing line j)
    along each line of the knot-span grid of ``upper``."""
    pairs = ((lower.hknots, upper.hknots), (lower.vknots, upper.vknots))
    low = [k.onto(nxt)[k.lines] for k, nxt in pairs]
    top = [nxt.lines for _, nxt in pairs]
    ext = lower.mesh.extended()
    positive = lambda a: np.flatnonzero(a[2:] > a[1:-1]) + 1  # index spans of positive length
    for d, own, nxt in ((0, ext.hseg, upper.mesh.hseg), (1, ext.vseg.T, upper.mesh.vseg.T)):
        # per grid line across, the grid spans along it that hold a segment of ``upper``, summed
        first = np.flatnonzero(np.diff(top[1 - d][1:], prepend=-1))
        held = np.logical_or.reduceat(nxt[positive(top[d]), 1:], first, axis=1)
        count = np.vstack([np.zeros((1, held.shape[1]), dtype=np.int64), held.cumsum(axis=0)])
        i, along, across = positive(low[d]), low[d], low[1 - d][1:]
        got = count[np.ix_(along[i + 1], across)] - count[np.ix_(along[i], across)]
        if (own[i, 1:] & (got < (along[i + 1] - along[i])[:, None])).any():
            raise MeshStructureError(f"level {level + 1} mesh does not hold the extended level {level} mesh")


def _grow(mask, family, new, table):
    """Which boxes of a family lie inside the domain of ``table``, grown by
    the grid rectangles ``new`` from the domain of ``mask``: only boxes not
    in ``mask`` that meet a new rectangle are tested.  A family is boxes,
    their order by lower edge, those edges in that order and the largest
    height, so the boxes that can meet a rectangle are one run of it."""
    boxes, order, lower, height = family
    lo = lower.searchsorted(new[:, 2] - height)
    hi = lower.searchsorted(new[:, 3], "right")
    if (hi - lo).sum() < len(boxes):
        pick = np.concatenate([order[a:b] for a, b in zip(lo.tolist(), hi.tolist())])
        r1, r2, s1, _ = np.repeat(new, hi - lo, axis=0).T
        a1, a2, _, b2 = boxes[pick].T
        pick = pick[(a1 <= r2) & (a2 >= r1) & (b2 >= s1) & ~mask[pick]]
    else:
        pick = np.flatnonzero(~mask)
    mask = mask.copy()
    mask[pick] = in_domain(boxes[pick], table)
    return mask


class HierarchicalSpace:
    """The hierarchical basis H and element set HE over nested levels 1, 2,
    ... of one pair of degrees, each admitted where its data is made."""

    def __init__(self, levels):
        levels = tuple(levels)
        if not levels or [lv.level for lv in levels] != list(range(1, len(levels) + 1)):
            raise MeshStructureError("a hierarchy holds levels 1, 2, ... in order")
        for a, b in zip(levels, levels[1:]):
            if b.domain is None:
                raise MeshStructureError("only level 1 may cover the whole domain")
            if (b.mesh.p, b.mesh.q) != (a.mesh.p, a.mesh.q):
                raise MeshStructureError("all levels must have the same degrees")
        self.levels = tuple(_kept(lv) for lv in levels)
        self.spaces = [lv.kept[0].space for lv in self.levels]
        self._build()

    def _build(self):
        """A level-k function or element is active when it lies in Ω^k but not
        in Ω^{k+1}.  As Ω^{k+1} ⊆ Ω^k, every active object below level k
        already lies outside Ω^{k+1}, so each domain meets only level-k and
        level-(k+1) objects.  Each level's functions (by anchor) and cells
        come sorted, so the level-major order of H and HE is canonical."""
        levels = self.levels
        data = [lv.kept[0] for lv in levels]
        top = data[-1]
        shape = len(top.hknots.grid), len(top.vknots.grid)
        for k, (a, b) in enumerate(zip(data, data[1:]), 1):
            if b.nests_on is not a:
                check_nested(a, b, k)
                b.nests_on = a
        # so every level's knots are knots of the finest level
        lines, fn_lines, families = zip(*(d.on(top) for d in data))
        boxes = [f[0] for f in families]
        nf = [len(d.space.functions) for d in data]
        on = [np.ones(len(boxes[0]), dtype=bool)]
        recorded = [levels[0]]
        for k in range(1, len(levels)):
            lv, below, n = levels[k], data[k - 1], nf[k - 1]
            # masks made against other data below, for a domain that is no
            # part of the level's, or with cells outside Ω^{k-1}, are dropped
            _, seen, masks = lv.kept
            if masks is None or masks[0] is not below or not seen <= lv.domain or (masks[1] > on[k - 1]).any():
                seen = frozenset()
                masks = (below, *(np.zeros(len(b), bool) for b in boxes[k - 1 : k + 1]))
            new = lv.domain - seen
            if new:
                # paint Ω^k, the level-(k-1) cells on record and the new
                # rects, and test which level-(k-1) and level-k functions
                # and cells lie inside it; the new rects must be the cells
                # of Ω^{k-1} that come inside
                was, spans = masks[1][n:], index_spans(list(new), lines[k - 1])
                table = summed_area(np.concatenate([boxes[k - 1][n:][was], spans]), shape)
                pairs = zip(masks[1:], families[k - 1 : k + 1])
                masks = (below, *(_grow(m, f, spans, table) for m, f in pairs))
                came = set(map(tuple, below.cells[(masks[1] & on[k - 1])[n:] & ~was].tolist()))
                if came != new:
                    raise MeshStructureError(
                        f"level {k + 1} domain element {next(iter(new - came))} "
                        f"is no level {k} element inside the level {k} domain"
                    )
                lv = replace(lv, kept=(data[k], lv.domain, masks))
            recorded.append(lv)
            on[k - 1] = on[k - 1] & ~masks[1]
            on.append(masks[2])
        self.levels = tuple(recorded)
        made = [d.made(k + 1, o) for k, (d, o) in enumerate(zip(data, on))]
        count = [int(o[:n].sum()) for o, n in zip(on, nf)]
        self.functions = tuple(x for objs, c in zip(made, count) for x in objs[:c])
        self.elements = tuple(x for objs, c in zip(made, count) for x in objs[c:])
        self.n_f = len(self.functions)
        self.n_e = len(self.elements)
        # integer location data in canonical order, on a grid of
        # ``grid_shape`` lines per direction with ``grid_numerators`` as knots
        self.grid_shape = shape
        self.grid_numerators = top.hknots.grid_numerators, top.vknots.grid_numerators
        self.knot_lines = tuple(
            np.concatenate([fl[d][o[:n]] for fl, o, n in zip(fn_lines, on, nf)]) for d in (0, 1)
        )
        self.function_boxes = np.concatenate([b[:n][o[:n]] for b, o, n in zip(boxes, on, nf)])
        self.element_boxes = np.concatenate([b[n:][o[n:]] for b, o, n in zip(boxes, on, nf)])

    def support(self, hf):
        return tuple(self.spaces[hf.level - 1].support(hf.fn))

    def greville_points(self):
        """Greville points of H in canonical order, from the grid lines of
        the local knot vectors and the grid's integer knots."""
        lv = self.levels[0].mesh
        return greville_rows(self.knot_lines, self.grid_numerators, (lv.p, lv.q))


# -- representation of a coarse function on a finer level ---------------------


def represent_in_space(hvals, vvals, fine: Space):
    """Coefficients of one blending function, given by its local knot
    values, over the functions of a finer space, by the fine functions' dual
    functionals: AS T-splines are dual-compatible, so the coefficient of the
    fine function with local knots (tau_h, tau_v) is the product over both
    directions of the blossom of the coarse B-spline at tau_1..tau_p, taken
    of its piece on tau's first nonempty span.  Only fine functions whose
    support meets the coarse support are asked; the result is verified
    exactly (``_verify_representation``)."""
    p, q = fine.mesh.p, fine.mesh.q
    axes = ((hvals, p, fine.hknots, fine.h_indices), (vvals, q, fine.vknots, fine.v_indices))
    near = np.ones(len(fine.functions), dtype=bool)
    for vals, _, knots, lines in axes:
        # supports that start before the coarse support ends and end after it starts
        near &= lines[:, 0] <= bisect_left(knots.values, vals[-1])
        near &= lines[:, -1] > bisect_right(knots.values, vals[0])

    @cache
    def factor(axis, lines):
        vals, deg, knots, _ = axes[axis]
        tau = knots.take(lines)
        k = next(j for j in range(deg + 1) if tau[j] < tau[j + 1])
        return blossom(vals, deg, tau[k], tau[k + 1], [tau[1 : deg + 1]])[0]

    out = {}
    for i in np.flatnonzero(near):
        f = fine.functions[i]
        c = factor(0, f.h_indices) * factor(1, f.v_indices)
        if c != 0:
            out[f] = c
    _verify_representation(hvals, vvals, fine, out)
    return out


def _verify_representation(hvals, vvals, fine, coeffs):
    """Raise unless ``coeffs`` give the coarse function of local knot values
    ``hvals``, ``vvals`` exactly: with each function as its Bezier rows on
    the fine knot spans under its support (``row_keys`` keys into the row
    store), c_f times each fine function's tensor product of rows, less the
    coarse function's, must sum to 0 on every span pair, in integers."""
    knots, degs = (fine.hknots, fine.vknots), (fine.mesh.p, fine.mesh.q)

    @cache
    def rows(d, vals):
        # where the first row goes, the rows under the support as integers over ``den``, and ``den``
        g, num, deg = knots[d].grid, knots[d].grid_numerators, degs[d]
        if any(v not in g for v in vals):
            raise MeshStructureError(f"nesting violated: a knot of {vals} is no knot of the finer level")
        ints, spans = [num[g[v]] for v in vals], range(g[vals[0]], g[vals[-1]])
        row = [c for k in row_keys([ints + num[s : s + 2] for s in spans], deg) for c in bezier_coeffs_1d(*k)]
        den = lcm(*(c.denominator for c in row))
        return spans[0] * (deg + 1), np.array([int(c * den) for c in row], dtype=object), den

    terms = [(-1, rows(0, tuple(hvals)), rows(1, tuple(vvals)))]
    terms += [(c, rows(0, fine.h_values(f)), rows(1, fine.v_values(f))) for f, c in coeffs.items()]
    den = lcm(*(Fraction(c, h[2] * v[2]).denominator for c, h, v in terms))
    lo = [min(t[d][0] for t in terms) for d in (1, 2)]
    hi = [max(t[d][0] + len(t[d][1]) for t in terms) for d in (1, 2)]
    total = np.zeros((hi[0] - lo[0], hi[1] - lo[1]), dtype=object)
    for c, (x, h, dh), (y, v, dv) in terms:
        x, y = x - lo[0], y - lo[1]
        total[x : x + len(h), y : y + len(v)] += int(Fraction(c, dh * dv) * den) * np.multiply.outer(h, v)
    bad = np.argwhere(total != 0)
    if len(bad):
        s, t = (list(k.grid)[int(w + a) // (deg + 1)] for k, w, a, deg in zip(knots, bad[0], lo, degs))
        raise MeshStructureError(f"nesting violated: the representation differs on the spans at ({s}, {t})")


def represent_coarse_in_fine(space: HierarchicalSpace, hf: HFunction, fine_level: int):
    """Representation of one hierarchical function over the basis of a finer
    level's full spline space; returns {BlendingFunction: Fraction}."""
    sp = space.spaces[hf.level - 1]
    fine = space.spaces[fine_level - 1]
    return represent_in_space(sp.h_values(hf.fn), sp.v_values(hf.fn), fine)


# -- element-driven refinement ------------------------------------------------


def refine_by_elements(space: HierarchicalSpace, marked, max_levels=8):
    """Grow the next-level domains by the closures of the marked elements and
    rebuild; creates deeper levels lazily."""
    marked = list(marked)
    have = {el.sort_key(): el for el in space.elements}
    for el in marked:
        if have.get(el.sort_key()) != el:
            raise MeshStructureError(f"marked element {el} is not in HE")
    if not marked:
        return space
    levels = list(space.levels)
    additions = defaultdict(set)
    for el in marked:
        additions[el.level + 1].add(el.index_rect)
    for tgt in sorted(additions):
        if tgt > max_levels:
            raise MeshStructureError(f"refinement would exceed the level cap {max_levels}")
        if tgt > len(levels):
            levels.append(subdivide_suitable(levels[-1]))
        lv = levels[tgt - 1]
        levels[tgt - 1] = replace(lv, domain=lv.domain | additions[tgt])
    return HierarchicalSpace(levels)
