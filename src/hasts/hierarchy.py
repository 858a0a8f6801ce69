"""Nested mesh sequences and the hierarchical spline basis.

A level is a mesh plus its global knots plus the parametric domain selected
for that level.  Subdivision doubles the positive-area index grid, halving
every knot span, on the level's knots as integers over one denominator
(``GlobalKnots.numerators``); the hierarchical basis keeps coarse functions
whose support leaks out of the next level's domain and adopts fine
functions fully inside it.

The child mesh is the parent's extended mesh, mapped onto the child's
index lines, plus the midlines of the parent's Bezier cells, so it holds
the parent's extended mesh, which nesting needs, by construction.  Every
extension of the parent is already an edge and the midlines split every
element alike, so unlike local refinement of AS T-splines, subdivision
repairs no extensions: it checks once that the child is valid and
analysis-suitable, and raises ``MeshStructureError`` if not.

Every location test is integer arithmetic on one knot-span grid per
hierarchy, the finest level's distinct knots numbered from 0, onto which
each level maps its index lines.  The knots of every level must be knots of
the next, and a level's domain must be a union of closures of the previous
level's Bezier elements; the domain becomes a mask over the grid, inside
which a rectangle lies when the mask's summed-area table covers all of it.
The build keeps, in canonical order, the grid boxes of the active functions,
the active elements and the level-1 functions, the grid lines of the local
knot vectors of the active and the level-1 functions, and each direction's
grid knots as integers over one denominator.

A refinement changes only the domains and adds at most one level, so what
a build derives from a level travels with it in ``LevelMesh.kept``.  Its
``LevelData``, made once: the ``Space``, the Bezier cells, the H functions
and HE elements, each made on first use, and maps onto the grid, made again
only when the finest level changes.  The prefix of the domain that a build
has seen, and the domain masks: as booleans, which functions and cells of
the level and of the one below lie inside that prefix.  Domains only grow,
so a build tests only the objects outside the masks whose boxes meet a
rectangle it has not seen, none on a level with no new rectangle, and it
checks every domain.  Subdividing a level reads its cells from the same data.

A coarse function is represented on a finer level by the fine functions'
dual functionals, blossoms of its pieces (``basis.blossom``), and each
representation is checked at sample points.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from fractions import Fraction

import numpy as np

from .basis import GlobalKnots, Space, blossom, bspline_eval, greville_rows
from .tmesh import MeshStructureError, TMesh


@dataclass(frozen=True)
class LevelMesh:
    """One hierarchy level.  ``domain`` is a tuple of closed parametric
    rectangles (x1, x2, y1, y2) whose union must be a union of closures of
    the previous level's Bezier elements; None means the whole parametric
    square (level 1 only).

    ``kept`` is what a build derived from the level: its ``LevelData`` and
    a prefix of ``domain`` with the spans of its rectangles on the level's
    own knot lines.  It is no part of the level's value, and
    ``dataclasses.replace`` carries it to a level with a grown domain."""

    level: int
    mesh: TMesh
    hknots: GlobalKnots
    vknots: GlobalKnots
    domain: tuple | None = None
    kept: tuple | None = field(default=None, compare=False, repr=False)


# -- the knot-span grid and domain masks --------------------------------------


def span_grid(hknots, vknots):
    """Exact maps from the distinct horizontal and vertical knot values to
    their lines on the knot-span grid, numbered from 0 (global knots are
    non-decreasing, so first appearance is grid order)."""
    return tuple(
        {v: i for i, v in enumerate(dict.fromkeys(knots.values))} for knots in (hknots, vknots)
    )


def grid_lines(grid, hknots, vknots):
    """Grid line of each index line of the knots (slot 0 unused), on the
    ``span_grid`` of the same knots."""
    return tuple(
        np.array([0] + [g[v] for v in knots.values]) for g, knots in zip(grid, (hknots, vknots))
    )


def index_spans(rects, lines):
    """(n, 4) grid rectangles of index-line rectangles (x1, x2, y1, y2)."""
    r = np.array(rects, dtype=np.int64).reshape(-1, 4)
    hl, vl = lines
    return np.column_stack([hl[r[:, 0]], hl[r[:, 1]], vl[r[:, 2]], vl[r[:, 3]]])


def _rect_text(rect):
    return "(" + ", ".join(str(v) for v in rect) + ")"


def param_spans(grid, rects, level):
    """(n, 4) grid rectangles of level ``level``'s parametric rectangles on
    its ``span_grid``; each corner must be a knot of that level."""
    h, v = grid
    out = [[g.get(c, -1) for g, c in zip((h, h, v, v), rect)] for rect in rects]
    out = np.array(out, dtype=np.int64).reshape(-1, 4)
    on = (out >= 0).all(axis=1)
    if not on.all():
        raise MeshStructureError(
            f"level {level} domain rectangle {_rect_text(rects[int(np.argmin(on))])} "
            f"is off the level {level} knot grid"
        )
    return out


def summed_area(spans, grid):
    """Summed-area table of the union of grid rectangles: entry (a, b) counts
    the covered spans left of grid line a and below grid line b."""
    table = np.zeros((len(grid[0]), len(grid[1])), dtype=np.int64)
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


def bezier_cells(mesh, lines):
    """Positive-parametric-area cells of the extended mesh, as an (n, 4)
    array of index rects; ``lines`` maps the mesh's index lines to
    knot-span grid lines."""
    hl, vl = lines
    cells = mesh.extended().cell_rows
    keep = (hl[cells[:, 1]] > hl[cells[:, 0]]) & (vl[cells[:, 3]] > vl[cells[:, 2]])
    return cells[keep]


def subdivide_suitable(parent: LevelMesh):
    """Split every Bezier element of the parent into four congruent children
    and check the child mesh, as the module docstring says; returns the
    child level, at level+1 with an empty domain.  The parent's cells are
    those of its level data, made here if no build has kept it yet."""
    parent = _kept(parent)
    mesh = parent.mesh
    m, n, p, q = mesh.m, mesh.n, mesh.p, mesh.q
    ext = mesh.extended()
    mc = 2 * m - 2 * p - 1
    nc = 2 * n - 2 * q - 1
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
    vseg |= _runs_mask(vseg.shape, cx, ylo, yhi)
    hseg |= _runs_mask(hseg.T.shape, cy, xlo, xhi).T
    # a parent extension that ends inside the frame region, where no
    # T-junction may lie, is carried on to the boundary
    dp, dq = (p + 1) // 2, (q + 1) // 2
    hseg[1:dp] |= hseg[dp]
    hseg[mc - dp + 1 : mc] |= hseg[mc - dp]
    vseg[:, 1:dq] |= vseg[:, dq, None]
    vseg[:, nc - dq + 1 : nc] |= vseg[:, nc - dq, None]
    child = TMesh(mc, nc, p, q, hseg, vseg)
    bad = child.validate()
    if bad:
        raise MeshStructureError(f"subdivided mesh invalid: {bad[0]}")
    if not child.is_analysis_suitable()[0]:
        raise MeshStructureError("subdivided mesh is not analysis-suitable")
    return LevelMesh(parent.level + 1, child, chk, cvk, domain=())


def _runs_mask(shape, line, lo, hi):
    """Boolean array of ``shape`` that is True on [lo[k], hi[k]) of row
    line[k] for every k, where each lo[k] < hi[k]."""
    step = np.zeros((shape[0], shape[1] + 1), dtype=np.int64)
    np.add.at(step, (line, lo), 1)
    np.add.at(step, (line, hi), -1)
    return step.cumsum(axis=1)[:, :-1] > 0


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
    (``cells``).  ``grid`` numbers the level's distinct knots from 0 and
    ``lines`` maps its index lines onto those numbers.  ``on(top)`` maps all
    of it onto the knot-span grid of the finest level ``top``, which holds
    every knot of the level once the build has checked that each level's
    knots are knots of the next, and keeps the last map, so it is
    recomputed only when the finest level changes, which ``top.grid``
    identifies."""

    def __init__(self, mesh, hknots, vknots):
        self.mesh, self.hknots, self.vknots = mesh, hknots, vknots
        self.space = Space(mesh, hknots, vknots)
        self.grid = span_grid(hknots, vknots)
        self.lines = grid_lines(self.grid, hknots, vknots)
        self.cells = bezier_cells(mesh, self.lines)
        # the supports, then the cells, by lower edge: every map onto a grid keeps this order
        lower = np.concatenate([self.space.v_indices[:, 0], self.cells[:, 2]])
        self.order = np.argsort(lower, kind="stable")
        # the grid of the finest level of the last map, and of the next
        # level this level's knots were checked against: a grid holds no
        # level data, so these form no reference cycle
        self._grid = self.nested_grid = None
        self._on, self._made = None, {}

    def of(self, lv):
        """Whether this is the data of the level's very mesh and knots."""
        return self.mesh is lv.mesh and self.hknots is lv.hknots and self.vknots is lv.vknots

    @cached_property
    def numerators(self):
        """Each direction's grid knots as integers over one denominator,
        the distinct values of ``GlobalKnots.numerators``."""
        return tuple(
            list(dict.fromkeys(k.numerators[1:].tolist())) for k in (self.hknots, self.vknots)
        )

    def on(self, top):
        """This level on the grid of ``top``: the grid line of each own
        distinct knot, the grid lines of the local knot vectors, and the
        support boxes followed by the cell boxes as a ``_grow`` family, all
        read-only."""
        if self._grid is not top.grid:
            to = tuple(
                np.array([g[v] for v in own], dtype=np.int64) for g, own in zip(top.grid, self.grid)
            )
            hl, vl = (t[ls] for t, ls in zip(to, self.lines))
            h, v = hl[self.space.h_indices], vl[self.space.v_indices]
            supports = np.column_stack([h[:, 0], h[:, -1], v[:, 0], v[:, -1]])
            boxes = np.concatenate([supports, index_spans(self.cells, (hl, vl))])
            for a in (h, v, boxes):
                a.flags.writeable = False
            family = (boxes, self.order, boxes[self.order, 2], (boxes[:, 3] - boxes[:, 2]).max())
            self._grid, self._on = top.grid, (to, (h, v), family)
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
    mesh and knots, else new data and no domain on record."""
    if lv.kept is not None and lv.kept[0].of(lv):
        return lv
    return replace(lv, kept=(LevelData(lv.mesh, lv.hknots, lv.vknots), (), _NO_SPANS, None, None))


_NO_SPANS = np.zeros((0, 4), dtype=np.int64)


def _domain_spans(lv, below):
    """Spans of the level's domain rectangles on its own knot lines, the
    number past the prefix on record, which alone are converted, and the
    masks on record if they were made against the level data ``below``."""
    data, seen, spans, was, masks = lv.kept
    if lv.domain[: len(seen)] != seen or was is not below:
        seen, spans, masks = (), _NO_SPANS, None
    if len(seen) == len(lv.domain):
        return spans, 0, masks
    new = param_spans(data.grid, lv.domain[len(seen) :], lv.level)
    return np.concatenate([spans, new]), len(new), masks


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
    """The hierarchical basis H and element set HE over nested levels."""

    def __init__(self, levels):
        levels = tuple(levels)
        if not levels:
            raise MeshStructureError("hierarchy needs at least one level")
        for a, b in zip(levels, levels[1:]):
            if b.level != a.level + 1:
                raise MeshStructureError("levels must be consecutively numbered")
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
        grid = top.grid
        for a, b in zip(data, data[1:]):
            if a.nested_grid is not b.grid:
                for own, nxt in zip(a.grid, b.grid):
                    lost = next((v for v in own if v not in nxt), None)
                    if lost is not None:
                        raise MeshStructureError(
                            f"knot {lost} of a level is not a knot of the next level"
                        )
                a.nested_grid = b.grid
        # so every level's knots are knots of the finest level
        to, fn_lines, families = zip(*(d.on(top) for d in data))
        boxes = [f[0] for f in families]
        nf = [len(d.space.functions) for d in data]
        on = [np.ones(len(boxes[0]), dtype=bool)]
        recorded = [levels[0]]
        for k in range(1, len(levels)):
            lv = levels[k]
            own, new, masks = _domain_spans(lv, data[k - 1])
            rects = index_spans(own, to[k])
            table = summed_area(rects, grid)
            # which level-(k-1) and level-k functions and cells lie inside Ω^k;
            # with none on record, those inside no domain
            if masks is None:
                masks = tuple((b[:, 0] == b[:, 1]) | (b[:, 2] == b[:, 3]) for b in boxes[k - 1 : k + 1])
            if new:
                pairs = zip(masks, families[k - 1 : k + 1])
                masks = tuple(_grow(m, f, rects[-new:], table) for m, f in pairs)
            record = (data[k], lv.domain, own, data[k - 1], masks)
            same = all(a is b for a, b in zip(record, lv.kept))
            recorded.append(lv if same else replace(lv, kept=record))
            # the domain must be the union of the level-k elements of Ω^k it contains
            inside = boxes[k - 1][nf[k - 1] :][(masks[0] & on[k - 1])[nf[k - 1] :]]
            area = ((inside[:, 1] - inside[:, 0]) * (inside[:, 3] - inside[:, 2])).sum()
            if table[-1, -1] != area:
                bad = lv.domain[int(np.argmin(in_domain(rects, summed_area(inside, grid))))]
                raise MeshStructureError(
                    f"level {k + 1} domain rectangle {_rect_text(bad)} is not a union of "
                    f"level {k} element closures inside the level {k} domain"
                )
            on[k - 1] = on[k - 1] & ~masks[0]
            on.append(masks[1])
        self.levels = tuple(recorded)
        made = [d.made(k + 1, o) for k, (d, o) in enumerate(zip(data, on))]
        count = [int(o[:n].sum()) for o, n in zip(on, nf)]
        self.functions = tuple(x for objs, c in zip(made, count) for x in objs[:c])
        self.elements = tuple(x for objs, c in zip(made, count) for x in objs[c:])
        self.n_f = len(self.functions)
        self.n_e = len(self.elements)
        # integer location data in canonical order, on a grid of
        # ``grid_shape`` lines per direction with ``grid_numerators`` as knots
        self.grid_shape = tuple(len(g) for g in grid)
        self.grid_numerators = top.numerators
        self.knot_lines = tuple(
            np.concatenate([fl[d][o[:n]] for fl, o, n in zip(fn_lines, on, nf)]) for d in (0, 1)
        )
        self.function_boxes = np.concatenate([b[:n][o[:n]] for b, o, n in zip(boxes, on, nf)])
        self.element_boxes = np.concatenate([b[n:][o[n:]] for b, o, n in zip(boxes, on, nf)])
        self.geometry_boxes = boxes[0][: nf[0]]
        self.geometry_lines = fn_lines[0]

    def _param_rect(self, k, rect):
        x1, x2, y1, y2 = rect
        lv = self.levels[k]
        return (lv.hknots[x1], lv.hknots[x2], lv.vknots[y1], lv.vknots[y2])

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
    support meets the coarse support are asked; the result is checked at
    sample points."""
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
    _verify_representation(hvals, vvals, p, q, fine, out)
    return out


def _verify_representation(hvals, vvals, p, q, fine, coeffs, tol=1e-10, samples=20):
    rng = np.random.default_rng(12345)
    s, t = rng.random((samples, 2)).T
    ref = bspline_eval(hvals, p, s) * bspline_eval(vvals, q, t)
    # each distinct local knot vector is evaluated once per direction
    h = cache(lambda lines: bspline_eval(fine.hknots.take(lines), p, s))
    v = cache(lambda lines: bspline_eval(fine.vknots.take(lines), q, t))
    got = np.zeros(samples)
    for f, c in coeffs.items():
        got += float(c) * (h(f.h_indices) * v(f.v_indices))
    err = np.abs(ref - got)
    if (err > tol).any():
        k = int(np.argmax(err > tol))
        raise MeshStructureError(
            f"nesting violated: representation residual {err[k]:.3e} at ({s[k]}, {t[k]})"
        )


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
    additions = defaultdict(list)
    for el in marked:
        additions[el.level + 1].append(el.param_rect)
    for tgt in sorted(additions):
        if tgt > max_levels:
            raise MeshStructureError(f"refinement would exceed the level cap {max_levels}")
        if tgt > len(levels):
            levels.append(subdivide_suitable(levels[-1]))
        lv = levels[tgt - 1]
        # an active element never lies in the next level's domain, so every
        # marked rectangle is new there
        new_rects = tuple(dict.fromkeys(additions[tgt]))
        levels[tgt - 1] = replace(lv, domain=tuple(lv.domain) + new_rects)
    return HierarchicalSpace(levels)
