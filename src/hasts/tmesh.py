"""T-mesh topology in the integer index domain.

A T-mesh partitions the index rectangle [1,m] x [1,n] into open axis-aligned
cells.  Interior vertices have valence 3 (T-junctions) or 4.  All geometric
predicates here (extensions, intersections) are exact integer
arithmetic; no floating point enters the topology layer.

The skeleton is stored as two boolean arrays of unit segments, and the
rest is derived from them lazily.  One incidence (``TMesh.incidence``:
whether a segment leaves each index point left, right, down and up, and
how many do) gives the canonical vertices as a mask (``vertex_mask``), the
T-junctions with their missing direction, the valence findings of
``validate`` and the points where an extension trace meets a perpendicular
edge or a vertex.  Cells are the connected components of the unit cells,
labelled in numpy alone by hooking roots onto smaller roots across the
open adjacencies and jumping pointers; their bounding boxes and sizes stay
arrays, from which ``validate`` reads non-rectangular components and the
area sum.  The module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MISSING_LEFT = "missing-left"
MISSING_RIGHT = "missing-right"
MISSING_UP = "missing-up"
MISSING_DOWN = "missing-down"
# the missing edge of a T-junction, by the direction of ``TMesh.incidence``
_MISSING = (MISSING_LEFT, MISSING_RIGHT, MISSING_DOWN, MISSING_UP)


def _points(mask, offset=0):
    """The true points of a mask as (x, y) pairs of ints, in (x, y) order;
    the mask's first entry is the point (offset, offset)."""
    xs, ys = np.nonzero(mask)
    return list(zip((xs + offset).tolist(), (ys + offset).tolist()))


def runs_mask(shape, line, lo, hi):
    """Boolean array of ``shape`` that is True on [lo[k], hi[k]) of row
    line[k] for every k, where each lo[k] < hi[k]."""
    step = np.zeros((shape[0], shape[1] + 1), dtype=np.int64)
    np.add.at(step, (line, lo), 1)
    np.add.at(step, (line, hi), -1)
    return step.cumsum(axis=1)[:, :-1] > 0


def _areas(boxes):
    """Areas in unit cells of (k, 4) index boxes (x1, x2, y1, y2)."""
    return (boxes[:, 1] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 2])


class MeshStructureError(Exception):
    """Structurally unreadable mesh input (distinct from a validation finding)."""


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple
    detail: str = ""

    def __str__(self):
        return f"{self.kind} at {self.where}: {self.detail}"


@dataclass(frozen=True)
class TJunction:
    x: int
    y: int
    missing: str

    @property
    def horizontal(self):
        """A T-junction whose absent edge (and hence extension) is horizontal."""
        return self.missing in (MISSING_LEFT, MISSING_RIGHT)


@dataclass(frozen=True)
class Extension:
    """Face + edge extension of one T-junction, as closed integer segments.

    ``line`` is the fixed coordinate; the face segment is [face_lo, face_hi]
    and the edge segment [edge_lo, edge_hi] along the free axis.  ``axis`` is
    'h' for horizontal segments (fixed y) and 'v' for vertical ones.
    """

    junction: TJunction
    axis: str
    line: int
    face_lo: int
    face_hi: int
    edge_lo: int
    edge_hi: int

    @property
    def lo(self):
        return min(self.face_lo, self.edge_lo)

    @property
    def hi(self):
        return max(self.face_hi, self.edge_hi)

    def intersects(self, other):
        """Closed-segment intersection between one horizontal and one vertical extension."""
        if self.axis == other.axis:
            return False
        h, v = (self, other) if self.axis == "h" else (other, self)
        return h.lo <= v.line <= h.hi and v.lo <= h.line <= v.hi


class TMesh:
    """Immutable T-mesh over the index domain [1,m] x [1,n] with degrees (p,q).

    hseg[i, j] is the unit segment [i,i+1] x {j}; vseg[i, j] is {i} x [j,j+1].
    Arrays are 1-indexed with shape (m+1, n+1); out-of-range slots stay False.
    """

    def __init__(self, m, n, p, q, hseg, vseg, declared=None):
        if p < 1 or q < 1:
            raise MeshStructureError(f"degrees must be >= 1, got p={p}, q={q}")
        if m < p + 2 or n < q + 2:
            raise MeshStructureError(
                f"index domain {m}x{n} too small for degrees ({p},{q})"
            )
        self.m, self.n, self.p, self.q = m, n, p, q
        hseg = np.asarray(hseg, dtype=bool)
        vseg = np.asarray(vseg, dtype=bool)
        if hseg.shape != (m + 1, n + 1) or vseg.shape != (m + 1, n + 1):
            raise MeshStructureError("segment array shape mismatch")
        if hseg[0, :].any() or hseg[m:, :].any() or hseg[:, 0].any():
            raise MeshStructureError("horizontal segment out of index range")
        if vseg[0, :].any() or vseg[:, 0].any() or vseg[:, n:].any():
            raise MeshStructureError("vertical segment out of index range")
        for a in (hseg, vseg, declared):
            if a is not None:
                a.flags.writeable = False
        self.hseg = hseg
        self.vseg = vseg
        self.declared = declared  # points given as vertices, an (m+1, n+1) mask

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_vertices_edges(cls, m, n, p, q, vertices, edges):
        """Build from vertex rows (x, y) and axis-aligned edges, as rows
        (x1, y1, x2, y2) or vertex pairs.  A vertex outside the index domain
        and an edge with an endpoint not in the vertex list (dangling) or
        that is not axis-aligned are hard errors, not validation findings;
        the first in order is named."""
        rows = ((vertices, 2), (edges, 4))
        try:  # a coordinate past int64 lies outside any index domain
            v, e = (np.array(a if isinstance(a, np.ndarray) else [*a], np.int64).reshape(-1, k) for a, k in rows)
        except OverflowError:
            raise MeshStructureError("a vertex or edge endpoint lies outside the index domain") from None
        out = (v < 1).any(axis=1) | (v[:, 0] > m) | (v[:, 1] > n)
        if out.any():
            raise MeshStructureError(f"vertex {tuple(v[out.argmax()].tolist())} outside index domain")
        declared = np.zeros((m + 2, n + 2), dtype=bool)  # a frame of points off the index domain
        declared[v[:, 0], v[:, 1]] = True
        x, y = e[:, 0::2], e[:, 1::2]
        dangling = ~declared[x.clip(0, m + 1), y.clip(0, n + 1)].all(axis=1)
        along = (y[:, 0] == y[:, 1]) & (x[:, 0] != x[:, 1])
        bad = dangling | ~along & ((x[:, 0] != x[:, 1]) | (y[:, 0] == y[:, 1]))
        if bad.any():
            k = int(bad.argmax())
            why = "has dangling endpoint" if dangling[k] else "is not axis-aligned"
            raise MeshStructureError(f"edge {tuple(map(tuple, e[k].reshape(2, 2).tolist()))} {why}")
        x, y = np.sort(x, axis=1), np.sort(y, axis=1)
        hseg = runs_mask((n + 1, m + 1), y[along, 0], x[along, 0], x[along, 1]).T
        vseg = runs_mask((m + 1, n + 1), x[~along, 0], y[~along, 0], y[~along, 1])
        return cls(m, n, p, q, hseg, vseg, declared[: m + 1, : n + 1])

    @classmethod
    def tensor_grid(cls, m, n, p, q):
        hseg = np.zeros((m + 1, n + 1), dtype=bool)
        vseg = np.zeros((m + 1, n + 1), dtype=bool)
        hseg[1:m, 1 : n + 1] = True
        vseg[1 : m + 1, 1:n] = True
        return cls(m, n, p, q, hseg, vseg)

    def without_segments(self, hsegs=(), vsegs=()):
        hseg = self.hseg.copy()
        vseg = self.vseg.copy()
        for i, j in hsegs:
            hseg[i, j] = False
        for i, j in vsegs:
            vseg[i, j] = False
        return TMesh(self.m, self.n, self.p, self.q, hseg, vseg)

    # -- identity -------------------------------------------------------------

    def key(self):
        return (self.m, self.n, self.p, self.q, self.hseg.tobytes(), self.vseg.tobytes())

    def __eq__(self, other):
        return isinstance(other, TMesh) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (
            f"TMesh(m={self.m}, n={self.n}, p={self.p}, q={self.q}, "
            f"{int(self.hseg.sum())} hsegs, {int(self.vseg.sum())} vsegs)"
        )

    # -- incidence and vertices -----------------------------------------------

    @cached_property
    def incidence(self):
        """(left, right, down, up, valence): whether a unit segment leaves
        each index point (x, y) in that direction, as (m+1, n+1) boolean
        arrays, and their int8 sum."""
        left = np.zeros_like(self.hseg)
        left[1:, :] = self.hseg[:-1, :]
        down = np.zeros_like(self.vseg)
        down[:, 1:] = self.vseg[:, :-1]
        valence = left.astype(np.int8) + self.hseg + down + self.vseg
        for a in (left, down, valence):
            a.flags.writeable = False
        return left, self.hseg, down, self.vseg, valence

    @cached_property
    def vertex_mask(self):
        """Canonical vertices as an (m+1, n+1) boolean mask: the points where
        the skeleton branches, crosses, turns or terminates, the domain
        corners and any declared vertices.  Straight-through points of a
        long edge are not vertices."""
        left, right, down, up, valence = self.incidence
        mask = (valence > 0) & ~((valence == 2) & ((left & right) | (down & up)))
        mask[[1, 1, self.m, self.m], [1, self.n, 1, self.n]] = True
        if self.declared is not None:
            mask |= self.declared
        mask.flags.writeable = False
        return mask

    @cached_property
    def canonical_vertices(self):
        """The points of ``vertex_mask`` as a frozenset of (x, y)."""
        return frozenset(_points(self.vertex_mask))

    # -- cells ----------------------------------------------------------------

    @cached_property
    def _cell_labels(self):
        """Connected-component labels of the (m-1) x (n-1) unit-cell grid,
        numbered in the order of each component's first unit cell in
        row-major order.

        Every cell starts as its own root.  Each round hooks every root
        that an open adjacency joins to a smaller root onto the smallest
        such root, then jumps pointers until each cell points at its root;
        the rounds end when no open adjacency joins two roots.  A root only
        ever hooks onto a smaller one, so each component's root is its
        first cell."""
        mu, nu = self.m - 1, self.n - 1
        idx = np.arange(mu * nu).reshape(mu, nu)
        # unit cell (i, j) <-> grid slot [i-1, j-1]
        open_right = ~self.vseg[2 : self.m, 1 : self.n]          # (mu-1, nu)
        open_up = ~self.hseg[1 : self.m, 2 : self.n]             # (mu, nu-1)
        a = np.concatenate([idx[:-1, :][open_right], idx[:, :-1][open_up]])
        b = np.concatenate([idx[1:, :][open_right], idx[:, 1:][open_up]])
        root = idx.ravel().copy()
        while True:
            ra, rb = root[a], root[b]
            apart = ra != rb
            if not apart.any():
                break
            a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
            np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
            while True:
                up = root[root]
                if (up == root).all():
                    break
                root = up
        first = root == idx.ravel()
        number = np.cumsum(first) - 1
        return int(first.sum()), number[root].reshape(mu, nu)

    @cached_property
    def _cell_boxes(self):
        """Per component, in label order: its bounding box (x1, x2, y1, y2)
        in index lines as a (k, 4) array, and its size in unit cells."""
        ncomp, labels = self._cell_labels
        flat = labels.ravel()
        order = np.argsort(flat, kind="stable")
        # every label 0..ncomp-1 occurs, so the runs of the sorted labels start
        # at strictly increasing positions
        starts = np.searchsorted(flat[order], np.arange(ncomp))
        xs, ys = np.divmod(order, labels.shape[1])
        boxes = np.column_stack([
            np.minimum.reduceat(xs, starts) + 1,
            np.maximum.reduceat(xs, starts) + 2,
            np.minimum.reduceat(ys, starts) + 1,
            np.maximum.reduceat(ys, starts) + 2,
        ])
        return boxes, np.diff(starts, append=flat.size)

    @cached_property
    def cell_rows(self):
        """Cells as a read-only (k, 4) array of (x1, x2, y1, y2) open
        rectangles, sorted by row; components that fail to be rectangles are
        reported by validate(), not here."""
        boxes = self._cell_boxes[0]
        rows = boxes[np.lexsort(boxes.T[::-1])]
        rows.flags.writeable = False
        return rows

    @cached_property
    def cells(self):
        """``cell_rows`` as a list of tuples."""
        return list(map(tuple, self.cell_rows.tolist()))

    def cell_components_rectangular(self):
        """The lower-left corner (x1, y1) of the bounding box of each
        component that does not fill its bounding box."""
        boxes, sizes = self._cell_boxes
        bad = _areas(boxes) != sizes
        return list(zip(boxes[bad, 0].tolist(), boxes[bad, 2].tolist()))

    # -- regions --------------------------------------------------------------

    def region_split(self):
        """The active region [x1, x2] x [y1, y2] as (x1, x2, y1, y2); the
        frame region is its closed complement.  It is never empty, as
        m >= p + 2 >= 1 + 2 * ((p + 1) // 2), and likewise in n."""
        dp = (self.p + 1) // 2
        dq = (self.q + 1) // 2
        return 1 + dp, self.m - dp, 1 + dq, self.n - dq

    # -- validation -----------------------------------------------------------

    def validate(self):
        """Full invariant check; returns a list of violations (empty = valid)."""
        # cells must be rectangles
        report = []
        for where in self.cell_components_rectangular():
            report.append(Violation("non-rectangular-cell", where, "cell component is not a rectangle"))
        # interior vertex valence
        valence = self.incidence[4]
        for (x, y) in self._interior(self.vertex_mask & (valence != 3) & (valence != 4)):
            report.append(Violation("valence", (x, y), f"interior vertex has valence {valence[x, y]}"))
        # declared vertices must lie on the skeleton
        if self.declared is not None:
            for (x, y) in _points(self.declared & (valence == 0)):
                report.append(Violation("off-skeleton-vertex", (x, y), "declared vertex not on any edge"))
        # admissibility: no T-junction strictly inside the frame region, and
        # the frame-region skeleton, the domain boundary among it, is a full
        # tensor-product grid
        x1, x2, y1, y2 = self.region_split()
        for tj in self.t_junctions():
            if not (x1 <= tj.x <= x2 and y1 <= tj.y <= y2):
                report.append(Violation("frame-t-junction", (tj.x, tj.y), "T-junction inside frame region"))
        report.extend(self._check_frame_grid())
        # exact area accounting
        area = int(_areas(self._cell_boxes[0]).sum())
        if area != (self.m - 1) * (self.n - 1):
            report.append(Violation("area", (0, 0), f"cell areas sum to {area}, expected {(self.m - 1) * (self.n - 1)}"))
        return report

    def _check_frame_grid(self):
        """The repeated-knot boundary lines must be complete: the first and
        last p+1 vertical index lines span the full height, and the first and
        last q+1 horizontal lines the full width.  Together with the
        no-T-junction-in-FR rule this is the admissibility restriction we
        enforce; local-knot marching can then never run out of lines."""
        out = []
        zero_v = list(range(1, self.p + 2)) + list(range(self.m - self.p, self.m + 1))
        for i in zero_v:
            if not self.vseg[i, 1 : self.n].all():
                out.append(Violation("frame-grid", (i, 0), "incomplete repeated-knot vertical line"))
        zero_h = list(range(1, self.q + 2)) + list(range(self.n - self.q, self.n + 1))
        for j in zero_h:
            if not self.hseg[1 : self.m, j].all():
                out.append(Violation("frame-grid", (0, j), "incomplete repeated-knot horizontal line"))
        return out

    # -- T-junctions and extensions -------------------------------------------

    def _interior(self, mask):
        """The points of a mask strictly inside the domain, in (x, y) order."""
        return _points(mask[2 : self.m, 2 : self.n], 2)

    def t_junctions(self):
        """Interior points of valence 3 with the direction of their missing
        edge, in (x, y) order."""
        *dirs, valence = self.incidence
        return [
            TJunction(x, y, _MISSING[[d[x, y] for d in dirs].index(False)])
            for x, y in self._interior(valence == 3)
        ]

    @cached_property
    def _crossings(self):
        """Per axis ("h", "v"), where a trace along it meets a perpendicular
        edge or a vertex."""
        left, right, down, up, _ = self.incidence
        return {"h": down | up | self.vertex_mask, "v": left | right | self.vertex_mask}

    def _trace(self, x, y, axis, step, count):
        """The ``count``-th point from (x, y) along ``axis`` in direction
        ``step`` that meets a perpendicular edge or a vertex, clipped at the
        domain boundary."""
        if axis == "h":
            line, origin, limit = self._crossings["h"][:, y], x, self.m
        else:
            line, origin, limit = self._crossings["v"][x, :], y, self.n
        if count == 0:
            return origin
        ahead = np.flatnonzero(line[origin + 1 : limit + 1] if step > 0 else line[origin - 1 : 0 : -1])
        if len(ahead) < count:
            return limit if step > 0 else 1
        return origin + step * (int(ahead[count - 1]) + 1)

    def extension(self, tj):
        if tj.horizontal:
            axis, deg, origin = "h", self.p, tj.x
            sign = 1 if tj.missing == MISSING_RIGHT else -1
        else:
            axis, deg, origin = "v", self.q, tj.y
            sign = 1 if tj.missing == MISSING_UP else -1
        face_end = self._trace(tj.x, tj.y, axis, sign, (deg + 1) // 2)
        edge_end = self._trace(tj.x, tj.y, axis, -sign, (deg - 1 + 1) // 2)  # ceil((deg-1)/2)
        face_lo, face_hi = sorted((origin, face_end))
        edge_lo, edge_hi = sorted((origin, edge_end))
        line = tj.y if axis == "h" else tj.x
        return Extension(tj, axis, line, face_lo, face_hi, edge_lo, edge_hi)

    def extensions(self):
        return [self.extension(tj) for tj in self.t_junctions()]

    def is_analysis_suitable(self):
        """(bool, offending (horizontal, vertical) extension pairs)."""
        exts = self.extensions()
        hs = [e for e in exts if e.axis == "h"]
        vs = [e for e in exts if e.axis == "v"]
        bad = [(h, v) for h in hs for v in vs if h.intersects(v)]
        return (not bad, bad)

    def extended(self):
        """The extended T-mesh: all extension segments materialized as edges.
        Built once per mesh, which is immutable."""
        return self._extended

    @cached_property
    def _extended(self):
        hseg = self.hseg.copy()
        vseg = self.vseg.copy()
        for e in self.extensions():
            if e.axis == "h":
                hseg[e.lo : e.hi, e.line] = True
            else:
                vseg[e.line, e.lo : e.hi] = True
        return TMesh(self.m, self.n, self.p, self.q, hseg, vseg)
