"""Text serialization for T-meshes, knot vectors, and hierarchies.

The mesh format is line-oriented: a header with m n p q, the two global knot
vectors as decimal text (shortest binary64 round-trip), or as exact
rationals a/b where a knot is no binary64 value, so save/load is exact, the
canonical vertex list, and the minimal edge list as vertex index pairs.
Hierarchies add per-level domain rectangles as exact rationals; they may
span several previous-level elements and overlap, and the reader turns them
into the set of those elements.  A dump writes one rectangle per element in
cell order, so only a file in that form re-dumps byte for byte.  Blank lines
and lines starting with ``#`` are skipped; the first other line names the
format (``parse_levels``).
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from .basis import GlobalKnots, minimal_edges
from .hierarchy import LevelMesh, bezier_cells, check_level_points, in_domain, index_spans, summed_area
from .tmesh import MeshStructureError, TMesh

MESH_MAGIC = "hasts-tmesh 1"
HIER_MAGIC = "hasts-hierarchy 1"


class ParseError(MeshStructureError):
    """Unreadable input file; carries a line number for diagnostics."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


def fmt(x):
    """Decimal text for one float at 17 significant digits (lossless)."""
    return repr(float(x))


def _knot_text(values):
    return " ".join(fmt(v) if Fraction(float(v)) == v else _frac_text(v) for v in values)


def _parse_knot(tok, line):
    try:
        return _parse_frac(tok, line) if "/" in tok else Fraction(float(tok))
    except (ValueError, OverflowError):
        raise ParseError(line, f"bad knot value {tok!r}") from None


class _Reader:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self):
        while self.pos < len(self.lines):
            raw = self.lines[self.pos]
            self.pos += 1
            s = raw.strip()
            if s and not s.startswith("#"):
                return self.pos, s
        raise ParseError(self.pos, "unexpected end of file")

    def ints(self, count, what):
        ln, s = self.next()
        toks = s.split()
        if len(toks) != count:
            raise ParseError(ln, f"expected {count} integers for {what}, got {len(toks)}")
        try:
            return ln, [int(t) for t in toks]
        except ValueError:
            raise ParseError(ln, f"non-integer token in {what}") from None

    def rows(self, rows, count, what):
        """The next ``rows`` significant lines of ``count`` integers each, in
        one flat int64 array if they are plain lines as a dump writes them,
        else read one by one by ``ints``, with its errors, into a list."""
        block = self.lines[self.pos : self.pos + rows]
        plain = " ".join(["[0-9]{1,18}"] * count)  # at most 18 digits, so within int64
        if len(block) == rows and re.fullmatch(f"(?:{plain}\n)*", "\n".join(block) + "\n"):
            self.pos += rows
            return np.fromstring(" ".join(block), dtype=np.int64, sep=" ")
        return [v for _ in range(rows) for v in self.ints(count, what)[1]]


def dump_mesh(mesh, hknots, vknots):
    """Mesh text: the canonical vertices, sorted, and the minimal edges as
    sorted canonical-vertex pairs, each section formatted as one block."""
    h, v = (np.array(minimal_edges(mesh, axis), dtype=np.int64).reshape(-1, 3) for axis in "hv")
    edges = np.concatenate([h[:, [0, 2, 1, 2]], v[:, [0, 1, 0, 2]]])
    out = [MESH_MAGIC, f"{mesh.m} {mesh.n} {mesh.p} {mesh.q}"]
    out += ["hknots " + _knot_text(hknots.values), "vknots " + _knot_text(vknots.values)]
    for name, rows in (("vertices", np.argwhere(mesh.vertex_mask)), ("edges", edges[np.lexsort(edges.T[::-1])])):
        out.append(f"{name} {len(rows)}")
        if len(rows):
            out.append("\n".join([" ".join(["%d"] * rows.shape[1])] * len(rows)) % tuple(rows.ravel().tolist()))
    return "\n".join(out) + "\n"


def parse_mesh(text):
    r = _Reader(text)
    ln, s = r.next()
    if s != MESH_MAGIC:
        raise ParseError(ln, f"bad header {s!r}, expected {MESH_MAGIC!r}")
    return _read_mesh(r)


def _read_mesh(r):
    """The mesh section after its magic line: (TMesh, hknots, vknots)."""
    ln, (m, n, p, q) = r.ints(4, "header")
    if m < 2 or n < 2:
        raise ParseError(ln, f"bad dimensions m={m} n={n}")
    check_level_points(f"line {ln}: the mesh", m, n)
    hknots = _read_knots(r, "hknots", m, p)
    vknots = _read_knots(r, "vknots", n, q)
    _, (nv,) = _kw_int(r, "vertices")
    verts = r.rows(nv, 2, "vertex")
    _, (ne,) = _kw_int(r, "edges")
    edges = r.rows(ne, 4, "edge")
    return TMesh.from_vertices_edges(m, n, p, q, verts, edges), hknots, vknots


def _read_knots(r, kw, count, degree):
    ln, s = r.next()
    toks = s.split()
    if not toks or toks[0] != kw:
        raise ParseError(ln, f"expected {kw!r} line")
    if len(toks) - 1 != count:
        raise ParseError(ln, f"expected {count} knots, got {len(toks) - 1}")
    vals = [_parse_knot(t, ln) for t in toks[1:]]
    try:
        return GlobalKnots(vals, degree)
    except MeshStructureError as exc:
        raise ParseError(ln, str(exc)) from None


def _kw_int(r, kw):
    ln, s = r.next()
    toks = s.split()
    if len(toks) != 2 or toks[0] != kw:
        raise ParseError(ln, f"expected '{kw} <count>' line")
    try:
        return ln, [int(toks[1])]
    except ValueError:
        raise ParseError(ln, f"bad count in {kw}") from None


# -- hierarchy serialization --------------------------------------------------


def _frac_text(v):
    v = Fraction(v)
    return f"{v.numerator}/{v.denominator}"


def _parse_frac(tok, ln):
    try:
        if "/" in tok:
            a, b = tok.split("/")
            return Fraction(int(a), int(b))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError):
        raise ParseError(ln, f"bad rational {tok!r}") from None


def dump_hierarchy(levels):
    """Serialize a list of LevelMesh records (see hierarchy module): each
    domain element as its rectangle on the previous level's knots."""
    out = [HIER_MAGIC, f"levels {len(levels)}"]
    for k, lv in enumerate(levels):
        out.append(f"level {lv.level}")
        out.append(dump_mesh(lv.mesh, lv.hknots, lv.vknots).rstrip("\n"))
        cells = sorted(lv.domain) if k else []
        out.append(f"domain {len(cells)}")
        hk, vk = levels[k - 1].hknots, levels[k - 1].vknots
        out.extend(" ".join(_frac_text(v) for v in (hk[a], hk[b], vk[c], vk[d])) for a, b, c, d in cells)
    return "\n".join(out) + "\n"


def parse_levels(text):
    """The levels of a hierarchy file, or the one level of a mesh file, as its first significant line says."""
    if _Reader(text).next()[1] == HIER_MAGIC:
        return parse_hierarchy(text)
    return [LevelMesh(1, *parse_mesh(text))]


def parse_hierarchy(text):
    r = _Reader(text)
    ln, s = r.next()
    if s != HIER_MAGIC:
        raise ParseError(ln, f"bad header {s!r}, expected {HIER_MAGIC!r}")
    _, (nlev,) = _kw_int(r, "levels")
    levels = []
    for k in range(nlev):
        ln, s = r.next()
        toks = s.split()
        if len(toks) != 2 or toks[0] != "level" or int(toks[1]) != k + 1:
            raise ParseError(ln, f"expected 'level {k + 1}'")
        ln2, s2 = r.next()
        if s2 != MESH_MAGIC:
            raise ParseError(ln2, "expected embedded mesh section")
        mesh, hknots, vknots = _read_mesh(r)
        ln, (nr,) = _kw_int(r, "domain")
        if k == 0 and nr:
            raise ParseError(ln, "level 1 covers the whole parametric square and takes no domain rectangles")
        rects = []
        for _ in range(nr):
            ln3, s3 = r.next()
            toks = s3.split()
            if len(toks) != 4:
                raise ParseError(ln3, "expected 4 rationals for domain rectangle")
            rects.append(tuple(_parse_frac(t, ln3) for t in toks))
        levels.append((mesh, hknots, vknots, rects))
    return _element_domains(levels)


def _element_domains(levels):
    """LevelMesh records of parsed levels (mesh, hknots, vknots, domain
    rectangles): the rectangles of level k+1, on the knot grid of level k,
    become the level-k elements they cover, and must be their union.  That
    the levels and their domains nest is for ``HierarchicalSpace`` to check."""
    out = [LevelMesh(1, mesh, hk, vk) for mesh, hk, vk, _ in levels[:1]]
    for k, ((mesh, hk, vk, _), (*child, rects)) in enumerate(zip(levels, levels[1:]), 1):
        grid, shape = (hk.grid, vk.grid), (len(hk.grid), len(vk.grid))
        cells = bezier_cells(mesh, hk, vk)
        boxes = index_spans(cells, (hk.lines, vk.lines))
        spans = np.array([[grid[i // 2].get(c, -1) for i, c in enumerate(r)] for r in rects]).reshape(-1, 4)
        off = (spans < 0).any(axis=1)
        take = in_domain(boxes, summed_area(spans[~off], shape))
        bad = off | ~in_domain(spans, summed_area(boxes[take], shape))
        if bad.any():
            rect = ", ".join(map(str, rects[bad.argmax()]))
            why = f"is not a union of level {k} element closures"
            raise MeshStructureError(f"level {k + 1} domain rectangle ({rect}) {why}")
        out.append(LevelMesh(k + 1, *child, frozenset(map(tuple, cells[take].tolist()))))
    return out
