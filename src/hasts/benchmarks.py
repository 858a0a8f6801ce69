"""Benchmark problems and initial spaces for the adaptive solver.

The skew-advection benchmark transports a discontinuous inflow profile at 45
degrees across the unit square with small diffusivity, producing an interior
layer along y = x + 0.2 and outflow boundary layers at x = 1 and y = 1.

The problem factories import the solver (``hasts.iga``, and scipy with it)
when they are called, so building a start space here loads neither.
"""

from __future__ import annotations

from math import cos, hypot, pi, sin

from .basis import GlobalKnots
from .hierarchy import HierarchicalSpace, LevelMesh, check_level_points
from .samples import tensor_mesh
from .tmesh import MeshStructureError

SKEW_ANGLE = pi / 4
SKEW_SPLIT = 0.2  # inflow jump position on the x=0 edge


def tensor_space(num_elements, p, q=None):
    """Hierarchical space over a plain tensor-product start, whose index
    grid must be within the level budget."""
    q = p if q is None else q
    check_level_points("level 1", num_elements + 2 * p + 1, num_elements + 2 * q + 1)
    mesh = tensor_mesh(num_elements, num_elements, p, q)
    return HierarchicalSpace(
        [
            LevelMesh(
                1,
                mesh,
                GlobalKnots.uniform_open(mesh.m, p),
                GlobalKnots.uniform_open(mesh.n, q),
            )
        ]
    )


def skew45_problem(kappa=1e-6):
    """Advection at 45 degrees, discontinuous Dirichlet inflow data."""
    from .iga import Problem

    c = cos(SKEW_ANGLE)
    s = sin(SKEW_ANGLE)

    def g(x, y):
        if y <= 1e-12:
            return 1.0
        if x <= 1e-12 and y <= SKEW_SPLIT:
            return 1.0
        return 0.0

    return Problem((c, s), kappa, g)


def _seg_dist(px, py, ax, ay, bx, by):
    vx, vy = bx - ax, by - ay
    t = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / (vx * vx + vy * vy)))
    return hypot(px - ax - t * vx, py - ay - t * vy)

def skew45_layer_distance(x, y):
    """Distance to the nearest sharp feature of the skew benchmark solution:
    the interior layer from (0, 0.2) to (0.8, 1) or an outflow boundary."""
    interior = _seg_dist(x, y, 0.0, SKEW_SPLIT, 1.0 - SKEW_SPLIT, 1.0)
    return min(interior, 1.0 - x, 1.0 - y)


def skew45_rect_layer_distance(rect):
    """Exact distance from a closed parametric rectangle to the nearest sharp
    feature of the skew benchmark solution (interior layer segment or an
    outflow edge); 0 if the layer crosses the rectangle."""
    s1, s2, t1, t2 = (float(v) for v in rect)
    ax, ay, bx, by = 0.0, SKEW_SPLIT, 1.0 - SKEW_SPLIT, 1.0
    outflow = min(max(0.0, 1.0 - s2), max(0.0, 1.0 - t2))
    # the segment is monotone increasing, so it crosses the rectangle iff the
    # line y = x + SKEW_SPLIT does and the parameter ranges overlap
    if (
        t1 - s2 <= SKEW_SPLIT <= t2 - s1
        and s2 >= ax and s1 <= bx and t2 >= ay and t1 <= by
    ):
        return 0.0
    # non-intersecting: the minimum is attained at a rectangle corner or at a
    # segment endpoint (axis-aligned edges are never parallel to the segment)
    corners = ((s1, t1), (s1, t2), (s2, t1), (s2, t2))
    interior = min(_seg_dist(x, y, ax, ay, bx, by) for x, y in corners)
    for ex, ey in ((ax, ay), (bx, by)):
        dx = max(s1 - ex, 0.0) if ex < s1 else max(ex - s2, 0.0)
        dy = max(t1 - ey, 0.0) if ey < t1 else max(ey - t2, 0.0)
        interior = min(interior, hypot(dx, dy))
    return min(interior, outflow)


def manufactured_problem(kappa=1.0):
    """Sinusoidal manufactured solution with 45-degree advection; returns
    (Problem, exact solution)."""
    from .iga import Problem

    c = cos(SKEW_ANGLE)

    def exact(x, y):
        return sin(pi * x) * sin(pi * y)

    def source(x, y):
        return (
            c * pi * cos(pi * x) * sin(pi * y)
            + c * pi * sin(pi * x) * cos(pi * y)
            + kappa * 2 * pi * pi * sin(pi * x) * sin(pi * y)
        )

    return Problem((c, c), kappa, lambda x, y: 0.0, source=source), exact


def benchmark_problem(name, kappa=None):
    if name == "skew45":
        return skew45_problem(1e-6 if kappa is None else kappa)
    if name == "manufactured":
        prob, _ = manufactured_problem(1.0 if kappa is None else kappa)
        return prob
    raise MeshStructureError(f"unknown benchmark {name!r}")
