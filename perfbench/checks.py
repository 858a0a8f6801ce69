"""Correctness checks computed apart from the program.

B-splines are evaluated with ``scipy.interpolate.BSpline.basis_element`` on
each function's local knot vector and Bernstein polynomials from their closed
form, so no check reuses the program's own evaluation code.  Each check
returns a list of messages; an empty list means the output passed.  The
checks take plain data (knot vectors, element keys) rather than the
program's objects, so a workload can drop an op's outputs right after the
op.  ``scipy.interpolate`` is imported on the first B-spline evaluation, so
the benchmark's set-up time and peak memory do not count it.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import comb, pi

import numpy as np

SKEW_SPLIT = 0.2  # inflow jump on x = 0; the interior layer is y = x + 0.2


def bspline(knots, x):
    """Univariate B-spline on a local knot vector, 0 outside its support."""
    from scipy.interpolate import BSpline

    b = BSpline.basis_element([float(v) for v in knots], extrapolate=False)
    return np.nan_to_num(b(np.asarray(x, dtype=float)), nan=0.0)


def bernstein(p, xi):
    """All p+1 Bernstein polynomials on [-1, 1] at the points xi, one row each."""
    u = (np.asarray(xi, dtype=float) + 1.0) / 2.0
    return np.array([comb(p, i) * u**i * (1.0 - u) ** (p - i) for i in range(p + 1)])


def function_knots(space):
    """Local knot vectors (h, v) of every active function, in global order."""
    knots = []
    for hf in space.functions:
        sp = space.spaces[hf.level - 1]
        knots.append((sp.h_values(hf.fn), sp.v_values(hf.fn)))
    return knots


def element_keys(elements):
    """(level, param_rect) of each element."""
    return [(e.level, e.param_rect) for e in elements]


def _open_overlap(a, b):
    return a[0] < b[1] and b[0] < a[1] and a[2] < b[3] and b[2] < a[3]


# -- extraction ----------------------------------------------------------------


def check_extraction(knots, elems, tol=1e-12):
    """Rows of C^e times the Bernstein basis reproduce each IEN function at
    4x4 Gauss points of the elements; ``elems`` maps element index to its
    extraction data, ``knots`` is ``function_knots`` of the space."""
    p, q = len(knots[0][0]) - 2, len(knots[0][1]) - 2
    g, _ = np.polynomial.legendre.leggauss(4)
    xi, eta = np.meshgrid(g, g, indexing="xy")
    xi, eta = xi.ravel(), eta.ravel()
    # bivariate numbering: xi index fastest, as (p+1)(j-1) + i
    bern = np.einsum("jk,ik->jik", bernstein(q, eta), bernstein(p, xi)).reshape(-1, len(xi))
    errs = []
    for k, ed in elems.items():
        s1, s2, t1, t2 = (float(v) for v in ed.param_rect)
        s = (s1 + s2) / 2 + xi * (s2 - s1) / 2
        t = (t1 + t2) / 2 + eta * (t2 - t1) / 2
        got = ed.C @ bern
        for r, a in enumerate(ed.ien):
            hv, vv = knots[a]
            worst = float(np.max(np.abs(got[r] - bspline(hv, s) * bspline(vv, t))))
            if not worst <= tol:
                errs.append(f"element {k}: C^e row {r} misses function {a} by {worst:.3e}")
    return errs


def check_ien(knots, elems):
    """IEN of each element is exactly the set of functions whose support
    meets the element interior, from exact knot values."""
    supports = [
        (Fraction(hv[0]), Fraction(hv[-1]), Fraction(vv[0]), Fraction(vv[-1])) for hv, vv in knots
    ]
    errs = []
    for k, ed in elems.items():
        rect = tuple(Fraction(v) for v in ed.param_rect)
        want = [a for a, sup in enumerate(supports) if _open_overlap(sup, rect)]
        if list(ed.ien) != want:
            errs.append(f"element {k}: IEN {list(ed.ien)} != supports {want}")
    return errs


def check_manufactured(knots, coeffs, pts, bound):
    """Max error of sum_a c_a N_a against sin(pi x) sin(pi y) at the points,
    on the identity geometry of the unit square."""
    s, t = pts[:, 0], pts[:, 1]
    uh = np.zeros(len(pts))
    for c, (hv, vv) in zip(coeffs, knots):
        uh += c * bspline(hv, s) * bspline(vv, t)
    err = float(np.max(np.abs(uh - np.sin(pi * s) * np.sin(pi * t))))
    return [] if err <= bound else [f"manufactured solution error {err:.3e} > {bound:g}"]


# -- refinement ----------------------------------------------------------------


def _area(rect):
    s1, s2, t1, t2 = (Fraction(v) for v in rect)
    return (s2 - s1) * (t2 - t1)


def check_refinement(before, after, marked):
    """n_e grows by 3 per marked element, the marked elements are gone, every
    new element is a child inside a marked closure, and the element areas sum
    to exactly 1; all three arguments are ``element_keys`` lists."""
    errs = []
    if len(after) != len(before) + 3 * len(marked):
        errs.append(f"n_e {len(after)} != {len(before)} + 3 * {len(marked)}")
    old, new, gone = set(before), set(after), set(marked)
    if old - new != gone:
        errs.append(f"removed elements {sorted(old - new)} != marked {sorted(gone)}")
    for lvl, (a1, a2, b1, b2) in new - old:
        if not any(
            lvl == m_lvl + 1 and m1 <= a1 and a2 <= m2 and n1 <= b1 and b2 <= n2
            for m_lvl, (m1, m2, n1, n2) in marked
        ):
            errs.append(f"new element {(lvl, (a1, a2, b1, b2))} is no child of a marked element")
    total = sum((_area(rect) for _, rect in after), Fraction(0))
    if total != 1:
        errs.append(f"element areas sum to {total}, not 1")
    return errs


def check_nesting(coarse_knots, fine_terms, pts, tol=1e-10):
    """A coarse function equals its fine-level representation sum c_f N_f at
    the points; knots are (h, v) local vectors, terms (coefficient, (h, v))."""
    s, t = pts[:, 0], pts[:, 1]
    ref = bspline(coarse_knots[0], s) * bspline(coarse_knots[1], t)
    got = np.zeros(len(pts))
    for c, (hv, vv) in fine_terms:
        got += float(c) * bspline(hv, s) * bspline(vv, t)
    worst = float(np.max(np.abs(ref - got)))
    return [] if worst <= tol else [f"fine representation misses the coarse function by {worst:.3e}"]


# -- adaptive solve output files ----------------------------------------------


def _rows(path):
    with open(path) as f:
        return [line.split() for line in f if line.strip() and not line.startswith("#")]


def check_history(rows, iterations):
    """rows: (iteration, n_f, n_e, total_estimate, marked) as parsed numbers."""
    errs = []
    if len(rows) != iterations:
        errs.append(f"history has {len(rows)} rows, not {iterations}")
    for a, b in zip(rows, rows[1:]):
        if not b[3] < a[3]:
            errs.append(f"total_estimate does not decrease at iteration {b[0]}")
        if b[2] != a[2] + 3 * a[4]:
            errs.append(f"n_e {b[2]} at iteration {b[0]} != {a[2]} + 3 * {a[4]} marked")
    return errs


def read_history(path):
    return [(int(r[0]), int(r[1]), int(r[2]), float(r[3]), int(r[4])) for r in _rows(path)]


def check_tiling(rects, n_e):
    """Element rectangles (s1, s2, t1, t2) tile the unit square: n_e of them,
    inside it, pairwise without overlap, exact total area 1."""
    errs = []
    r = np.asarray(rects, dtype=float).reshape(-1, 4)
    if len(r) != n_e:
        errs.append(f"{len(r)} element rows, history says n_e = {n_e}")
    if len(r) and ((r[:, 0] < 0) | (r[:, 1] > 1) | (r[:, 2] < 0) | (r[:, 3] > 1)).any():
        errs.append("an element lies outside the unit square")
    total = sum((_area(row) for row in rects), Fraction(0))
    if total != 1:
        errs.append(f"element areas sum to {float(total)!r}, not 1")
    ov = (
        (r[:, None, 0] < r[None, :, 1]) & (r[None, :, 0] < r[:, None, 1])
        & (r[:, None, 2] < r[None, :, 3]) & (r[None, :, 2] < r[:, None, 3])
    )
    np.fill_diagonal(ov, False)
    if ov.any():
        errs.append(f"{int(ov.sum()) // 2} overlapping element pairs")
    return errs


def layer_distance(x, y):
    """Distance to the interior layer segment (0, 0.2)-(0.8, 1) and to the
    outflow edges x = 1 and y = 1, vectorised."""
    ax, ay, bx, by = 0.0, SKEW_SPLIT, 1.0 - SKEW_SPLIT, 1.0
    vx, vy = bx - ax, by - ay
    u = np.clip(((x - ax) * vx + (y - ay) * vy) / (vx * vx + vy * vy), 0.0, 1.0)
    seg = np.hypot(x - ax - u * vx, y - ay - u * vy)
    return np.minimum(seg, np.minimum(1.0 - x, 1.0 - y))


def check_field(xyphi, min_distance, tol):
    """phi within tol of the limit solution (1 below y = x + 0.2, else 0) at
    every sample at least min_distance from the layers."""
    x, y, phi = xyphi[:, 0], xyphi[:, 1], xyphi[:, 2]
    far = layer_distance(x, y) >= min_distance
    limit = np.where(y < x + SKEW_SPLIT, 1.0, 0.0)
    if not far.any():
        return ["no field sample lies away from the layers"]
    worst = float(np.max(np.abs(phi[far] - limit[far])))
    return [] if worst <= tol else [f"field misses the limit by {worst:.3e} > {tol:g}"]


def check_solve_dir(out, iterations, min_distance, tol):
    """All checks on the files one `hasts solve` run wrote to ``out``;
    returns (messages, n_e of every solved space)."""
    hist = read_history(os.path.join(out, "history.txt"))
    errs = check_history(hist, iterations)
    for it, n_f, n_e, _, _ in hist:
        g = _rows(os.path.join(out, f"greville_{it:03d}.txt"))
        if len(g) != n_f:
            errs.append(f"greville_{it:03d} has {len(g)} rows, n_f = {n_f}")
    if hist:
        last = hist[-1][0]
        els = _rows(os.path.join(out, f"elements_{last:03d}.txt"))
        errs += check_tiling([[float(v) for v in r[1:5]] for r in els], hist[-1][2])
        field = np.array(_rows(os.path.join(out, f"field_{last:03d}.txt")), dtype=float)
        errs += check_field(field, min_distance, tol)
    return errs, [h[2] for h in hist]
