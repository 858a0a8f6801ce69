"""SUPG-stabilized solver for steady advection-diffusion on hierarchical
spline spaces, with residual-based error estimation and adaptive refinement.

The domain is one affine map x = A s + b of the parametric square with one
constant weight c, given by one weight and one point (x, y) per level-1
function (``Problem.weights``, ``points``; none for the identity) and read
once per space (``_affine_map``).  Level-1 functions are C^1 for p, q >= 2,
so this is every map affine with a constant weight on each element; for
p = 1, or a level 1 with a repeated interior knot, a map affine on each
element but not on the square is refused.  Element e maps [-1,1]^2 by its
frame x = o + J xi, o the image of its centre and J = A diag(half widths),
so with N = C^e times the Bernstein tables (``basis.bernstein_grid``),
R = N/c, the gradients are J^{-T} grad N/c and the laplacian the trace of
J^{-T} H_N J^{-1} over c: no quotient rule, no per-point jacobian.
``Discretization`` computes the Gauss-point data of the elements with one
number of local functions at once (``ElementGroup``, element axis first).

Assembly, the estimator and the edge quadrature of the Dirichlet projection
work on these stacks and make no ``ElementData``; the per-element
stabilization parameter is computed once per ``Discretization`` and shared
by assembly and the estimator, as is the source at the Gauss points.  Each
element's numbers equal those of a one-element loop bit for bit: the basis
products are one 2-D product per stack, every product with a vector stays
one vector product per element (a stacked ``matmul`` of shape (1, n) or
(n, 1)), and K, F, the boundary mass matrix and the boundary load sum every
entry in canonical order (``_summed``): by element (boundary side), local
row and local column, the order of a loop that adds one element's matrix at
a time, through two stable passes that never reorder equal entries.
``solve_linear`` factorises and checks K and the boundary mass matrix with
SuperLU, so no result depends on the BLAS thread count.
``problem.source`` and ``problem.dirichlet`` take arrays x, y of one shape
and return an array of that shape or a scalar, called once per stack on its
(E, 1, n_g) points; a result that does not broadcast, or is not finite, is
refused with ``MeshStructureError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import cosh, isfinite, sinh, sqrt

import numpy as np
import numpy.polynomial.legendre as npleg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import bernstein_grid, greville_rows
from .extraction import element_spans, extract_all
from .hierarchy import HierarchicalSpace, refine_by_elements
from .tmesh import MeshStructureError


@dataclass
class Problem:
    """Steady advection-diffusion: u . grad(phi) - kappa lap(phi) = source,
    phi = g on the whole boundary."""

    velocity: tuple  # constant (ux, uy)
    kappa: float
    dirichlet: object  # g(x, y) on arrays of one shape -> that shape, or a scalar
    source: object = None  # f(x, y) likewise, None = 0
    weights: object = None  # one per level-1 function, all equal; None = 1
    points: object = None   # one (x, y) per level-1 function, on one affine map; None = the identity

    def __post_init__(self):
        if self.kappa <= 0:
            raise MeshStructureError("diffusivity must be positive")
        if not isfinite(self.kappa):
            raise MeshStructureError(f"diffusivity must be finite, not {self.kappa}")
        if not all(isfinite(u) for u in self.velocity):
            raise MeshStructureError(f"velocity must be finite, not {self.velocity}")


_gauss = lru_cache(maxsize=None)(npleg.leggauss)


@lru_cache(maxsize=None)
def _bern_tables(p, q):
    """Quadrature weights, the coordinates xi and eta, and the Bernstein
    values and derivatives d/dxi, d/deta, d2/dxi2, d2/dxideta, d2/deta2 side
    by side in one n_b x 6 n_g table, at the (p+1) x (q+1) Gauss points,
    eta-major."""
    gx, wx = _gauss(p + 1)
    gy, wy = _gauss(q + 1)
    wts = np.array([a * b for b in wy for a in wx])
    keys = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    T = np.concatenate([bernstein_grid(p, q, gx, gy, *key).T for key in keys], axis=1)
    return wts, (np.tile(gx, q + 1), np.repeat(gy, p + 1)), T


def tau_element(h, unorm, kappa):
    """Streamline stabilization parameter (coth form); 0 without advection.

    coth(pe) - 1/pe cancels catastrophically as pe -> 0, so below pe = 1e-3
    it is replaced by its series, which is exact there to about 1 ulp."""
    if unorm == 0.0:
        return 0.0
    pe = unorm * h / (2.0 * kappa)
    if pe < 1e-3:
        return h / (2.0 * unorm) * (pe / 3 - pe**3 / 45 + 2 * pe**5 / 945)
    if pe > 50.0:
        coth = 1.0
    else:
        coth = cosh(pe) / sinh(pe)
    return h / (2.0 * unorm) * (coth - 1.0 / pe)


@dataclass
class ElementGroup:
    """Gauss-point data of the elements with one n_loc, stacked along axis 0
    in canonical element order."""

    pos: np.ndarray   # (E,) element numbers, in canonical order, into the stacks Discretization.elems
    ien: np.ndarray   # (E, n_loc) global function indices
    x: np.ndarray     # (E, 2, n_g) physical Gauss points
    dvol: np.ndarray  # (E, 1, n_g) quadrature weight times jacobian
    h: np.ndarray     # (E,) element size: square root of the physical area
    R: np.ndarray     # (E, n_loc, n_g) basis values
    Rx: np.ndarray    # (E, n_loc, n_g) physical gradient
    Ry: np.ndarray
    lap: np.ndarray   # (E, n_loc, n_g) physical laplacian


def _t(a):
    """Transpose of each matrix of a stack."""
    return a.swapaxes(1, 2)


def _times(out, *factors):
    """The product of the factors, left to right, written into ``out``."""
    np.multiply(*factors[:2], out=out)
    for f in factors[2:]:
        out *= f
    return out


def _combination(t, c, *terms):
    """(X1 a1 + X2 a2 + ...) / c for terms (X, a), summed left to right; each
    product after the first goes through the scratch ``t``."""
    out = np.multiply(*terms[0])
    for X, a in terms[1:]:
        out += np.multiply(X, a, out=t)
    out /= c
    return out


def _affine_map(space, weights, points):
    """The weight c and the map x = A s + b of the square given by one weight
    and one point per level-1 function (none: 1 and the identity), A and b
    read off the functions with Greville points (0,0), (1,0) and (0,1).
    Refuses unequal weights (1e-12 relative) or c <= 0, and points off
    A (Greville point) + b by 1e-12 of A's size plus 1e-13 of theirs."""
    if weights is None or points is None:
        return 1.0, np.eye(2), np.zeros(2)
    sp1 = space.spaces[0]
    w, P, n1 = np.asarray(weights, dtype=float), np.asarray(points, dtype=float), len(sp1.functions)
    if w.shape != (n1,) or P.shape != (n1, 2) or not (np.isfinite(w).all() and np.isfinite(P).all()):
        raise MeshStructureError(
            f"the geometry needs one finite weight and one finite point per level-1 function ({n1}), each point "
            f"(x, y), not weights of shape {w.shape} and points of shape {P.shape}"
        )
    knots = sp1.hknots, sp1.vknots
    g = greville_rows((sp1.h_indices, sp1.v_indices), [k.numerators for k in knots], [k.p for k in knots])
    at = {pt: k for k, pt in enumerate(map(tuple, g.tolist()))}
    b, e0, e1 = (P[at[corner]] for corner in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    A = np.column_stack([e0 - b, e1 - b])
    with np.errstate(over="ignore", invalid="ignore"):
        off = np.abs(P - (g[:, :1] * A[:, 0] + g[:, 1:] * A[:, 1] + b)).max()
        tol = 1e-12 * (np.abs(A[:, 0]) + np.abs(A[:, 1])).max() + 1e-13 * np.abs(P).max()
    if off > tol or (np.abs(w - w[0]) > 1e-12 * np.abs(w[0])).any():
        raise MeshStructureError(
            "the geometry map is not affine: it must be one affine map of the whole parametric square with one "
            "constant weight (second derivatives assume constant Bezier weights and affine Bezier points)"
        )
    if not w[0] > 0:
        raise MeshStructureError(f"the geometry weight {w[0]} is not positive")
    return float(w[0]), A, b


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _inverse_frames(elements, J):
    """Per element (n_e x 8): det J, the rows of J^{-1} (xi_x, xi_y, eta_x,
    eta_y) and the laplacian's three coefficients.  Refuses a det J that is
    not finite and positive, or so small that the coefficients overflow when
    squared, as the estimator squares the residual that holds them."""
    J00, J01, J10, J11 = (J[:, i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    det = J00 * J11 - J01 * J10
    xix, xiy, etax, etay = J11 / det, -J01 / det, -J10 / det, J00 / det
    lap = xix * xix + xiy * xiy, 2 * (xix * etax + xiy * etay), etax * etax + etay * etay
    bad = ~(np.isfinite(det) & (det > 0) & np.isfinite(np.square(lap)).all(axis=0))
    if bad.any():
        k = bad.argmax()
        what = "not finite" if not np.isfinite(det[k]) else "too small"
        what = "singular element jacobian" if det[k] <= 0 else f"element jacobian determinant {det[k]} is {what}"
        raise MeshStructureError(f"{what} on element {elements[k].param_rect}")
    return np.column_stack([det, xix, xiy, etax, etay, *lap])


class Discretization:
    """Extracted element arrays, the map (``c``, ``A``, ``b``), each element's
    ``half`` widths and frame (``origin``, ``jac``), and the Gauss-point data
    in ``ElementGroup`` stacks; ``groups`` covers every element once."""

    def __init__(self, space: HierarchicalSpace, weights=None, points=None):
        self.space = space
        self.p = space.levels[0].mesh.p
        self.q = space.levels[0].mesh.q
        self.c, self.A, self.b = _affine_map(space, weights, points)
        mid, self.half = element_spans(space)
        self.origin = mid[:, :1] * self.A[:, 0] + mid[:, 1:] * self.A[:, 1] + self.b
        self.jac = self.A * self.half[:, None, :]
        frame = _inverse_frames(space.elements, self.jac)
        self.elems = el = extract_all(space)
        self.groups = [self._quadrature(frame, np.flatnonzero(el.n_loc == n), n) for n in np.unique(el.n_loc).tolist()]
        self._kept = {}

    def _quadrature(self, frame, pos, n_loc):
        """Per Gauss point of every element in ``pos``, each with ``n_loc``
        functions: physical coords, jacobian factors, basis values, physical
        gradients and laplacians, from the frames and ``_inverse_frames``."""
        wts, points, T = _bern_tables(self.p, self.q)
        rows = self.elems.rows(pos, n_loc)
        det, xix, xiy, etax, etay, L0, L1, L2 = frame[pos].T[:, :, None, None]
        # one 2-D product for the whole stack of C^e rows computes the same
        # dot products, bit for bit, as one product per element
        tabs = (self.elems.C[rows.ravel()] @ T).reshape(len(pos), n_loc, 6, -1)
        N, Nxi, Neta, Nxixi, Nxieta, Netaeta = (tabs[:, :, k] for k in range(6))  # E x n_loc x n_g
        t, c = np.empty(N.shape), self.c  # t: scratch of each product
        R = N / c
        Rx = _combination(t, c, (Nxi, xix), (Neta, etax))
        Ry = _combination(t, c, (Nxi, xiy), (Neta, etay))
        lap = _combination(t, c, (Nxixi, L0), (Nxieta, L1), (Netaeta, L2))
        x = self.origin[pos, :, None] + self.jac[pos, :, :1] * points[0] + self.jac[pos, :, 1:] * points[1]
        dvol = wts * det  # E x 1 x n_g
        h = np.sqrt(dvol[:, 0].sum(axis=1))
        return ElementGroup(pos, self.elems.ien[rows], x, dvol, h, R, Rx, Ry, lap)

    def _kept_per_group(self, key, make):
        """[make(g) for each group], made once per key."""
        vals = self._kept.get(key)
        if vals is None:
            vals = self._kept[key] = [make(g) for g in self.groups]
        return vals

    def at_gauss_points(self, fn):
        """fn(x, y) at the Gauss points of each group, (E, 1, n_g) per group.
        Kept per function object: assembly and the estimator both need the
        source there."""
        return self._kept_per_group(fn, lambda g: _at_points(fn, g.x, "source"))

    def tau(self, unorm, kappa):
        """``tau_element`` of each element of each group, (E,) per group.
        Kept per (unorm, kappa): assembly and the estimator both need it."""
        return self._kept_per_group(
            (unorm, kappa), lambda g: np.array([tau_element(h, unorm, kappa) for h in g.h.tolist()])
        )


def _at_points(fn, x, what):
    """fn(x, y) at every point of a stack x (E, 2, n_g), one call on the
    (E, 1, n_g) arrays of its coordinates; returns (E, 1, n_g).  Refuses a
    result that does not broadcast to that shape or is not finite."""
    X, Y = x[:, :1], x[:, 1:]
    out, v = np.empty(X.shape), fn(X, Y)
    try:
        out[...] = v
    except ValueError:
        raise MeshStructureError(f"{what} of shape {np.shape(v)} does not broadcast to the points' {X.shape}") from None
    if not np.isfinite(out).all():
        k = np.unravel_index(np.isfinite(out).argmin(), X.shape)
        raise MeshStructureError(f"{what} is {out[k]} at ({X[k]}, {Y[k]}), not finite")
    return out


@np.errstate(over="ignore", invalid="ignore")
def assemble(problem: Problem, disc: Discretization, supg=True):
    """Global (K, F) with Galerkin + SUPG terms, before boundary conditions; ``solve_linear`` judges overflow."""
    ux, uy = problem.velocity
    unorm = sqrt(ux * ux + uy * uy)
    kappa = problem.kappa
    blocks = []  # per group: positions, ien, K^e, F^e
    source = [None] * len(disc.groups)
    if problem.source is not None:
        source = disc.at_gauss_points(problem.source)
    taus = disc.tau(unorm, kappa) if supg and unorm > 0 else [None] * len(disc.groups)
    for g, fg, tau in zip(disc.groups, source, taus):
        adv = ux * g.Rx + uy * g.Ry
        t = np.empty_like(g.R)  # scratch of each product; K^e sums in place
        Ke = _times(t, g.Rx, g.dvol, kappa) @ _t(g.Rx)
        m = np.matmul(_times(t, g.Ry, g.dvol, kappa), _t(g.Ry))
        Ke += m
        Ke += np.matmul(_times(t, g.R, g.dvol), _t(adv), out=m)
        Fe = np.zeros(g.ien.shape)
        if fg is not None:
            f = _t(fg)                                      # E x n_g x 1
            Fe += (t @ f)[:, :, 0]                          # t holds R dvol
        if tau is not None:
            Ke += np.matmul(_times(t, adv, g.dvol, tau[:, None, None]), _t(adv - kappa * g.lap), out=m)
            if fg is not None:
                Fe += (t @ f)[:, :, 0]                      # t holds tau adv dvol
        blocks.append((g.pos, g.ien, Ke, Fe))
    return _summed(disc.space.n_f, disc.elems.n_loc, blocks)


def _summed(n, n_loc, blocks):
    """The n x n matrix (CSC) and n-vector summed from per-item stacks, each
    entry in canonical order: by item, local row, local column, as
    ``K[ix_(ien, ien)] += K^e; F[ien] += F^e`` one item at a time.  A block
    holds its items' positions, (E, m) function numbers, m x m matrices and
    m-vectors; ``n_loc`` each item's m.  Local rows are CSR row segments
    placed by a stable sort of the flat function numbers; ``tocsc``, a
    stable counting pass, keeps equal entries adjacent in that order, and
    ``sum_duplicates`` adds them left to right."""
    start = np.concatenate([[0], np.cumsum(n_loc)])
    rows = [start[pos, None] + np.arange(ids.shape[1]) for pos, ids, _, _ in blocks]  # flat, E x m
    ien, vec = np.empty(start[-1], dtype=np.int64), np.empty(start[-1])
    for r, (_, ids, _, v) in zip(rows, blocks):
        ien[r], vec[r] = ids, v
    order = np.argsort(ien, kind="stable")
    ends = np.concatenate([[0], np.cumsum(np.repeat(n_loc, n_loc)[order])])  # CSR offsets, in sorted order
    at = np.empty_like(order)
    at[order] = ends[:-1]
    data, cols = np.empty(ends[-1]), np.empty(ends[-1], dtype=np.int32)
    for r, (_, ids, M, _) in zip(rows, blocks):
        slots = at[r][:, :, None] + np.arange(r.shape[1])  # E x m x m, row-major
        data[slots], cols[slots] = M, ids[:, None, :]
    K = sp.csr_matrix((data, cols, ends[np.searchsorted(ien[order], np.arange(n + 1))]), shape=(n, n)).tocsc()
    K.sum_duplicates()
    return K, np.bincount(ien, weights=vec, minlength=n)


# -- Dirichlet conditions -----------------------------------------------------


def boundary_functions(space: HierarchicalSpace):
    """Indices of hierarchical functions with nonzero trace on the boundary:
    a local knot vector whose first or last p+1 (q+1) knots are the domain
    end, found from the grid lines of its positions p and 1.  (An interior
    knot may repeat p+1 times too.)"""
    H, V = space.knot_lines
    p, q = H.shape[1] - 2, V.shape[1] - 2
    gh, gv = space.grid_shape
    on = (H[:, p] == 0) | (H[:, 1] == gh - 1) | (V[:, q] == 0) | (V[:, 1] == gv - 1)
    return np.flatnonzero(on).tolist()


@lru_cache(maxsize=None)
def _edge_tables(p, q, ng):
    """Gauss weights, and per side s0, s1, t0, t1 of [-1,1]^2 its Gauss points
    (4 x 2 x n_g, xi and eta) and the Bernstein values there (4 x n_g x n_b)."""
    g, gw = _gauss(ng)
    grids = [([end], g) for end in (-1.0, 1.0)] + [(g, [end]) for end in (-1.0, 1.0)]
    pts = np.array([np.broadcast_arrays(xs, etas) for xs, etas in grids])
    return gw, pts, np.array([bernstein_grid(p, q, xs, etas) for xs, etas in grids])


def _edge_quadrature(disc, pos, sides, rows):
    """Gauss points along one boundary side (0..3 for s0, s1, t0, t1) of each
    element at ``pos`` (C^e ``rows``): physical points (E x 2 x n_g), arc
    weights (E x 1 x n_g) and local basis values (E x n_loc x n_g).  The arc
    weight is the Gauss weight times the arc length element |A e_side| h,
    h the element's half width along the side, times h once more, so the
    projection is the L2 one weighted by h, which the golden solves pin."""
    gw, pts, B = _edge_tables(disc.p, disc.q, max(disc.p, disc.q) + 2)
    pts, B, J = pts[sides, :, None], B[sides], disc.jac[pos]   # E x 2 x 1 x n_g, E x n_g x n_b
    x = disc.origin[pos, :, None] + J[:, :, :1] * pts[:, 0] + J[:, :, 1:] * pts[:, 1]
    d = 1 - sides // 2                                          # an s side runs along eta, a t side along xi
    arc = np.sqrt(np.square(disc.A).sum(axis=0))[d] * disc.half[pos, d] * disc.half[pos, d]
    # matrix products per element, as (n_loc, n_b) @ (n_b, n_g)
    return x, gw * arc[:, None, None], disc.elems.C[rows] @ _t(B) / disc.c


def apply_dirichlet(K, F, problem, disc):
    """Boundary-wide L2 projection of g onto the trace space, then
    elimination.  Returns (K_ii, F_i, interior index array, full-length
    solution template with boundary values filled in)."""
    space = disc.space
    bidx = boundary_functions(space)
    nb = len(bidx)
    bpos = np.full(space.n_f, nb)  # nb: not on the boundary, a row and column cut off below
    bpos[bidx] = np.arange(nb)
    # every (element, side) pair on the domain boundary, in canonical order:
    # the sides s0, s1, t0, t1 of an element's grid box on the first or last
    # grid line
    gh, gv = space.grid_shape
    pos, side = np.nonzero(space.element_boxes == [0, gh - 1, 0, gv - 1])
    n_loc = disc.elems.n_loc[pos]
    blocks = []  # per n_loc: pair positions, boundary numbers, M^e, rhs^e
    for n in np.unique(n_loc).tolist():
        sel = np.flatnonzero(n_loc == n)
        rows = disc.elems.rows(pos[sel], n)
        x, dw, N = _edge_quadrature(disc, pos[sel], side[sel], rows)
        g = _t(_at_points(problem.dirichlet, x, "Dirichlet data"))  # E x n_g x 1
        blocks.append((sel, bpos[disc.elems.ien[rows]], (N * dw) @ _t(N), ((N * dw) @ g)[:, :, 0]))
    M, b = _summed(nb + 1, n_loc, blocks)
    gb = solve_linear(M[:nb, :nb], b[:nb])
    full = np.zeros(space.n_f)
    full[bidx] = gb
    interior = np.flatnonzero(bpos == nb)
    Fi = F[interior] - (K[:, bidx] @ gb)[interior]
    Kii = K[:, interior][interior, :]
    return Kii, Fi, interior, full


@np.errstate(over="ignore", invalid="ignore")
def solve_linear(K, F):
    """Sparse direct solve, checked by its factorization and its residual."""
    if K.shape[0] == 0:
        return np.zeros(0)
    try:
        lu = spla.splu(K.tocsc())
    except RuntimeError as exc:  # a singular matrix
        raise MeshStructureError(f"linear solve failed: {exc}") from None
    x = lu.solve(F)
    # both norms in units of max|F|, so that no finite F overflows them
    s = np.abs(F).max() or 1.0
    res = np.linalg.norm((K @ x - F) / s) / (np.linalg.norm(F / s) or 1.0)
    if not np.isfinite(res) or res > 1e-10:
        raise MeshStructureError(f"linear solve residual {res:.3e} exceeds 1e-10")
    return x


def solve(problem, disc):
    """Assemble, constrain, and solve; returns the full coefficient vector."""
    K, F = assemble(problem, disc)
    Kii, Fi, interior, full = apply_dirichlet(K, F, problem, disc)
    full[interior] = solve_linear(Kii, Fi)
    return full


# -- error estimation and marking ---------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def estimate_error(problem, disc, coeffs):
    """Per-element tau^e times the L2 norm of the strong residual; each must be finite."""
    ux, uy = problem.velocity
    unorm = sqrt(ux * ux + uy * uy)
    out = np.zeros(len(disc.elems))
    source = [None] * len(disc.groups)
    if problem.source is not None:
        source = disc.at_gauss_points(problem.source)
    for g, fg, tau in zip(disc.groups, source, disc.tau(unorm, problem.kappa)):
        c = coeffs[g.ien][:, None, :]                       # E x 1 x n_loc
        resid = ux * (c @ g.Rx) + uy * (c @ g.Ry) - problem.kappa * (c @ g.lap)
        if fg is not None:
            resid = resid - fg
        out[g.pos] = tau * np.sqrt((resid**2 * g.dvol)[:, 0].sum(axis=1))
    bad = np.flatnonzero(~np.isfinite(out))
    if len(bad):
        el, est = disc.space.elements[bad[0]], out[bad[0]]
        raise MeshStructureError(f"error estimate of level {el.level} element {el.index_rect} is {est}, not finite")
    return out


def mark_elements(estimates, tol):
    """Elements whose estimate exceeds tol."""
    if not tol > 0:  # NaN too
        raise MeshStructureError("tol must be positive")
    return [k for k, est in enumerate(estimates) if est > tol]


def total_estimate(estimates):
    """Global error estimate: the element values are elementwise L2 norms, so
    they aggregate as the root of the sum of squares."""
    return float(np.sqrt((np.asarray(estimates) ** 2).sum()))


@dataclass
class AdaptiveRecord:
    iteration: int
    n_f: int
    n_e: int
    total_estimate: float
    marked: int


@dataclass
class AdaptiveResult:
    disc: Discretization
    coeffs: np.ndarray
    estimates: np.ndarray
    history: list = field(default_factory=list)
    iterations: list = field(default_factory=list)


def adaptive_loop(problem, space, tol, max_levels=8, max_iterations=20,
                  keep_iterations=False):
    """solve -> estimate -> mark -> refine until nothing is marked or the
    level cap stops refinement."""
    if max_iterations < 1:
        raise MeshStructureError("iterations must be >= 1")
    if not tol > 0:  # NaN too
        raise MeshStructureError("tol must be positive")
    history = []
    iterations = []
    for it in range(1, max_iterations + 1):
        disc = Discretization(space, problem.weights, problem.points)
        coeffs = solve(problem, disc)
        estimates = estimate_error(problem, disc, coeffs)
        marked = mark_elements(estimates, tol)
        # the level cap blocks subdividing elements already at the deepest level
        refinable = [k for k in marked if disc.space.elements[k].level < max_levels]
        history.append(
            AdaptiveRecord(it, space.n_f, space.n_e, total_estimate(estimates), len(marked))
        )
        if keep_iterations:
            iterations.append((disc, coeffs, estimates))
        if not refinable or it == max_iterations:
            break
        space = refine_by_elements(
            space, [disc.space.elements[k] for k in refinable], max_levels=max_levels
        )
    return AdaptiveResult(disc, coeffs, estimates, history, iterations)


# -- field sampling (plot-ready output) ---------------------------------------


def sample_field(disc, coeffs, nx=65, ny=65):
    """phi on an nx x ny uniform parametric grid; returns (x, y, phi) arrays,
    x = A s + b of the domain's map at the grid points.

    Each element evaluates the grid points of its closed rectangle in one
    batch.  Elements whose grid points sit alike in them share one
    Bernstein table: in a dyadic hierarchy every element no smaller than
    the grid spacing has its corners on the grid, so all elements of one
    size do.
    Elements run in reverse canonical order, so a point on a shared
    edge keeps the value of the first element that contains it."""
    ss = np.linspace(0.0, 1.0, nx)
    tt = np.linspace(0.0, 1.0, ny)
    X, Y = disc.A[:, :1, None] * ss + disc.A[:, 1:, None] * tt[:, None] + disc.b[:, None, None]
    PHI = np.zeros((ny, nx))
    covered = np.zeros((ny, nx), dtype=bool)
    tables = {}  # (xi, eta) bytes -> Bernstein table
    for ed in reversed(disc.elems):
        s1, s2, t1, t2 = [float(v) for v in ed.param_rect]
        ix = slice(np.searchsorted(ss, s1, "left"), np.searchsorted(ss, s2, "right"))
        iy = slice(np.searchsorted(tt, t1, "left"), np.searchsorted(tt, t2, "right"))
        xi = (2 * ss[ix] - s1 - s2) / (s2 - s1)
        eta = (2 * tt[iy] - t1 - t2) / (t2 - t1)
        key = (xi.tobytes(), eta.tobytes())
        if key not in tables:
            tables[key] = bernstein_grid(disc.p, disc.q, xi, eta)
        phi = coeffs[ed.ien] @ (ed.C @ tables[key].T) / disc.c
        PHI[iy, ix] = phi.reshape(len(eta), len(xi))
        covered[iy, ix] = True
    if not covered.all():
        jy, jx = np.argwhere(~covered)[0]
        raise MeshStructureError(f"no element contains parametric point ({ss[jx]}, {tt[jy]})")
    return X, Y, PHI
