"""SUPG-stabilized solver for steady advection-diffusion on hierarchical
spline spaces, with residual-based error estimation and adaptive refinement.

All evaluation runs on the extracted Bezier elements: basis values come from
C^e times a Bernstein table (``basis.bernstein_grid``) on a tensor grid of
[-1,1]^2 (the Gauss points, the Gauss points of an edge, or the output
points inside one element), geometry from the element Bezier points and
weights.

Elements are evaluated in groups.  ``Discretization`` sorts the elements by
their number of local functions n_loc, stacks the C^e, Bezier weights and
points of the elements with one n_loc into 3-D arrays and
computes the Gauss-point data of the whole stack at once (``ElementGroup``,
element axis first).  Assembly, the estimator and the edge quadrature of the
Dirichlet projection work on these stacks.  Each element's numbers equal
those of a one-element loop bit for bit: the basis products are one 2-D
product per stack, every product with a vector stays one vector product per
element (a stacked ``matmul`` of shape (1, n) or (n, 1)), and every sum over
elements (the COO triplets, F, the boundary mass matrix) runs in canonical
element order.  ``problem.source`` and ``problem.dirichlet`` are called
with Python floats; the source is evaluated once per ``Discretization``
and shared by assembly and the estimator.

Second derivatives, which the strong residual needs, take the element map
to be affine.  ``Discretization`` enforces that: it raises
``MeshStructureError`` for an element whose Bezier weights are not constant
or whose Bezier points are not an affine image of the Bernstein control
grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import cosh, isfinite, sinh, sqrt

import numpy as np
import numpy.polynomial.legendre as npleg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import bernstein_grid
from .extraction import extract_all, default_geometry
from .hierarchy import HierarchicalSpace, refine_by_elements
from .tmesh import MeshStructureError


@dataclass
class Problem:
    """Steady advection-diffusion: u . grad(phi) - kappa lap(phi) = source,
    phi = g on the whole boundary."""

    velocity: tuple  # constant (ux, uy)
    kappa: float
    dirichlet: object  # g(x, y) -> float
    source: object = None  # f(x, y) -> float, None = 0
    weights: object = None
    points: object = None

    def __post_init__(self):
        if self.kappa <= 0:
            raise MeshStructureError("diffusivity must be positive")
        if not isfinite(self.kappa):
            raise MeshStructureError(f"diffusivity must be finite, not {self.kappa}")


@lru_cache(maxsize=None)
def _gauss(n):
    x, w = npleg.leggauss(n)
    return x, w


@lru_cache(maxsize=None)
def _bern_tables(p, q):
    """Quadrature weights and Bernstein value/derivative tables at the
    (p+1) x (q+1) Gauss points, eta-major."""
    gx, wx = _gauss(p + 1)
    gy, wy = _gauss(q + 1)
    wts = np.array([a * b for b in wy for a in wx])
    tabs = {
        key: bernstein_grid(p, q, gx, gy, *key)
        for key in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    }
    return wts, tabs


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

    pos: np.ndarray   # (E,) positions in Discretization.elems
    ien: np.ndarray   # (E, n_loc) global function indices
    x: np.ndarray     # (E, d, n_g) physical Gauss points
    dvol: np.ndarray  # (E, 1, n_g) quadrature weight times jacobian
    h: np.ndarray     # (E,) element size: square root of the physical area
    R: np.ndarray     # (E, n_loc, n_g) basis values
    Rx: np.ndarray    # (E, n_loc, n_g) physical gradient
    Ry: np.ndarray
    lap: np.ndarray   # (E, n_loc, n_g) physical laplacian


def _t(a):
    """Transpose of each matrix of a stack."""
    return a.swapaxes(1, 2)


def _check_affine(elems, wb, Qb, p, q):
    """Constant Bezier weights to 1e-12 relative, and Bezier points on the
    affine image of the Bernstein control grid fixed by three corners, to
    1e-12 of the element size plus 1e-13 of the coordinates (the roundoff
    of extracted points far from the origin)."""
    u = np.tile(np.arange(p + 1) / p, q + 1)[:, None]  # i/p per Bernstein index
    v = np.repeat(np.arange(q + 1) / q, p + 1)[:, None]
    E = len(Qb)
    o = Qb[:, :1]
    eu = Qb[:, p:p + 1] - o
    ev = Qb[:, (p + 1) * q:(p + 1) * q + 1] - o
    off = np.abs(Qb - (o + u * eu + v * ev)).reshape(E, -1).max(axis=1)
    size = (np.abs(eu) + np.abs(ev)).reshape(E, -1).max(axis=1)
    tol = 1e-12 * size + 1e-13 * np.abs(Qb).reshape(E, -1).max(axis=1)
    wdev = np.abs(wb - wb[:, :1]).max(axis=1)
    bad = (off > tol) | (wdev > 1e-12 * np.abs(wb[:, 0]))
    if bad.any():
        raise MeshStructureError(
            f"element {elems[bad.argmax()].param_rect}: the element map is not affine "
            "(second derivatives assume constant Bezier weights and affine Bezier points)"
        )


class Discretization:
    """Extracted element arrays plus their Gauss-point data in
    ``ElementGroup`` stacks; ``groups`` covers every element once."""

    def __init__(self, space: HierarchicalSpace, weights=None, points=None):
        self.space = space
        self.p = space.levels[0].mesh.p
        self.q = space.levels[0].mesh.q
        if weights is None or points is None:
            weights, points = default_geometry(space)
        self.elems = extract_all(space, weights, points)
        n_loc = np.array([len(ed.ien) for ed in self.elems])
        wb = np.array([ed.weights for ed in self.elems])      # n_e x n_b
        Qb = np.array([ed.points for ed in self.elems])       # n_e x n_b x d
        _check_affine(self.elems, wb, Qb, self.p, self.q)
        self.groups = [
            self._quadrature(pos, wb[pos], Qb[pos])
            for pos in (np.flatnonzero(n_loc == n) for n in np.unique(n_loc))
        ]
        self._at_gauss = {}

    def _quadrature(self, pos, wb, Qb):
        """Per Gauss point of every element in ``pos`` (Bezier weights ``wb``
        and points ``Qb``): physical coords, jacobian factors, basis values,
        physical gradients and laplacians."""
        wts, tabs = _bern_tables(self.p, self.q)
        T = {key: tab.T for key, tab in tabs.items()}  # n_b x n_g
        elems = [self.elems[k] for k in pos]
        C = np.array([ed.C for ed in elems])                # E x n_loc x n_b
        # one 2-D product for the whole stack computes the same dot products,
        # bit for bit, as one product per element
        E, n_loc, n_b = C.shape
        C2 = C.reshape(E * n_loc, n_b)
        N, Nxi, Neta, Nxixi, Nxieta, Netaeta = (
            (C2 @ T[key]).reshape(E, n_loc, -1)             # E x n_loc x n_g
            for key in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        )
        # (E, 1, n_b) rows: a vector-matrix product per element, like the
        # one-element loop's (a 2-D (E, n_b) product rounds differently)
        wrow = wb[:, None, :]
        w = wrow @ T[(0, 0)]                                # E x 1 x n_g
        wxi = wrow @ T[(1, 0)]
        weta = wrow @ T[(0, 1)]
        wxixi = wrow @ T[(2, 0)]
        wxieta = wrow @ T[(1, 1)]
        wetaeta = wrow @ T[(0, 2)]
        # rational basis R = N / w by the quotient rule
        R = N / w
        Rxi = (Nxi - R * wxi) / w
        Reta = (Neta - R * weta) / w
        Rxixi = (Nxixi - 2 * Rxi * wxi - R * wxixi) / w
        Rxieta = (Nxieta - Rxi * weta - Reta * wxi - R * wxieta) / w
        Retaeta = (Netaeta - 2 * Reta * weta - R * wetaeta) / w
        # geometry map x = (Qb * wb) B / w
        Pt = _t(Qb * wb[:, :, None])                        # E x d x n_b
        x = (Pt @ T[(0, 0)]) / w                            # E x d x n_g
        x_xi = (Pt @ T[(1, 0)] - x * wxi) / w
        x_eta = (Pt @ T[(0, 1)] - x * weta) / w
        # 2x2 jacobian per point, inverse-transpose applied to gradients
        xs, ys = slice(0, 1), slice(1, 2)  # keep the (E, 1, n_g) shape
        det = x_xi[:, xs] * x_eta[:, ys] - x_xi[:, ys] * x_eta[:, xs]
        if (det <= 0).any():
            k = pos[(det <= 0).any(axis=(1, 2)).argmax()]
            raise MeshStructureError(f"singular element jacobian on element {self.elems[k].param_rect}")
        # grad_x = J^{-T} grad_xi with J columns (x_xi, x_eta)
        Rx = (x_eta[:, ys] * Rxi - x_xi[:, ys] * Reta) / det
        Ry = (-x_eta[:, xs] * Rxi + x_xi[:, xs] * Reta) / det
        # second derivatives under an affine map: H_x = J^{-T} H_xi J^{-1}
        a11 = x_eta[:, ys] / det
        a12 = -x_xi[:, ys] / det
        a21 = -x_eta[:, xs] / det
        a22 = x_xi[:, xs] / det
        Rxx = a11 * (a11 * Rxixi + a12 * Rxieta) + a12 * (a11 * Rxieta + a12 * Retaeta)
        Ryy = a21 * (a21 * Rxixi + a22 * Rxieta) + a22 * (a21 * Rxieta + a22 * Retaeta)
        dvol = wts * det
        h = np.sqrt(dvol[:, 0].sum(axis=1))
        ien = np.stack([ed.ien for ed in elems])
        return ElementGroup(pos, ien, x, dvol, h, R, Rx, Ry, Rxx + Ryy)

    def at_gauss_points(self, fn):
        """fn(x, y) at the Gauss points of each group, (E, 1, n_g) per group.
        Kept per function object: assembly and the estimator both need the
        source there."""
        vals = self._at_gauss.get(fn)
        if vals is None:
            vals = self._at_gauss[fn] = [_at_points(fn, g.x) for g in self.groups]
        return vals


def _at_points(fn, x):
    """fn(x, y) at every point of a stack x (E, d, n_g), called with Python
    floats; returns (E, 1, n_g)."""
    pts = zip(x[:, 0].ravel().tolist(), x[:, 1].ravel().tolist())
    return np.array([fn(px, py) for px, py in pts]).reshape(len(x), 1, -1)


@np.errstate(over="ignore", invalid="ignore")
def assemble(problem: Problem, disc: Discretization, supg=True):
    """Global (K, F) with Galerkin + SUPG terms, before boundary conditions; ``solve_linear`` judges overflow."""
    ux, uy = problem.velocity
    unorm = sqrt(ux * ux + uy * uy)
    kappa = problem.kappa
    n = disc.space.n_f
    parts = [None] * len(disc.elems)  # per element: rows, cols, K entries, ien, F entries
    source = [None] * len(disc.groups)
    if problem.source is not None:
        source = disc.at_gauss_points(problem.source)
    for g, fg in zip(disc.groups, source):
        adv = ux * g.Rx + uy * g.Ry
        Ke = (kappa * (g.Rx * g.dvol) @ _t(g.Rx) + kappa * (g.Ry * g.dvol) @ _t(g.Ry)
              + (g.R * g.dvol) @ _t(adv))
        Fe = np.zeros(g.ien.shape)
        if fg is not None:
            f = _t(fg)                                      # E x n_g x 1
            Fe += ((g.R * g.dvol) @ f)[:, :, 0]
        if supg and unorm > 0:
            tau = np.array([tau_element(h, unorm, kappa) for h in g.h.tolist()])[:, None, None]
            Ke += (tau * (adv * g.dvol)) @ _t(adv - kappa * g.lap)
            if fg is not None:
                Fe += ((tau * (adv * g.dvol)) @ f)[:, :, 0]
        nl = g.ien.shape[1]
        rows, cols = np.repeat(g.ien, nl, axis=1), np.tile(g.ien, (1, nl))
        for k, *part in zip(g.pos.tolist(), rows, cols, Ke.reshape(len(Ke), -1), g.ien, Fe):
            parts[k] = part
    # triplets and load entries in canonical element order, so duplicate
    # entries sum in the same order as one element at a time
    r, c, v, i, f = (np.concatenate(col) for col in zip(*parts))
    K = sp.coo_matrix((v, (r, c)), shape=(n, n)).tocsr()
    return K, np.bincount(i, weights=f, minlength=n)


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
    """Gauss weights, and for the sides s0, s1, t0, t1 of [-1,1]^2 the
    Bernstein values and their derivatives along the side: 4 x n_g x n_b."""
    g, gw = _gauss(ng)
    grids = [([end], g, (0, 1)) for end in (-1.0, 1.0)] + [(g, [end], (1, 0)) for end in (-1.0, 1.0)]
    B = np.array([bernstein_grid(p, q, xs, etas) for xs, etas, _ in grids])
    Bd = np.array([bernstein_grid(p, q, xs, etas, *along) for xs, etas, along in grids])
    return gw, B, Bd


def _edge_quadrature(disc, elems, sides, ng):
    """Gauss points along one boundary side (0..3 for s0, s1, t0, t1) of each
    element of a stack with one n_loc: physical points (E x d x n_g), arc
    weights (E x 1 x n_g) and local basis values (E x n_loc x n_g)."""
    gw, B4, Bd4 = _edge_tables(disc.p, disc.q, ng)
    B, Bd = B4[sides], Bd4[sides]                              # E x n_g x n_b
    rect = np.array([[float(v) for v in ed.param_rect] for ed in elems])
    # an s side runs along t, a t side along s
    jac = (np.where(sides < 2, rect[:, 3] - rect[:, 2], rect[:, 1] - rect[:, 0]) / 2)[:, None, None]
    C = np.array([ed.C for ed in elems])
    wb = np.array([ed.weights for ed in elems])[:, :, None]   # E x n_b x 1
    # matrix-vector products per element, as (n_g, n_b) @ (n_b, 1)
    w = _t(B @ wb)                                             # E x 1 x n_g
    N = C @ _t(B) / w
    Pt = _t(np.array([ed.points for ed in elems]) * wb)
    x = (Pt @ _t(B)) / w
    # physical arc length element along the edge
    dxd = (Pt @ _t(Bd) - x * _t(Bd @ wb)) / w
    arc = np.sqrt(dxd[:, :1] ** 2 + dxd[:, 1:2] ** 2) * jac
    return x, gw * arc, N


def apply_dirichlet(K, F, problem, disc):
    """Boundary-wide L2 projection of g onto the trace space, then
    elimination.  Returns (K_ii, F_i, interior index array, full-length
    solution template with boundary values filled in)."""
    space = disc.space
    bidx = boundary_functions(space)
    nb = len(bidx)
    bpos = np.full(space.n_f, -1)
    bpos[bidx] = np.arange(nb)
    ng = max(disc.p, disc.q) + 2
    # every (element, side) pair on the domain boundary, in canonical order:
    # the sides s0, s1, t0, t1 of an element's grid box on the first or last
    # grid line
    gh, gv = space.grid_shape
    pos, side = np.nonzero(space.element_boxes == [0, gh - 1, 0, gv - 1])
    n_loc = np.array([len(disc.elems[k].ien) for k in pos], dtype=int)
    parts = [None] * len(pos)  # per pair: rows, cols, M entries, rhs rows, rhs entries
    for n in np.unique(n_loc):
        sel = np.flatnonzero(n_loc == n)
        elems = [disc.elems[k] for k in pos[sel]]
        x, dw, N = _edge_quadrature(disc, elems, side[sel], ng)
        g = _t(_at_points(problem.dirichlet, x))            # E x n_g x 1
        gi = bpos[np.stack([ed.ien for ed in elems])]  # -1: not on the boundary
        Me = ((N * dw) @ _t(N)).reshape(len(sel), -1)
        be = ((N * dw) @ g)[:, :, 0]
        for j, *part in zip(sel.tolist(), np.repeat(gi, n, axis=1), np.tile(gi, (1, n)), Me, gi, be):
            parts[j] = part
    # accumulate in canonical pair order, as one element side at a time;
    # the entries of functions without a boundary trace drop out
    M = np.zeros((nb, nb))
    rhs = np.zeros(nb)
    if parts:
        r, c, v, i, b = (np.concatenate(col) for col in zip(*parts))
        on = (r >= 0) & (c >= 0)
        M = np.bincount(r[on] * nb + c[on], weights=v[on], minlength=nb * nb).reshape(nb, nb)
        rhs = np.bincount(i[i >= 0], weights=b[i >= 0], minlength=nb)
    gb = np.linalg.solve(M, rhs)
    full = np.zeros(space.n_f)
    full[bidx] = gb
    interior = np.flatnonzero(bpos < 0)
    K = K.tocsc()
    Fi = F[interior] - K[:, bidx][interior, :] @ gb
    Kii = K[interior, :][:, interior]
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
    denom = np.linalg.norm(F)
    res = np.linalg.norm(K @ x - F) / (denom if denom > 0 else 1.0)
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
    for g, fg in zip(disc.groups, source):
        c = coeffs[g.ien][:, None, :]                       # E x 1 x n_loc
        resid = ux * (c @ g.Rx) + uy * (c @ g.Ry) - problem.kappa * (c @ g.lap)
        if fg is not None:
            resid = resid - fg
        tau = np.array([tau_element(h, unorm, problem.kappa) for h in g.h.tolist()])
        out[g.pos] = tau * np.sqrt((resid**2 * g.dvol)[:, 0].sum(axis=1))
    bad = np.flatnonzero(~np.isfinite(out))
    if len(bad):
        el, est = disc.space.elements[bad[0]], out[bad[0]]
        raise MeshStructureError(f"error estimate of level {el.level} element {el.index_rect} is {est}, not finite")
    return out


def mark_elements(estimates, tol):
    """Elements whose estimate exceeds tol."""
    if tol <= 0:
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
    history = []
    iterations = []
    disc = coeffs = estimates = None
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
    """phi on an nx x ny uniform parametric grid; returns (x, y, phi) arrays.

    Each element evaluates the grid points of its closed rectangle in one
    batch.  Elements whose grid points sit alike in them share one
    Bernstein table: in a dyadic hierarchy every element no smaller than
    the grid spacing has its corners on the grid, so all elements of one
    size do.
    Elements run in reverse canonical order, so a point on a shared
    edge keeps the value of the first element that contains it."""
    ss = np.linspace(0.0, 1.0, nx)
    tt = np.linspace(0.0, 1.0, ny)
    X = np.zeros((ny, nx))
    Y = np.zeros((ny, nx))
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
        B = tables[key]
        w = B @ ed.weights
        x = (ed.points * ed.weights[:, None]).T @ B.T / w
        phi = coeffs[ed.ien] @ (ed.C @ B.T) / w
        shape = (len(eta), len(xi))
        X[iy, ix] = x[0].reshape(shape)
        Y[iy, ix] = x[1].reshape(shape)
        PHI[iy, ix] = phi.reshape(shape)
        covered[iy, ix] = True
    if not covered.all():
        jy, jx = np.argwhere(~covered)[0]
        raise MeshStructureError(f"no element contains parametric point ({ss[jx]}, {tt[jy]})")
    return X, Y, PHI
