"""SUPG-stabilized solver for steady advection-diffusion on hierarchical
spline spaces, with residual-based error estimation and adaptive refinement.

All evaluation runs on the extracted Bezier elements: basis values come from
C^e times a Bernstein table (``basis.bernstein_grid``) on a tensor grid of
[-1,1]^2 (the Gauss points, the Gauss points of an edge, or the output
points inside one element), geometry from the element Bezier points and
weights.  Second derivatives (needed by the strong residual) assume the
per-element geometric map is affine, which holds for the linear
parameterizations used here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import cosh, sinh, sqrt

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
    """Streamline stabilization parameter (coth form); 0 without advection."""
    if unorm == 0.0:
        return 0.0
    pe = unorm * h / (2.0 * kappa)
    if pe > 50.0:
        coth = 1.0
    else:
        coth = cosh(pe) / sinh(pe)
    return h / (2.0 * unorm) * (coth - 1.0 / pe)


class Discretization:
    """Extracted element arrays plus cached quadrature data for one space."""

    def __init__(self, space: HierarchicalSpace, weights=None, points=None):
        self.space = space
        self.p = space.levels[0].mesh.p
        self.q = space.levels[0].mesh.q
        if weights is None or points is None:
            weights, points = default_geometry(space)
        self.geom_weights = weights
        self.geom_points = points
        self.elems = extract_all(space, weights, points)
        self._quad_cache = {}

    def element_quadrature(self, ed):
        key = id(ed)
        if key not in self._quad_cache:
            self._quad_cache[key] = self._element_quadrature(ed)
        return self._quad_cache[key]

    def _element_quadrature(self, ed):
        """Per Gauss point: physical coords, jacobian factors, basis values,
        physical gradients and second derivatives of the element's functions."""
        wts, tabs = _bern_tables(self.p, self.q)
        C = ed.C
        wb = ed.weights
        Qb = ed.points
        N = C @ tabs[(0, 0)].T        # n_loc x n_g
        Nxi = C @ tabs[(1, 0)].T
        Neta = C @ tabs[(0, 1)].T
        Nxixi = C @ tabs[(2, 0)].T
        Nxieta = C @ tabs[(1, 1)].T
        Netaeta = C @ tabs[(0, 2)].T
        w = wb @ tabs[(0, 0)].T       # n_g
        wxi = wb @ tabs[(1, 0)].T
        weta = wb @ tabs[(0, 1)].T
        wxixi = wb @ tabs[(2, 0)].T
        wxieta = wb @ tabs[(1, 1)].T
        wetaeta = wb @ tabs[(0, 2)].T
        # rational basis R = N / w by the quotient rule
        R = N / w
        Rxi = (Nxi - R * wxi) / w
        Reta = (Neta - R * weta) / w
        Rxixi = (Nxixi - 2 * Rxi * wxi - R * wxixi) / w
        Rxieta = (Nxieta - Rxi * weta - Reta * wxi - R * wxieta) / w
        Retaeta = (Netaeta - 2 * Reta * weta - R * wetaeta) / w
        # geometry map x = (Qb * wb) B / w
        P = Qb * wb[:, None]          # n_b x d
        x = (P.T @ tabs[(0, 0)].T) / w
        x_xi = (P.T @ tabs[(1, 0)].T - x * wxi) / w
        x_eta = (P.T @ tabs[(0, 1)].T - x * weta) / w
        # 2x2 jacobian per point, inverse-transpose applied to gradients
        det = x_xi[0] * x_eta[1] - x_xi[1] * x_eta[0]
        if (det <= 0).any():
            raise MeshStructureError(f"singular element jacobian on element {ed.param_rect}")
        # grad_x = J^{-T} grad_xi with J columns (x_xi, x_eta)
        Rx = (x_eta[1] * Rxi - x_xi[1] * Reta) / det
        Ry = (-x_eta[0] * Rxi + x_xi[0] * Reta) / det
        # second derivatives under an affine map: H_x = J^{-T} H_xi J^{-1}
        a11 = x_eta[1] / det
        a12 = -x_xi[1] / det
        a21 = -x_eta[0] / det
        a22 = x_xi[0] / det
        Rxx = a11 * (a11 * Rxixi + a12 * Rxieta) + a12 * (a11 * Rxieta + a12 * Retaeta)
        Ryy = a21 * (a21 * Rxixi + a22 * Rxieta) + a22 * (a21 * Rxieta + a22 * Retaeta)
        lap = Rxx + Ryy
        dvol = wts * det
        return x, dvol, R, Rx, Ry, lap

    def element_size(self, ed):
        """h^e: square root of the physical element area."""
        _, dvol, *_ = self.element_quadrature(ed)
        return sqrt(float(dvol.sum()))


def assemble(problem: Problem, disc: Discretization, supg=True):
    """Global (K, F) with Galerkin + SUPG terms, before boundary conditions."""
    ux, uy = problem.velocity
    unorm = sqrt(ux * ux + uy * uy)
    kappa = problem.kappa
    n = disc.space.n_f
    rows, cols, vals = [], [], []
    F = np.zeros(n)
    for ed in disc.elems:
        x, dvol, R, Rx, Ry, lap = disc.element_quadrature(ed)
        adv = ux * Rx + uy * Ry
        Ke = (kappa * (Rx * dvol) @ Rx.T + kappa * (Ry * dvol) @ Ry.T
              + (R * dvol) @ adv.T)
        Fe = np.zeros(len(ed.ien))
        if problem.source is not None:
            f = np.array([problem.source(px, py) for px, py in x.T])
            Fe += (R * dvol) @ f
        if supg and unorm > 0:
            h = sqrt(float(dvol.sum()))
            tau = tau_element(h, unorm, kappa)
            Ke += tau * (adv * dvol) @ (adv - kappa * lap).T
            if problem.source is not None:
                Fe += tau * (adv * dvol) @ f
        idx = np.array(ed.ien)
        rows.append(np.repeat(idx, len(idx)))
        cols.append(np.tile(idx, len(idx)))
        vals.append(Ke.ravel())
        F[idx] += Fe
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    return K, F


# -- Dirichlet conditions -----------------------------------------------------


def boundary_functions(space: HierarchicalSpace):
    """Indices of hierarchical functions with nonzero trace on the boundary."""
    out = set()
    for a, hf in enumerate(space.functions):
        sp_ = space.spaces[hf.level - 1]
        hv = sp_.h_values(hf.fn)
        vv = sp_.v_values(hf.fn)
        p, q = sp_.mesh.p, sp_.mesh.q
        if hv[p] == hv[0] or hv[1] == hv[-1] or vv[q] == vv[0] or vv[1] == vv[-1]:
            out.add(a)
    return sorted(out)


def _edge_quadrature(disc, ed, side, ng):
    """Gauss points along one element edge on the domain boundary: returns
    physical points, arc weights, and local basis values."""
    g, gw = _gauss(ng)
    p, q = disc.p, disc.q
    s1, s2, t1, t2 = [float(v) for v in ed.param_rect]
    if side in ("s0", "s1"):
        xs, etas, along = [-1.0 if side == "s0" else 1.0], g, (0, 1)
        jac = (t2 - t1) / 2
    else:
        xs, etas, along = g, [-1.0 if side == "t0" else 1.0], (1, 0)
        jac = (s2 - s1) / 2
    B = bernstein_grid(p, q, xs, etas)
    Bd = bernstein_grid(p, q, xs, etas, *along)
    w = B @ ed.weights
    N = ed.C @ B.T / w
    P = ed.points * ed.weights[:, None]
    x = (P.T @ B.T) / w
    # physical arc length element along the edge
    dxd = (P.T @ Bd.T - x * (Bd @ ed.weights)) / w
    arc = np.sqrt(dxd[0] ** 2 + dxd[1] ** 2) * jac
    return x, gw * arc, N


def apply_dirichlet(K, F, problem, disc):
    """Boundary-wide L2 projection of g onto the trace space, then
    elimination.  Returns (K_ii, F_i, interior index array, full-length
    solution template with boundary values filled in)."""
    space = disc.space
    bidx = boundary_functions(space)
    bpos = {a: k for k, a in enumerate(bidx)}
    nb = len(bidx)
    M = np.zeros((nb, nb))
    rhs = np.zeros(nb)
    ng = max(disc.p, disc.q) + 2
    for ed in disc.elems:
        s1, s2, t1, t2 = [float(v) for v in ed.param_rect]
        sides = []
        if s1 == 0.0:
            sides.append("s0")
        if s2 == 1.0:
            sides.append("s1")
        if t1 == 0.0:
            sides.append("t0")
        if t2 == 1.0:
            sides.append("t1")
        for side in sides:
            x, dw, N = _edge_quadrature(disc, ed, side, ng)
            loc = [k for k, a in enumerate(ed.ien) if a in bpos]
            if not loc:
                continue
            gi = [bpos[ed.ien[k]] for k in loc]
            Nl = N[loc]
            g = np.array([problem.dirichlet(px, py) for px, py in x.T])
            M[np.ix_(gi, gi)] += (Nl * dw) @ Nl.T
            rhs[gi] += (Nl * dw) @ g
    gb = np.linalg.solve(M, rhs)
    full = np.zeros(space.n_f)
    full[bidx] = gb
    interior = np.array([a for a in range(space.n_f) if a not in bpos], dtype=int)
    K = K.tocsc()
    Fi = F[interior] - K[:, bidx][interior, :] @ gb
    Kii = K[interior, :][:, interior]
    return Kii, Fi, interior, full


def solve_linear(K, F):
    """Sparse direct solve with a residual check."""
    if K.shape[0] == 0:
        return np.zeros(0)
    lu = spla.splu(K.tocsc())
    x = lu.solve(F)
    denom = np.linalg.norm(F)
    res = np.linalg.norm(K @ x - F) / (denom if denom > 0 else 1.0)
    if not np.isfinite(res) or res > 1e-10:
        raise MeshStructureError(f"linear solve residual {res:.3e} exceeds 1e-10")
    return x


def solve(problem, disc, supg=True):
    """Assemble, constrain, and solve; returns the full coefficient vector."""
    K, F = assemble(problem, disc, supg=supg)
    Kii, Fi, interior, full = apply_dirichlet(K, F, problem, disc)
    full[interior] = solve_linear(Kii, Fi)
    return full


# -- error estimation and marking ---------------------------------------------


def estimate_error(problem, disc, coeffs):
    """Per-element tau^e times the L2 norm of the strong residual."""
    ux, uy = problem.velocity
    unorm = sqrt(ux * ux + uy * uy)
    out = np.zeros(len(disc.elems))
    for k, ed in enumerate(disc.elems):
        x, dvol, R, Rx, Ry, lap = disc.element_quadrature(ed)
        c = coeffs[np.array(ed.ien)]
        resid = ux * (c @ Rx) + uy * (c @ Ry) - problem.kappa * (c @ lap)
        if problem.source is not None:
            resid = resid - np.array([problem.source(px, py) for px, py in x.T])
        h = sqrt(float(dvol.sum()))
        tau = tau_element(h, unorm, problem.kappa)
        out[k] = tau * sqrt(float((resid**2 * dvol).sum()))
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
    batch.  Elements run in reverse canonical order, so a point on a shared
    edge keeps the value of the first element that contains it."""
    ss = np.linspace(0.0, 1.0, nx)
    tt = np.linspace(0.0, 1.0, ny)
    X = np.zeros((ny, nx))
    Y = np.zeros((ny, nx))
    PHI = np.zeros((ny, nx))
    covered = np.zeros((ny, nx), dtype=bool)
    for ed in reversed(disc.elems):
        s1, s2, t1, t2 = [float(v) for v in ed.param_rect]
        ix = slice(np.searchsorted(ss, s1, "left"), np.searchsorted(ss, s2, "right"))
        iy = slice(np.searchsorted(tt, t1, "left"), np.searchsorted(tt, t2, "right"))
        xi = (2 * ss[ix] - s1 - s2) / (s2 - s1)
        eta = (2 * tt[iy] - t1 - t2) / (t2 - t1)
        B = bernstein_grid(disc.p, disc.q, xi, eta)
        w = B @ ed.weights
        x = (ed.points * ed.weights[:, None]).T @ B.T / w
        phi = coeffs[np.array(ed.ien, dtype=int)] @ (ed.C @ B.T) / w
        shape = (len(eta), len(xi))
        X[iy, ix] = x[0].reshape(shape)
        Y[iy, ix] = x[1].reshape(shape)
        PHI[iy, ix] = phi.reshape(shape)
        covered[iy, ix] = True
    if not covered.all():
        jy, jx = np.argwhere(~covered)[0]
        raise MeshStructureError(f"no element contains parametric point ({ss[jx]}, {tt[jy]})")
    return X, Y, PHI
