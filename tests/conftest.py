"""Shared fixtures: mesh corpora and small hierarchies reused across tests,
and pointwise evaluation oracles.

The oracles are the evaluators the library used before every basis function
went through Bezier rows and Bernstein tables: recursive Cox-de Boor, one
scalar Bernstein row per point, and a field sampler that finds each point's
element by a linear scan.  Tests that compare extraction with pointwise
evaluation use them, so those checks stay independent of the library path.
"""

from math import comb

import numpy as np
import pytest

from hasts import samples
from hasts.benchmarks import tensor_space
from hasts.basis import GlobalKnots
from hasts.hierarchy import HFunction, HierarchicalSpace, LevelMesh, refine_by_elements
from hasts.tmesh import MeshStructureError


def as_mesh_corpus():
    """Analysis-suitable meshes of mixed degree: tensor grids, the figure
    reconstructions, and randomized T-junction meshes."""
    meshes = [
        samples.tensor_mesh(3, 3, 2, 2),
        samples.tensor_mesh(4, 4, 2, 2),
        samples.tensor_mesh(3, 3, 3, 3),
        samples.tensor_mesh(4, 3, 2, 3),
        samples.tensor_mesh(3, 4, 3, 2),
        samples.index_vector_mesh_a(),
        samples.index_vector_mesh_b(),
        samples.index_vector_mesh_c(),
        samples.index_vector_mesh_d(),
        samples.extension_mesh_suitable(),
        samples.random_as_mesh(2, 2, num_elements=6, removals=8, seed=1),
        samples.random_as_mesh(3, 3, num_elements=6, removals=8, seed=2),
        samples.random_as_mesh(2, 3, num_elements=6, removals=6, seed=3),
    ]
    return meshes


@pytest.fixture(scope="session")
def as_meshes():
    return as_mesh_corpus()


def one_level(mesh):
    """The single-level hierarchy of a mesh with uniform open knots."""
    return HierarchicalSpace(
        [
            LevelMesh(
                1,
                mesh,
                GlobalKnots.uniform_open(mesh.m, mesh.p),
                GlobalKnots.uniform_open(mesh.n, mesh.q),
                None,
            )
        ]
    )


def two_level_space(ne=4, p=2, marked_levels=(1,)):
    """Tensor start refined once in the lower-left corner."""
    space = tensor_space(ne, p)
    marked = [e for e in space.elements
              if e.level in marked_levels
              and float(e.param_rect[1]) <= 0.5 and float(e.param_rect[3]) <= 0.5]
    return refine_by_elements(space, marked)


def sample_hierarchies():
    """Multi-level hierarchical spaces of depth 2..4 and mixed degree."""
    out = []
    sp = two_level_space(4, 2)
    out.append(sp)
    sp3 = refine_by_elements(
        sp, [e for e in sp.elements if e.level == 2 and float(e.param_rect[1]) <= 0.25]
    )
    sp4 = refine_by_elements(
        sp3, [e for e in sp3.elements if e.level == 3 and float(e.param_rect[1]) <= 0.125]
    )
    out.append(sp4)
    out.append(two_level_space(4, 3))
    sp23 = tensor_space(4, 2, 3)
    sp23 = refine_by_elements(
        sp23, [e for e in sp23.elements if float(e.param_rect[0]) >= 0.5]
    )
    out.append(sp23)
    return out


@pytest.fixture(scope="session")
def hierarchies():
    return sample_hierarchies()


# -- pointwise evaluation oracles ------------------------------------------------


def cox_de_boor(knots, p, x):
    """B-spline N[knots](x) with local knot vector of length p+2, by the
    Cox-de Boor recursion.

    Intervals are half-open [v_i, v_{i+1}) except at the last knot, where the
    function is closed so that the partition of unity holds at the domain end.
    """
    knots = [float(v) for v in knots]
    assert len(knots) == p + 2
    return _cox_de_boor(tuple(knots), 0, p, float(x), knots[-1])


def _cox_de_boor(knots, i, p, x, closure):
    if p == 0:
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        # right-closed at the end of the support so the last span is covered
        if x == closure and knots[i] < knots[i + 1] and knots[i + 1] == closure:
            return 1.0
        return 0.0
    left = 0.0
    den = knots[i + p] - knots[i]
    if den > 0.0:
        left = (x - knots[i]) / den * _cox_de_boor(knots, i, p - 1, x, closure)
    right = 0.0
    den = knots[i + p + 1] - knots[i + 1]
    if den > 0.0:
        right = (knots[i + p + 1] - x) / den * _cox_de_boor(knots, i + 1, p - 1, x, closure)
    return left + right


def eval_function(space, fn, s, t):
    """One function of a Space (a BlendingFunction) or of a
    HierarchicalSpace (an HFunction) at (s, t), by Cox-de Boor."""
    if isinstance(fn, HFunction):
        space, fn = space.spaces[fn.level - 1], fn.fn
    return cox_de_boor(space.h_values(fn), space.mesh.p, s) * cox_de_boor(
        space.v_values(fn), space.mesh.q, t
    )


def eval_all(space, s, t):
    """Every function of the space at (s, t), in function order."""
    return np.array([eval_function(space, fn, s, t) for fn in space.functions])


def bernstein_eval(p, i, xi):
    """B_{i,p}(xi) on [-1,1], 1 <= i <= p+1."""
    if not 1 <= i <= p + 1:
        raise ValueError(f"Bernstein index {i} out of range for degree {p}")
    return comb(p, i - 1) * (1 - xi) ** (p - i + 1) * (1 + xi) ** (i - 1) / 2**p


def bernstein_deriv(p, i, xi, order=1):
    """d^order/dxi^order of B_{i,p} on [-1,1]."""
    if order == 0:
        return bernstein_eval(p, i, xi)
    if p == 0:
        return 0.0
    lo = bernstein_deriv(p - 1, i - 1, xi, order - 1) if i - 1 >= 1 else 0.0
    hi = bernstein_deriv(p - 1, i, xi, order - 1) if i <= p else 0.0
    return p * (lo - hi) / 2


def bern_index(i, j, p):
    """Bivariate Bernstein numbering a(i,j) = (p+1)(j-1) + i."""
    return (p + 1) * (j - 1) + i


def bernstein_row(p, q, xi, eta, dxi=0, deta=0):
    """All n_b bivariate Bernstein values (or mixed derivatives) at one point."""
    bu = [bernstein_deriv(p, i, xi, dxi) for i in range(1, p + 2)]
    bv = [bernstein_deriv(q, j, eta, deta) for j in range(1, q + 2)]
    out = np.empty((p + 1) * (q + 1))
    for j in range(1, q + 2):
        for i in range(1, p + 2):
            out[bern_index(i, j, p) - 1] = bu[i - 1] * bv[j - 1]
    return out


def sample_field(disc, coeffs, nx=65, ny=65):
    """phi on an nx x ny uniform parametric grid, one point at a time: each
    point takes the first element that contains it."""
    ss = np.linspace(0.0, 1.0, nx)
    tt = np.linspace(0.0, 1.0, ny)
    rects = [tuple(float(v) for v in ed.param_rect) for ed in disc.elems]
    X = np.zeros((ny, nx))
    Y = np.zeros((ny, nx))
    PHI = np.zeros((ny, nx))
    for jy, t in enumerate(tt):
        for jx, s in enumerate(ss):
            k = _locate(rects, s, t)
            ed = disc.elems[k]
            s1, s2, t1, t2 = rects[k]
            xi = (2 * s - s1 - s2) / (s2 - s1)
            eta = (2 * t - t1 - t2) / (t2 - t1)
            B = bernstein_row(disc.p, disc.q, xi, eta)
            w = float(B @ ed.weights)
            x = (ed.points * ed.weights[:, None]).T @ B / w
            PHI[jy, jx] = float(coeffs[np.array(ed.ien)] @ (ed.C @ B)) / w
            X[jy, jx], Y[jy, jx] = x
    return X, Y, PHI


def _locate(rects, s, t):
    for k, (s1, s2, t1, t2) in enumerate(rects):
        if s1 <= s <= s2 and t1 <= t <= t2:
            return k
    raise MeshStructureError(f"no element contains parametric point ({s}, {t})")
