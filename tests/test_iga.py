"""SUPG advection-diffusion solver: assembly oracles, patch tests,
convergence, stabilization parameter, estimator, and the adaptive loop.

The bilinear element matrices are classical hand values; higher-order checks
rely on exactness for polynomial solutions (consistent SUPG reproduces any
solution whose strong residual vanishes).  The grouped FE evaluation is
checked bit for bit against the one-element-at-a-time oracles in conftest.
"""

import warnings
from dataclasses import replace
from fractions import Fraction
from math import cos, cosh, pi, sin, sinh, sqrt

import numpy as np
import pytest

import conftest as oracle
from conftest import (
    as_mesh_corpus,
    eval_all,
    eval_function,
    extract_solve_space,
    identity_geometry,
    one_level,
    sample_hierarchies,
    thirds_space,
    two_level_space,
)
from conftest import sample_field as reference_sample_field
from test_extraction import reference_geometry
import hasts.iga
from hasts import samples
from hasts.basis import GlobalKnots
from hasts.benchmarks import (
    manufactured_problem,
    skew45_layer_distance,
    skew45_problem,
    skew45_rect_layer_distance,
    tensor_space,
)
from hasts.extraction import ElementData
from hasts.iga import (
    Discretization,
    Problem,
    adaptive_loop,
    apply_dirichlet,
    assemble,
    boundary_functions,
    estimate_error,
    mark_elements,
    sample_field,
    solve,
    solve_linear,
    tau_element,
    total_estimate,
)
from hasts.hierarchy import HierarchicalSpace, LevelMesh, refine_by_elements
from hasts.tmesh import MeshStructureError


# -- stabilization parameter ---------------------------------------------------


def test_tau_element_hand_values():
    # Pe = 1: tau = (h/2u)(coth 1 - 1)
    coth1 = cosh(1.0) / sinh(1.0)
    assert tau_element(1.0, 1.0, 0.5) == pytest.approx((coth1 - 1.0) / 2, rel=1e-14)
    # no advection: no stabilization
    assert tau_element(0.25, 0.0, 1.0) == 0.0
    # advection limit Pe >> 1: tau -> h/(2|u|)
    assert tau_element(0.01, 1.0, 1e-9) == pytest.approx(0.005, rel=1e-4)
    # diffusion limit Pe -> 0: tau -> h^2/(12 kappa)
    h, kappa = 1e-3, 1.0
    assert tau_element(h, 1.0, kappa) == pytest.approx(h * h / (12 * kappa), rel=1e-6)


def test_tau_element_monotone_in_h():
    taus = [tau_element(h, 1.0, 1e-3) for h in (0.5, 0.25, 0.125, 0.0625)]
    assert all(a > b > 0 for a, b in zip(taus, taus[1:]))


def test_tau_element_small_peclet():
    # h = 2 pe with |u| = kappa = 1 gives exactly that Peclet number and
    # tau = pe (coth pe - 1/pe); the reference carries one more series term
    for pe in np.logspace(-12, -3, 91)[:-1].tolist():
        tau = tau_element(2 * pe, 1.0, 1.0)
        want = pe * (pe / 3 - pe**3 / 45 + 2 * pe**5 / 945 - pe**7 / 4725)
        assert tau > 0
        assert abs(tau - want) <= 1e-14 * want
    # the series and the direct form meet at pe = 1e-3
    below = tau_element(2 * np.nextafter(1e-3, 0.0), 1.0, 1.0)
    at = tau_element(2e-3, 1.0, 1.0)
    assert abs(at - below) <= 1e-9 * at


# -- assembly oracles (bilinear single element) --------------------------------


def test_diffusion_stiffness_matches_hand_values():
    space = tensor_space(1, 1)
    disc = Discretization(space)
    prob = Problem((0.0, 0.0), 1.0, lambda x, y: 0.0)
    K, F = assemble(prob, disc, supg=False)
    oracle = np.array(
        [[4, -1, -1, -2], [-1, 4, -2, -1], [-1, -2, 4, -1], [-2, -1, -1, 4]]
    ) / 6.0
    assert np.allclose(K.toarray(), oracle, atol=1e-14)
    assert np.allclose(F, 0.0)


def test_advection_matrix_matches_hand_values():
    space = tensor_space(1, 1)
    disc = Discretization(space)
    base = assemble(Problem((0.0, 0.0), 1.0, lambda x, y: 0.0), disc, supg=False)[0]
    Kx = assemble(Problem((1.0, 0.0), 1.0, lambda x, y: 0.0), disc, supg=False)[0]
    # integral of N_a dN_b/dx: kron of the 1D mass and convection matrices
    conv = np.array([[-2, 2, -1, 1], [-2, 2, -1, 1], [-1, 1, -2, 2], [-1, 1, -2, 2]]) / 12.0
    assert np.allclose((Kx - base).toarray(), conv, atol=1e-14)


def test_source_load_vector_constant():
    # f = 1 on the bilinear patch: F_a = integral of N_a = 1/4 each
    space = tensor_space(1, 1)
    disc = Discretization(space)
    prob = Problem((0.0, 0.0), 1.0, lambda x, y: 0.0, source=lambda x, y: 1.0)
    _, F = assemble(prob, disc, supg=False)
    assert np.allclose(F, 0.25, atol=1e-14)


def test_element_size_is_sqrt_area():
    disc = Discretization(tensor_space(2, 2))
    h = np.concatenate([g.h for g in disc.groups])
    assert h.shape == (4,)
    assert h.tolist() == pytest.approx([0.5] * 4, abs=1e-12)


# -- the affine-map contract ---------------------------------------------------


def test_nonaffine_geometry_is_rejected():
    space = tensor_space(4, 2)
    w, P = identity_geometry(space)
    # the bilinear map (s, t) -> (s + 0.2 s t, t) is not affine on any element
    warped = P + 0.2 * np.column_stack([P[:, 0] * P[:, 1], np.zeros(len(P))])
    with pytest.raises(MeshStructureError, match="not affine"):
        Discretization(space, w, warped)
    prob = Problem((1.0, 0.0), 1e-2, lambda x, y: 0.0, weights=w, points=warped)
    with pytest.raises(MeshStructureError, match="not affine"):
        adaptive_loop(prob, space, tol=1e-3, max_iterations=2)
    # a rational map with non-constant weights
    w2 = w.copy()
    w2[6] = 2.0
    with pytest.raises(MeshStructureError, match="not affine"):
        Discretization(space, w2, P)


def rotated(P, scale=1.0):
    """P under the rotation by 0.3 scaled by 1.7 * scale."""
    A = 1.7 * scale * np.array([[cos(0.3), -sin(0.3)], [sin(0.3), cos(0.3)]])
    return P @ A.T


@pytest.mark.parametrize("shift", [(0.4, -2.0), (1e3, -1e4)])
def test_rotated_scaled_affine_geometry_is_accepted(shift):
    space = sample_hierarchies()[1]  # four levels, elements down to 1/32
    w, P = identity_geometry(space)
    disc = Discretization(space, w, rotated(P) + np.array(shift))
    area = sum(float(g.dvol.sum()) for g in disc.groups)
    assert area == pytest.approx(1.7**2, rel=1e-9)
    prob = Problem((1.0, 0.5), 1e-2, lambda x, y: 1.0)
    coeffs = solve(prob, disc)
    assert np.max(estimate_error(prob, disc, coeffs)) < 1e-9


def test_reflected_geometry_is_refused_as_singular():
    space = tensor_space(4, 2)
    w, P = identity_geometry(space)
    with pytest.raises(MeshStructureError, match=r"singular element jacobian on element \("):
        Discretization(space, w, rotated(P) * [-1.0, 1.0])


def test_overflowing_jacobian_is_refused():
    """det J of a map scaled by 1e200 overflows; it is refused by name, with
    no overflow warning and before any solve."""
    space = tensor_space(4, 2)
    w, P = identity_geometry(space)
    with pytest.raises(MeshStructureError, match=r"element jacobian determinant (nan|inf) is not finite on element \("):
        Discretization(space, w, rotated(P, 1e200))


def test_tiny_jacobian_is_refused_up_front():
    """A map scaled by 1e-160 has a subnormal det J and overflows the
    laplacian's coefficients; at 1e-150 they overflow once the estimator
    squares the residual.  Both are refused by name when the space is
    discretized, with no warning; a map scaled by 1e-60 still solves."""
    space = tensor_space(4, 2)
    w, P = identity_geometry(space)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-160, 1e-150):
            with pytest.raises(MeshStructureError, match=r"element jacobian determinant .* is too small on element \("):
                Discretization(space, w, P * scale)
        disc = Discretization(space, w, P * 1e-60)
        prob = skew45_problem()
        assert np.isfinite(estimate_error(prob, disc, solve(prob, disc))).all()


@pytest.mark.parametrize(
    "spoil",
    [
        pytest.param(lambda w, P: (w[:-1], P), id="weights_short"),
        pytest.param(lambda w, P: (w, P[:-1]), id="points_short"),
        pytest.param(lambda w, P: (np.append(w, 1.0), P), id="weights_long"),
        pytest.param(lambda w, P: (np.where(np.arange(len(w)) == 7, np.nan, w), P), id="nan_weight"),
        pytest.param(lambda w, P: (w, np.where(np.arange(P.size).reshape(P.shape) == 5, np.inf, P)), id="inf_point"),
        pytest.param(lambda w, P: (w, np.column_stack([P, 5 * P[:, 0]])), id="points_3d"),
        pytest.param(lambda w, P: (w, P[:, :1]), id="points_1d"),
    ],
)
def test_discretization_refuses_bad_geometry(spoil):
    """One finite weight and one finite point (x, y) per level-1 function, or
    a ``MeshStructureError`` before any arithmetic warns: a tilted plane in
    3-D, whose surface area is sqrt(26), is not read as a map of the plane."""
    space = tensor_space(4, 2)
    w, P = spoil(*identity_geometry(space))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshStructureError, match="one finite weight and one finite point per level-1 function"):
            Discretization(space, w, P)


def test_nonpositive_weight_is_refused():
    space = tensor_space(4, 2)
    w, P = identity_geometry(space)
    for c in (0.0, -2.0):
        with pytest.raises(MeshStructureError, match="the geometry weight .* is not positive"):
            Discretization(space, c * w, P)


def test_piecewise_affine_map_is_refused_for_p1():
    """For p = 1 the level-1 functions are only C^0, so points can make a map
    that is affine on every element but not on the whole square: here
    x = s + 0.1 |s - 1/2|, with its kink on an element side.  The library
    takes one affine map of the square only, and refuses it by name."""
    space = tensor_space(4, 1)
    w, P = identity_geometry(space)
    kinked = P + np.column_stack([0.1 * np.abs(P[:, 0] - 0.5), np.zeros(len(P))])
    with pytest.raises(MeshStructureError, match="not affine: it must be one affine map of the whole parametric square"):
        Discretization(space, w, kinked)
    Discretization(space, w, rotated(P) + [0.4, -2.0])


# -- grouped FE evaluation against the per-element oracle ----------------------


def same_bits(a, b):
    return a.dtype == b.dtype and a.size == b.size and a.tobytes() == b.tobytes()


def same_csr(a, b):
    a, b = a.tocsr(), b.tocsr()
    return all(same_bits(getattr(a, k), getattr(b, k)) for k in ("data", "indices", "indptr"))


def assert_fe_bit_identical(space, problem):
    disc = Discretization(space, problem.weights, problem.points)
    seen = []
    for g in disc.groups:
        for i, k in enumerate(g.pos):
            want = oracle.element_quadrature(disc, disc.elems[k])
            got = (g.x[i], g.dvol[i], g.R[i], g.Rx[i], g.Ry[i], g.lap[i])
            assert all(same_bits(a, b) for a, b in zip(got, want)), k
            assert g.h[i] == sqrt(float(want[1].sum()))
            seen.append(k)
    assert sorted(seen) == list(range(space.n_e))
    for supg in (False, True):
        K, F = assemble(problem, disc, supg=supg)
        K0, F0 = oracle.assemble(problem, disc, supg=supg)
        assert same_csr(K, K0)
        assert same_bits(F, F0)
    got = apply_dirichlet(K, F, problem, disc)
    want = oracle.apply_dirichlet(K0, F0, problem, disc)
    assert same_csr(got[0], want[0])
    assert all(same_bits(a, b) for a, b in zip(got[1:], want[1:]))
    coeffs = solve(problem, disc)
    assert same_bits(estimate_error(problem, disc, coeffs), oracle.estimate_error(problem, disc, coeffs))


def mixed_problem():
    """Oblique advection, a source and curved Dirichlet data: every term of
    assembly, the projection and the estimator is nonzero."""
    return Problem(
        (0.7, -0.3), 1e-2, lambda x, y: x * x - 2 * y + 1, source=lambda x, y: np.sin(3 * x) * np.cos(2 * y)
    )


def skew_space(p, start):
    prob = skew45_problem()
    res = adaptive_loop(prob, tensor_space(start, p), tol=2e-3, max_iterations=2)
    assert len(res.disc.space.levels) == 2
    return res.disc.space


ORACLE_SPACES = [
    pytest.param(lambda: sample_hierarchies(), id="sample_hierarchies"),
    pytest.param(lambda: [extract_solve_space(seed, 8) for seed in (1, 2, 3)], id="extract_solve"),
    pytest.param(lambda: [skew_space(2, 8), skew_space(3, 4)], id="skew45"),
    pytest.param(lambda: [tensor_space(1, 1), tensor_space(4, 2, 3)], id="tensor"),
    pytest.param(lambda: [thirds_space(2), thirds_space(3)], id="thirds"),
]


def weighted_affine(P):
    """Constant weight 2 and the points under x -> A x + b."""
    A, b = np.array([[1.3, -0.4], [0.5, 0.9]]), np.array([0.25, -3.0])
    return np.full(len(P), 2.0), P @ A.T + b


@pytest.mark.parametrize("make", ORACLE_SPACES)
def test_grouped_fe_matches_per_element_oracle(make):
    for space in make():
        for problem in (mixed_problem(), skew45_problem(), manufactured_problem()[0]):
            assert_fe_bit_identical(space, problem)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: extract_solve_space(1, 8), id="extract_solve"),
        pytest.param(lambda: thirds_space(3), id="thirds"),
        pytest.param(lambda: tensor_space(4, 2, 3), id="tensor"),
    ],
)
def test_grouped_fe_matches_per_element_oracle_on_weighted_affine_geometry(make):
    """Constant weight 2 and the level-1 Greville points under x -> A x + b:
    weights and points that are not the identity map's reach every stack."""
    space = make()
    w, P = weighted_affine(identity_geometry(space)[1])
    for problem in (mixed_problem(), manufactured_problem()[0]):
        assert_fe_bit_identical(space, replace(problem, weights=w, points=P))


@pytest.mark.parametrize("make", ORACLE_SPACES)
def test_affine_frame_matches_rational_quadrature(make):
    """The Gauss-point data from each element's frame under the one affine
    map agree with the general rational map's quotient rule and per-point
    jacobian, on element Bezier weights and points summed from the level-1
    geometry by the test-side reference extraction, to rounding:
    within 1e-12 of each array's largest entry, on the identity map, weight 2
    under x -> A x + b, and a rotated, scaled and shifted map.  The laplacian,
    zero on bilinear elements, is held at least to the scale of its squared
    gradient over its values."""
    for space in make():
        w, P = identity_geometry(space)
        geometries = ((w, P), weighted_affine(P), (w, rotated(P) + [0.4, -2.0]))
        for geometry, bezier in zip(geometries, reference_geometry(space, geometries), strict=True):
            disc = Discretization(space, *geometry)
            for ed, (wb, Qb) in zip(disc.elems, bezier, strict=True):
                got = oracle.element_quadrature(disc, ed)
                want = oracle.rational_element_quadrature(disc, ed, wb, Qb)
                scale = [np.abs(b).max() for b in want]
                scale[5] = max(scale[5], (scale[3] + scale[4]) ** 2 / scale[2])
                for a, b, s in zip(got, want, scale):
                    assert np.abs(a - b).max() <= 1e-12 * s, ed.param_rect


@pytest.mark.parametrize(
    "make", [pytest.param(lambda: extract_solve_space(1, 8), id="extract_solve"), pytest.param(lambda: thirds_space(3), id="thirds")]
)
def test_global_matrices_sum_in_canonical_element_order(make, monkeypatch):
    """K and the boundary mass matrix store, bit for bit, the oracle's dense
    sums of their element (element side) matrices taken one item at a time
    in canonical order, and come out in CSC."""
    disc, problem = Discretization(make()), mixed_problem()
    passed = []
    monkeypatch.setattr(hasts.iga, "solve_linear", lambda A, b: passed.append(A) or np.zeros(len(b)))
    K, F = assemble(problem, disc)
    apply_dirichlet(K, F, problem, disc)
    want = (oracle.assemble(problem, disc)[0], oracle.boundary_mass(problem, disc)[0])
    for got, M in zip((K, passed[0]), want):
        assert same_csr(got, M) and got.format == "csc"


def test_tau_is_computed_once_per_element(monkeypatch):
    """Assembly and the estimator share one tau per element."""
    calls = []
    tau = hasts.iga.tau_element
    monkeypatch.setattr(hasts.iga, "tau_element", lambda *args: calls.append(args) or tau(*args))
    problem = mixed_problem()
    disc = Discretization(extract_solve_space(2))
    estimate_error(problem, disc, solve(problem, disc))
    assert len(calls) == disc.space.n_e


def test_fe_numerics_make_no_element_data(monkeypatch):
    """Discretization, solve and the estimator read the extraction's stacks;
    only the per-element view makes ``ElementData``."""
    made = []
    init = ElementData.__init__

    def counted(self, *args):
        made.append(args[:2])
        init(self, *args)

    monkeypatch.setattr(ElementData, "__init__", counted)
    problem = mixed_problem()
    disc = Discretization(extract_solve_space(2))
    estimate_error(problem, disc, solve(problem, disc))
    assert made == []
    disc.elems[-1]
    assert len(made) == 1


def test_problem_rejects_nonpositive_diffusivity():
    with pytest.raises(MeshStructureError):
        Problem((1.0, 0.0), 0.0, lambda x, y: 0.0)
    with pytest.raises(MeshStructureError):
        Problem((1.0, 0.0), -1.0, lambda x, y: 0.0)


def test_problem_rejects_nonfinite_diffusivity():
    for kappa in (float("nan"), float("inf")):
        with pytest.raises(MeshStructureError, match="diffusivity must be finite"):
            Problem((1.0, 0.0), kappa, lambda x, y: 0.0)


def test_problem_rejects_nonfinite_velocity():
    for u in ((float("nan"), 0.0), (1.0, float("inf")), (-float("inf"), 1.0)):
        with pytest.raises(MeshStructureError, match="velocity must be finite"):
            Problem(u, 1e-2, lambda x, y: 0.0)


# -- problem data on arrays ----------------------------------------------------


def refused(prob, match):
    """solve(prob) on tensor_space(4, 2) raises MeshStructureError matching
    ``match`` before any solve, with no warning."""
    disc = Discretization(tensor_space(4, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshStructureError, match=match):
            solve(prob, disc)
    return disc


@pytest.mark.parametrize(
    "g, match",
    [
        pytest.param(lambda x, y: np.where(y > 0.5, np.inf, 0.0), r"^Dirichlet data is inf at \(", id="inf"),
        pytest.param(
            lambda x, y: (x, y),
            r"^Dirichlet data of shape \(2, \d+, 1, \d+\) does not broadcast to the points' \(\d+, 1, \d+\)$",
            id="pair",
        ),
    ],
)
def test_bad_dirichlet_data_is_refused_by_name(g, match):
    refused(Problem((1.0, 0.5), 1e-2, g), match)


def test_nan_source_is_refused_at_its_first_point():
    """A non-finite value names the first such Gauss point in canonical
    element order."""
    prob = Problem((1.0, 0.5), 1e-2, lambda x, y: 0.0, source=lambda x, y: np.where(x > 0.5, np.nan, 1.0))
    disc = refused(prob, r"^source is nan at \(")
    (g,) = disc.groups
    px, py = g.x[:, 0].ravel(), g.x[:, 1].ravel()
    k = np.argmax(px > 0.5)
    with pytest.raises(MeshStructureError) as err:
        solve(prob, disc)
    assert str(err.value) == f"source is nan at ({px[k]}, {py[k]}), not finite"


def test_scalar_problem_data_equals_array_data():
    """A scalar g and a constant source broadcast over the points: the same
    solution and estimates, bit for bit, as data returning full arrays."""
    space = extract_solve_space(1)
    scalar = Problem((0.7, -0.3), 1e-2, lambda x, y: 0.0, source=lambda x, y: 2.0)
    full = Problem((0.7, -0.3), 1e-2, lambda x, y: np.zeros_like(x), source=lambda x, y: np.full_like(x, 2.0))
    got = []
    for prob in (scalar, full):
        disc = Discretization(space)
        coeffs = solve(prob, disc)
        got.append((coeffs, estimate_error(prob, disc, coeffs)))
    assert np.abs(got[0][0]).max() > 0
    assert all(same_bits(a, b) for a, b in zip(*got))


def test_problem_data_is_called_once_per_stack():
    """On an extract-solve space, the source is called once per group of
    elements with one n_loc, on that group's (E, 1, n_g) points, for both
    assembly and the estimator; g once per n_loc of the boundary sides."""
    calls = {"source": [], "g": []}

    def counted(name, fn):
        return lambda x, y: calls[name].append((x.shape, y.shape)) or fn(x, y)

    problem = mixed_problem()
    problem = replace(problem, source=counted("source", problem.source), dirichlet=counted("g", problem.dirichlet))
    disc = Discretization(extract_solve_space(1, 8))
    estimate_error(problem, disc, solve(problem, disc))
    assert len(disc.groups) > 1
    assert calls["source"] == [(g.x[:, :1].shape,) * 2 for g in disc.groups]
    gh, gv = disc.space.grid_shape
    pos, _ = np.nonzero(disc.space.element_boxes == [0, gh - 1, 0, gv - 1])
    assert len(calls["g"]) == len(np.unique(disc.elems.n_loc[pos]))
    assert sum(shape[0] for shape, _ in calls["g"]) == len(pos)


# -- boundary handling ---------------------------------------------------------


def test_boundary_function_split():
    space = tensor_space(2, 2)
    bidx = boundary_functions(space)
    assert len(bidx) == 12  # 16 functions, 2x2 interior block
    interior = sorted(set(range(space.n_f)) - set(bidx))
    assert interior == [5, 6, 9, 10]
    # interior functions vanish on the boundary
    for a in interior:
        hf = space.functions[a]
        for s in np.linspace(0, 1, 9):
            assert eval_function(space, hf, s, 0.0) == pytest.approx(0.0, abs=1e-14)
            assert eval_function(space, hf, s, 1.0) == pytest.approx(0.0, abs=1e-14)
            assert eval_function(space, hf, 0.0, s) == pytest.approx(0.0, abs=1e-14)
            assert eval_function(space, hf, 1.0, s) == pytest.approx(0.0, abs=1e-14)


def test_boundary_functions_match_exact_oracle(hierarchies):
    """Also where an interior knot repeats p+1 times: the functions whose
    first or last p+1 knots are that knot vanish on the boundary."""
    mesh = samples.tensor_mesh(6, 4, 2, 2)
    hk = GlobalKnots([0, 0, 0, Fraction(1, 4)] + [Fraction(1, 2)] * 3 + [Fraction(3, 4), 1, 1, 1], 2)
    split = HierarchicalSpace([LevelMesh(1, mesh, hk, GlobalKnots.uniform_open(mesh.n, 2))])
    assert (split.n_f, len(boundary_functions(split))) == (8 * 6, 8 * 6 - 6 * 4)
    spaces = [one_level(mesh) for mesh in as_mesh_corpus()] + list(hierarchies)
    spaces += [thirds_space(2), thirds_space(3), split]
    for space in spaces:
        assert boundary_functions(space) == oracle.boundary_functions(space)


def test_constant_dirichlet_reproduced_exactly():
    # g = 1, f = 0, any velocity: phi = 1 everywhere (the hierarchical basis
    # spans constants, though not by a unit coefficient vector)
    space = two_level_space(4, 2)
    disc = Discretization(space)
    prob = Problem((1.0, 0.5), 1e-2, lambda x, y: 1.0)
    coeffs = solve(prob, disc)
    rng = np.random.default_rng(3)
    for _ in range(30):
        s, t = rng.uniform(0, 1, 2)
        assert float(coeffs @ eval_all(space, s, t)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p", [2, 3])
def test_linear_patch_test_on_hierarchy(p):
    # phi = 2x + 3y - 1 with matching source is reproduced to solver precision
    ux, uy = 0.7, -0.3
    exact = lambda x, y: 2 * x + 3 * y - 1
    prob = Problem((ux, uy), 1e-3, exact, source=lambda x, y: 2 * ux + 3 * uy)
    space = two_level_space(4, p)
    disc = Discretization(space)
    coeffs = solve(prob, disc)
    rng = np.random.default_rng(5)
    for _ in range(40):
        s, t = rng.uniform(0, 1, 2)
        got = float(coeffs @ eval_all(space, s, t))
        assert got == pytest.approx(exact(s, t), abs=1e-9)
    # the strong residual of the exact solution vanishes, so the estimator does
    est = estimate_error(prob, disc, coeffs)
    assert np.max(est) < 1e-9


def test_solve_linear_residual_and_empty_system():
    import scipy.sparse as sp

    rng = np.random.default_rng(7)
    A = rng.standard_normal((20, 20))
    K = sp.csr_matrix(A @ A.T + 20 * np.eye(20))
    F = rng.standard_normal(20)
    x = solve_linear(K, F)
    assert np.linalg.norm(K @ x - F) / np.linalg.norm(F) < 1e-10
    assert solve_linear(sp.csr_matrix((0, 0)), np.zeros(0)).shape == (0,)


def test_solve_linear_judges_finite_systems_near_overflow():
    """K = 1e300 I and F = 1e308 per entry: ||F|| itself overflows, so the
    norms are taken in units of max|F|.  The exact solve is accepted with no
    warning."""
    import scipy.sparse as sp

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solve_linear(1e300 * sp.identity(3, format="csr"), np.full(3, 1e308))
    assert np.allclose(x, 1e8, rtol=1e-15, atol=0)


def test_solve_linear_refuses_perturbed_solution_near_overflow(monkeypatch):
    """A solution off by 1e-8 relative is refused with its finite residual,
    not with nan."""
    import scipy.sparse as sp

    class Off:
        def __init__(self, K):
            pass

        def solve(self, F):
            return np.full(3, 1e8 * (1 + 1e-8))

    monkeypatch.setattr(hasts.iga.spla, "splu", Off)
    with pytest.raises(MeshStructureError, match=r"^linear solve residual 1\.0\d\de-08 exceeds 1e-10$"):
        solve_linear(1e300 * sp.identity(3, format="csr"), np.full(3, 1e308))


def test_solve_linear_refuses_singular_system():
    import scipy.sparse as sp

    with pytest.raises(MeshStructureError, match="^linear solve failed: "):
        solve_linear(sp.csr_matrix(np.ones((3, 3))), np.ones(3))


def test_boundary_projection_is_solved_by_solve_linear(monkeypatch):
    """The boundary mass matrix takes K's checked sparse path: a function
    without a trace among the boundary functions leaves it singular, which is
    the library's error, not a LAPACK one."""
    disc = Discretization(tensor_space(4, 2))
    prob = skew45_problem()
    K, F = assemble(prob, disc)
    on = boundary_functions(disc.space)
    inner = min(set(range(disc.space.n_f)) - set(on))
    monkeypatch.setattr(hasts.iga, "boundary_functions", lambda space: sorted(on + [inner]))
    with pytest.raises(MeshStructureError, match="^linear solve failed: "):
        apply_dirichlet(K, F, prob, disc)


# -- convergence ---------------------------------------------------------------


def l2_error(disc, coeffs, exact, n=33):
    X, Y, PHI = sample_field(disc, coeffs, n, n)
    E = PHI - np.vectorize(exact)(X, Y)
    return sqrt(float((E**2).mean()))


def test_manufactured_solution_converges_at_optimal_rate():
    prob, exact = manufactured_problem(kappa=1.0)
    errs = []
    for ne in (4, 8):
        space = tensor_space(ne, 2)
        disc = Discretization(space)
        coeffs = solve(prob, disc)
        errs.append(l2_error(disc, coeffs, exact))
    # p = 2: L2 rate 3, so halving h divides the error by ~8
    assert errs[0] / errs[1] > 6.0
    assert errs[1] < 1e-3


def test_manufactured_solution_on_hierarchy():
    prob, exact = manufactured_problem(kappa=1.0)
    space = two_level_space(8, 2)
    disc = Discretization(space)
    coeffs = solve(prob, disc)
    assert l2_error(disc, coeffs, exact) < 1e-3


# -- estimator, marking, aggregation -------------------------------------------


def test_mark_elements_threshold():
    est = [5e-4, 2e-3, 1e-3, 1.1e-3]
    assert mark_elements(est, tol=1e-3) == [1, 3]
    assert mark_elements(est, tol=1e-2) == []
    with pytest.raises(MeshStructureError):
        mark_elements(est, tol=0.0)


def test_mark_elements_refuses_nan_tolerance():
    """No estimate exceeds NaN, so a NaN tolerance would mark nothing and
    stop the adaptive loop after one iteration without a word."""
    with pytest.raises(MeshStructureError, match="tol must be positive"):
        mark_elements([5e-4, 2e-3], tol=float("nan"))


def test_total_estimate_is_root_sum_of_squares():
    assert total_estimate([3.0, 4.0]) == pytest.approx(5.0, rel=1e-15)
    assert total_estimate([]) == 0.0


def test_estimator_concentrates_at_layer():
    prob = skew45_problem()
    space = tensor_space(8, 2)
    disc = Discretization(space)
    coeffs = solve(prob, disc)
    est = estimate_error(prob, disc, coeffs)
    far, near = [], []
    for ed, e in zip(disc.elems, est):
        (near if skew45_rect_layer_distance(ed.param_rect) < 0.125 else far).append(e)
    assert max(near) > 10 * max(far)


# -- adaptive loop -------------------------------------------------------------


def test_adaptive_loop_refines_near_layer():
    prob = skew45_problem()
    res = adaptive_loop(prob, tensor_space(8, 2), tol=5e-3, max_iterations=3)
    assert len(res.history) == 3
    # the exact history of this run, pinned so refactors must reproduce it
    assert [(r.n_f, r.n_e, r.marked) for r in res.history] == [
        (100, 64, 15), (147, 109, 24), (219, 181, 39)
    ]
    for rec, want in zip(
        res.history, (0.16538757008126034, 0.11708934500897489, 0.08307488043270407)
    ):
        assert rec.total_estimate == pytest.approx(want, rel=1e-12)
    assert res.history[0].marked > 0
    assert res.history[-1].n_e > res.history[0].n_e
    # every refined element sits close to a sharp feature
    for he in res.disc.space.elements:
        if he.level >= 2:
            assert skew45_rect_layer_distance(he.param_rect) < 0.25
    # total estimate decreases strictly across iterations
    tot = [r.total_estimate for r in res.history]
    assert all(a > b for a, b in zip(tot, tot[1:]))


def test_adaptive_loop_stops_when_nothing_marked():
    prob, _ = manufactured_problem(kappa=1.0)
    res = adaptive_loop(prob, tensor_space(8, 2), tol=1.0, max_iterations=5)
    assert len(res.history) == 1
    assert res.history[0].marked == 0


def test_adaptive_loop_respects_level_cap():
    prob = skew45_problem()
    res = adaptive_loop(prob, tensor_space(4, 2), tol=1e-4,
                        max_levels=2, max_iterations=4)
    assert max(he.level for he in res.disc.space.elements) <= 2


def test_adaptive_loop_needs_an_iteration():
    """With no iteration there is no solution to return."""
    for cap in (0, -1):
        with pytest.raises(MeshStructureError, match="iterations must be >= 1"):
            adaptive_loop(skew45_problem(), tensor_space(4, 2), tol=5e-3, max_iterations=cap)


def test_adaptive_loop_refuses_tolerance_before_solving(monkeypatch):
    def never(*args):
        raise AssertionError("Discretization made")

    monkeypatch.setattr(hasts.iga, "Discretization", never)
    for tol in (float("nan"), 0.0, -1e-3):
        with pytest.raises(MeshStructureError, match="tol must be positive"):
            adaptive_loop(skew45_problem(), tensor_space(4, 2), tol)


def test_adaptive_records_keep_iterations():
    prob = skew45_problem()
    res = adaptive_loop(prob, tensor_space(4, 2), tol=5e-3,
                        max_iterations=2, keep_iterations=True)
    assert len(res.iterations) == len(res.history)
    for (disc, coeffs, est), rec in zip(res.iterations, res.history):
        assert len(coeffs) == rec.n_f
        assert len(est) == rec.n_e


# -- field sampling ------------------------------------------------------------


def test_sample_field_identity_geometry():
    space = tensor_space(2, 2)
    disc = Discretization(space)
    coeffs = np.ones(space.n_f)
    X, Y, PHI = sample_field(disc, coeffs, 9, 9)
    assert np.allclose(X[0], np.linspace(0, 1, 9), atol=1e-13)
    assert np.allclose(Y[:, 0], np.linspace(0, 1, 9), atol=1e-13)
    assert np.allclose(PHI, 1.0, atol=1e-12)


def test_sample_field_matches_pointwise_reference():
    """Batched per-element sampling against the one-point-at-a-time oracle on
    a three-level hierarchy, whose grid points fall on element edges of every
    level."""
    space = two_level_space(4, 3)
    space = refine_by_elements(space, [e for e in space.elements if e.level == 2][:3])
    assert len(space.levels) == 3
    disc = Discretization(space)
    coeffs = np.random.default_rng(2).standard_normal(space.n_f)
    for n in (9, 33):
        got = sample_field(disc, coeffs, n, n)
        want = reference_sample_field(disc, coeffs, n, n)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-14


def test_sample_field_rejects_uncovered_point():
    disc = Discretization(tensor_space(2, 2))
    disc.elems = disc.elems[1:]
    with pytest.raises(MeshStructureError, match="no element contains"):
        sample_field(disc, np.ones(disc.space.n_f), 9, 9)


def test_layer_distance_helpers_agree():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x, y = rng.uniform(0, 1, 2)
        # a degenerate rectangle reduces to the pointwise distance
        assert skew45_rect_layer_distance((x, x, y, y)) == pytest.approx(
            skew45_layer_distance(x, y), abs=1e-12
        )
    # rectangle crossing the layer
    assert skew45_rect_layer_distance((0.2, 0.4, 0.3, 0.7)) == 0.0
    # rectangle touching the outflow edge
    assert skew45_rect_layer_distance((0.9, 1.0, 0.1, 0.2)) == 0.0
