"""SUPG advection-diffusion solver: assembly oracles, patch tests,
convergence, stabilization parameter, estimator, and the adaptive loop.

The bilinear element matrices are classical hand values; higher-order checks
rely on exactness for polynomial solutions (consistent SUPG reproduces any
solution whose strong residual vanishes).  The grouped FE evaluation is
checked bit for bit against the one-element-at-a-time oracles in conftest.
"""

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
    one_level,
    sample_hierarchies,
    thirds_space,
    two_level_space,
)
from conftest import sample_field as reference_sample_field
from hasts import samples
from hasts.basis import GlobalKnots
from hasts.benchmarks import (
    manufactured_problem,
    skew45_layer_distance,
    skew45_problem,
    skew45_rect_layer_distance,
    tensor_space,
)
from hasts.extraction import default_geometry
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
    w, P = default_geometry(space)
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


@pytest.mark.parametrize("shift", [(0.4, -2.0), (1e3, -1e4)])
def test_rotated_scaled_affine_geometry_is_accepted(shift):
    space = sample_hierarchies()[1]  # four levels, elements down to 1/32
    w, P = default_geometry(space)
    A = 1.7 * np.array([[cos(0.3), -sin(0.3)], [sin(0.3), cos(0.3)]])
    disc = Discretization(space, w, P @ A.T + np.array(shift))
    area = sum(float(g.dvol.sum()) for g in disc.groups)
    assert area == pytest.approx(1.7**2, rel=1e-9)
    prob = Problem((1.0, 0.5), 1e-2, lambda x, y: 1.0)
    coeffs = solve(prob, disc)
    assert np.max(estimate_error(prob, disc, coeffs)) < 1e-9


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
        (0.7, -0.3), 1e-2, lambda x, y: x * x - 2 * y + 1, source=lambda x, y: sin(3 * x) * cos(2 * y)
    )


def skew_space(p, start):
    prob = skew45_problem()
    res = adaptive_loop(prob, tensor_space(start, p), tol=2e-3, max_iterations=2)
    assert len(res.disc.space.levels) == 2
    return res.disc.space


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: sample_hierarchies(), id="sample_hierarchies"),
        pytest.param(lambda: [extract_solve_space(seed, 8) for seed in (1, 2, 3)], id="extract_solve"),
        pytest.param(lambda: [skew_space(2, 8), skew_space(3, 4)], id="skew45"),
        pytest.param(lambda: [tensor_space(1, 1), tensor_space(4, 2, 3)], id="tensor"),
        pytest.param(lambda: [thirds_space(2), thirds_space(3)], id="thirds"),
    ],
)
def test_grouped_fe_matches_per_element_oracle(make):
    for space in make():
        for problem in (mixed_problem(), skew45_problem(), manufactured_problem()[0]):
            assert_fe_bit_identical(space, problem)


def test_problem_rejects_nonpositive_diffusivity():
    with pytest.raises(MeshStructureError):
        Problem((1.0, 0.0), 0.0, lambda x, y: 0.0)
    with pytest.raises(MeshStructureError):
        Problem((1.0, 0.0), -1.0, lambda x, y: 0.0)


def test_problem_rejects_nonfinite_diffusivity():
    for kappa in (float("nan"), float("inf")):
        with pytest.raises(MeshStructureError, match="diffusivity must be finite"):
            Problem((1.0, 0.0), kappa, lambda x, y: 0.0)


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


def test_solve_linear_refuses_singular_system():
    import scipy.sparse as sp

    with pytest.raises(MeshStructureError, match="^linear solve failed: "):
        solve_linear(sp.csr_matrix(np.ones((3, 3))), np.ones(3))


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
