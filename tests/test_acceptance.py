"""Acceptance gate: the ten headline properties of the package, each reported
with a single PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion list:
 1. golden local index vectors on the four shipped reconstruction meshes
 2. analysis-suitability verdicts for the extension-crossing mesh pair
 3. partition of unity on >= 10 analysis-suitable meshes
 4. local linear independence (single-level meshes and uniformly refined
    multi-level hierarchies, where the property holds and is verified)
 5. nesting: dropped coarse functions reproduced in the refined span
 6. hierarchical basis global linear independence
 7. Bezier extraction consistency
 8. linear patch test on 2-level biquadratic and bicubic hierarchies
 9. skew-advection benchmark behavior over 5 adaptive iterations
10. refinement locality of a single marked element
"""

import random
from math import sqrt

import numpy as np
import pytest

from conftest import (
    as_mesh_corpus,
    bernstein_row,
    eval_all,
    eval_function,
    local_linear_independence,
    one_level,
    sample_hierarchies,
    two_level_space,
)
from hasts import samples
from hasts.basis import Anchor, Space, anchors
from hasts.benchmarks import (
    skew45_problem,
    skew45_rect_layer_distance,
    tensor_space,
)
from hasts.extraction import extract_all
from hasts.hierarchy import (
    refine_by_elements,
    represent_coarse_in_fine,
)
from hasts.iga import Discretization, Problem, adaptive_loop, sample_field, solve


def report(num, desc, ok):
    print(f"\n[criterion {num:2d}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({desc}) failed"


# -- 1: golden local index vectors ---------------------------------------------


def test_criterion_01_golden_index_vectors():
    ok = True
    for case in sorted(samples.INDEX_VECTOR_CASES):
        factory, ((hx1, hx2), (vy1, vy2)), want_h, want_v = samples.INDEX_VECTOR_CASES[case]
        mesh = factory()
        anchor = Anchor(hx1, hx2, vy1, vy2)
        ok &= mesh.validate() == [] and anchor in anchors(mesh)
        fn = next(f for f in Space.uniform(mesh).functions if f.anchor == anchor)
        ok &= fn.h_indices == want_h and fn.v_indices == want_v
    report(1, "golden local index vectors (exact)", ok)


# -- 2: suitability verdicts ---------------------------------------------------


def test_criterion_02_suitability_verdicts():
    good, bad_pairs_good = samples.extension_mesh_suitable().is_analysis_suitable()
    bad, bad_pairs = samples.extension_mesh_unsuitable().is_analysis_suitable()
    ok = good and not bad_pairs_good and not bad and len(bad_pairs) > 0
    report(2, "analysis-suitability golden verdicts", ok)


# -- 3: partition of unity -----------------------------------------------------


def test_criterion_03_partition_of_unity():
    meshes = as_mesh_corpus()
    assert len(meshes) >= 10
    pts = np.linspace(0, 1, 20)
    worst = 0.0
    for mesh in meshes:
        space = Space.uniform(mesh)
        for s in pts:
            for t in pts:
                worst = max(worst, abs(eval_all(space, s, t).sum() - 1.0))
    report(3, f"partition of unity (worst |sum-1| = {worst:.2e} <= 1e-12)", worst <= 1e-12)


# -- 4: local linear independence ----------------------------------------------


def uniform_hierarchies():
    """Multi-level spaces whose levels are fully refined (every element marked
    each round), where local linear independence extends level by level."""
    out = []
    for p, rounds in ((2, 3), (3, 2)):
        space = tensor_space(2, p)
        for _ in range(rounds):
            space = refine_by_elements(space, list(space.elements))
        out.append(space)
    space = one_level(samples.random_as_mesh(2, 2, num_elements=4, removals=5, seed=9))
    for _ in range(2):
        space = refine_by_elements(space, list(space.elements))
    out.append(space)
    return out


def test_criterion_04_local_linear_independence():
    ok = True
    for mesh in as_mesh_corpus():
        for ed in extract_all(one_level(mesh)):
            ok &= local_linear_independence(ed) and len(ed.ien) <= ed.C.shape[1]
    hier = uniform_hierarchies()
    assert len(hier) >= 3
    for space in hier:
        assert len(space.levels) >= 3 and space.n_e <= 2000
        for ed in extract_all(space):
            ok &= local_linear_independence(ed)
    report(4, "local linear independence (rank C^e = n_loc)", ok)


# -- 5: nesting ----------------------------------------------------------------


def test_criterion_05_nesting_under_refinement():
    rng = random.Random(77)
    nprng = np.random.default_rng(55)
    space = tensor_space(4, 2)
    ok = True
    pts = nprng.random((200, 2))
    for _ in range(20):
        candidates = [e for e in space.elements if e.level < 6]
        marked = rng.sample(candidates, k=min(3, len(candidates)))
        space = refine_by_elements(space, marked, max_levels=6)
        hf = rng.choice([f for f in space.functions if f.level < len(space.levels)])
        coeffs = represent_coarse_in_fine(space, hf, hf.level + 1)
        sp_c = space.spaces[hf.level - 1]
        sp_f = space.spaces[hf.level]
        for s, t in pts:
            ref = eval_function(sp_c, hf.fn, s, t)
            got = sum(float(c) * eval_function(sp_f, f, s, t) for f, c in coeffs.items())
            ok &= abs(ref - got) < 1e-10
    report(5, "nesting: coarse functions reproduced in the fine span", ok)


# -- 6: global linear independence ---------------------------------------------


def test_criterion_06_hierarchical_basis_linear_independence():
    rng = np.random.default_rng(33)
    ok = True
    for space in sample_hierarchies():
        assert space.n_f <= 2000
        g = space.greville_points()
        extra = rng.random((space.n_f // 2 + 5, 2))
        pts = np.vstack([g, extra])
        A = np.array([eval_all(space, s, t) for s, t in pts])
        ok &= np.linalg.matrix_rank(A, tol=1e-10) == space.n_f
    report(6, "hierarchical basis linearly independent (full column rank)", ok)


# -- 7: extraction consistency -------------------------------------------------


def test_criterion_07_extraction_consistency():
    gauss, _ = np.polynomial.legendre.leggauss(5)
    worst = 0.0
    spaces = [one_level(m) for m in as_mesh_corpus()[:8]] + sample_hierarchies()
    for space in spaces:
        p, q = space.levels[0].mesh.p, space.levels[0].mesh.q
        for ed in extract_all(space):
            s1, s2, t1, t2 = (float(v) for v in ed.param_rect)
            for gx in gauss:
                for gy in gauss:
                    s = (s1 + s2) / 2 + gx * (s2 - s1) / 2
                    t = (t1 + t2) / 2 + gy * (t2 - t1) / 2
                    vals = ed.C @ bernstein_row(p, q, gx, gy)
                    for r, a in enumerate(ed.ien):
                        ref = eval_function(space, space.functions[a], s, t)
                        worst = max(worst, abs(vals[r] - ref))
    report(7, f"extraction consistency (worst = {worst:.2e} <= 1e-12)", worst <= 1e-12)


# -- 8: patch test -------------------------------------------------------------


def test_criterion_08_linear_patch_test():
    ux, uy = 0.7, -0.3
    exact = lambda x, y: 2 * x + 3 * y - 1
    prob = Problem((ux, uy), 1e-3, exact, source=lambda x, y: 2 * ux + 3 * uy)
    worst = 0.0
    for p in (2, 3):
        space = two_level_space(4, p)
        assert len(space.levels) == 2
        disc = Discretization(space)
        coeffs = solve(prob, disc)
        rng = np.random.default_rng(5)
        for _ in range(50):
            s, t = rng.uniform(0, 1, 2)
            worst = max(worst, abs(float(coeffs @ eval_all(space, s, t)) - exact(s, t)))
    report(8, f"linear patch test (max error {worst:.2e} <= 1e-9)", worst <= 1e-9)


# -- 9: skew benchmark ---------------------------------------------------------

# probe points at distance >= 0.15 from the interior layer and the outflow
# boundary layers; expected limit values 0 or 1
PROBES = [
    ((0.5, 0.25), 1.0),
    ((0.7, 0.45), 1.0),
    ((0.75, 0.3), 1.0),
    ((0.05, 0.65), 0.0),
    ((0.1, 0.7), 0.0),
    ((0.15, 0.75), 0.0),
]


def run_skew(p):
    space = tensor_space(16, p)
    return adaptive_loop(
        skew45_problem(), space, tol=2e-3, max_levels=8, max_iterations=5
    )


def test_criterion_09_skew_benchmark():
    results = {}
    ok = True
    msgs = []
    for p in (2, 3):
        res = run_skew(p)
        results[p] = res
        assert len(res.history) == 5
        els = res.disc.space.elements
        h_finest = min(float(e.param_rect[1] - e.param_rect[0]) for e in els)
        lv2 = [e.param_rect for e in els if e.level >= 2]
        near = sum(1 for r in lv2 if skew45_rect_layer_distance(r) <= 4 * h_finest)
        frac = near / len(lv2)
        tot = [r.total_estimate for r in res.history]
        dec = all(a > b for a, b in zip(tot, tot[1:]))
        X, Y, PHI = sample_field(res.disc, res.coeffs, 81, 81)
        perr = 0.0
        for (px, py), want in PROBES:
            ix = int(np.argmin(np.abs(X[0] - px)))
            iy = int(np.argmin(np.abs(Y[:, 0] - py)))
            perr = max(perr, abs(float(PHI[iy, ix]) - want))
        ok &= frac >= 0.8 and dec and perr <= 2e-2
        msgs.append(f"p={p}: frac={frac:.3f} dec={dec} probe_err={perr:.3f}")
    fewer = results[3].history[-1].n_e < results[2].history[-1].n_e
    ok &= fewer
    msgs.append(f"bicubic n_e {results[3].history[-1].n_e} < biquadratic {results[2].history[-1].n_e}: {fewer}")
    report(9, "skew benchmark (" + "; ".join(msgs) + ")", ok)


# -- 10: refinement locality ---------------------------------------------------


def test_criterion_10_refinement_locality():
    # 3-level synthetic patch: corner-refined twice
    space = two_level_space(4, 2)
    space = refine_by_elements(
        space, [e for e in space.elements if e.level == 2 and float(e.param_rect[1]) <= 0.25]
    )
    assert len(space.levels) == 3
    # mark one interior coarse element away from the refined corner
    marked = next(
        e for e in space.elements
        if e.level == 1 and float(e.param_rect[0]) == 0.5 and float(e.param_rect[2]) == 0.5
    )
    refined = refine_by_elements(space, [marked])
    before = {(e.level, e.param_rect) for e in space.elements}
    after = {(e.level, e.param_rect) for e in refined.elements}
    ok = refined.n_e == space.n_e + 3
    ok &= before - after == {(marked.level, marked.param_rect)}
    s1, s2, t1, t2 = marked.param_rect
    for lvl, (a1, a2, b1, b2) in after - before:
        # every added element is a child inside the marked element's closure
        ok &= lvl == marked.level + 1
        ok &= s1 <= a1 and a2 <= s2 and t1 <= b1 and b2 <= t2
    ok &= len(after - before) == 4
    report(10, "refinement locality (single mark: n_e + 3, children only)", ok)
