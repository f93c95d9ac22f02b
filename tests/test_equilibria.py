import math
import tracemalloc

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from oddcoupling import (
    build_graph,
    canonical_form,
    edge_space_distance,
    energy,
    equilibrium_point,
    hessian,
    make_polynomial,
    make_sine_combination,
    make_sine_series,
    membership_tests,
    multistart_atlas,
    newton_solve,
    predict_equilibria_class,
    vector_field,
    zero_pattern_equilibria,
    zeros_in,
)
from oddcoupling.corpus import (
    complete_graph,
    cycle_graph,
    load_corpus_example,
    path_graph,
    star_graph,
)
from oddcoupling import coupling, equilibria
from oddcoupling.coupling import SIGN_MIXED, SIGN_NONNEG, SIGN_NONPOS
from oddcoupling.defaults import DEDUP_DISTANCE, ROOT_TOL
from oddcoupling.equilibria import EquilibriaClass, newton_batch, points_equivalent
from oddcoupling.errors import NoConvergenceError, NotARootError, ValidationError

from helpers import greedy_dedup, newton_oracle, random_connected_graph, random_graph

SIN = make_sine_combination({1: 1.0})
CUBIC = make_polynomial([-1.0, 1.0])  # x^3 - x


def test_vector_field_zero_state():
    G = complete_graph(4)
    assert np.allclose(vector_field(G, SIN, np.zeros(4)), 0.0)


def test_vector_field_two_body():
    G = build_graph([(0, 1)])
    out = vector_field(G, SIN, np.array([0.0, math.pi / 2]))
    assert np.allclose(out, [1.0, -1.0])


def test_component_sums_conserved():
    rng = np.random.default_rng(21)
    for _ in range(100):
        G = random_graph(rng)
        f = [SIN, CUBIC, make_sine_combination({1: 0.5, 3: 0.2})][int(rng.integers(3))]
        x = rng.uniform(-3, 3, G.n)
        F = vector_field(G, f, x)
        D = G.D
        assert np.max(np.abs(D @ F)) < 1e-12 * max(1.0, np.max(np.abs(F)))


def test_energy_zero_state():
    G = complete_graph(5)
    assert energy(G, SIN, np.zeros(5)) == 0.0


def test_energy_complete_graph_identity():
    # with f = sin(-x), energy differences reduce to the squared modulus of
    # the phase sum
    f = make_sine_combination({1: -1.0})
    rng = np.random.default_rng(30)
    for n in (4, 5, 6):
        G = complete_graph(n)
        for _ in range(5):
            x = rng.uniform(-math.pi, math.pi, n)
            lhs = energy(G, f, x) - energy(G, f, np.zeros(n))
            rhs = 0.5 * abs(np.exp(1j * x).sum()) ** 2 - n * n / 2.0
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_gradient_identity_random():
    rng = np.random.default_rng(33)
    fams = [SIN, CUBIC, make_sine_combination({1: 1.0, 2: -0.5})]
    for _ in range(100):
        G = random_graph(rng)
        f = fams[int(rng.integers(3))]
        x = rng.uniform(-2, 2, G.n)
        F = vector_field(G, f, x)
        h = 1e-5 * (1.0 + np.max(np.abs(x)))
        grad = np.zeros(G.n)
        for i in range(G.n):
            e = np.zeros(G.n)
            e[i] = h
            grad[i] = (energy(G, f, x + e) - energy(G, f, x - e)) / (2 * h)
        assert np.linalg.norm(F + grad) / (1.0 + np.linalg.norm(F)) < 1e-6


def test_translation_equivariance():
    rng = np.random.default_rng(35)
    for _ in range(20):
        G = random_graph(rng)
        x = rng.uniform(-2, 2, G.n)
        F = vector_field(G, SIN, x)
        for d in G.D:
            assert np.allclose(vector_field(G, SIN, x + 1.7 * d), F, atol=1e-12)


def test_newton_from_zero():
    G = complete_graph(4)
    p = newton_solve(G, SIN, np.zeros(4))
    assert p.residual == 0.0
    assert np.allclose(p.x, 0.0)


def test_newton_two_body_cubic():
    G = build_graph([(0, 1)])
    p = newton_solve(G, CUBIC, np.array([0.0, 0.9]))
    assert p.residual < 1e-10
    assert np.allclose(p.canonical, [-0.5, 0.5], atol=1e-9)


def test_newton_onto_circle_family():
    G = complete_graph(4)
    x0 = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2]) + 0.05
    p = newton_solve(G, SIN, x0)
    assert p.residual < 1e-10
    rep = membership_tests(G, SIN, p)
    assert rep.passed
    assert abs(float(p.y @ np.asarray(SIN(p.y)))) < 1e-9


def test_newton_rejects_bad_input():
    G = complete_graph(3)
    with pytest.raises(ValidationError):
        newton_solve(G, SIN, np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        newton_solve(G, SIN, np.zeros(5))


def test_newton_no_convergence():
    G = build_graph([(0, 1)])
    with pytest.raises(NoConvergenceError):
        newton_solve(G, CUBIC, np.array([0.0, 0.9]), max_iter=1)


def test_multistart_tree_lands_on_zero_patterns():
    G = star_graph(4)
    atlas = multistart_atlas(G, SIN, n_starts=200, seed=11, box_radius=math.pi)
    assert atlas.points
    for p in atlas.points:
        ratio = p.y / math.pi
        assert np.max(np.abs(ratio - np.round(ratio))) < 1e-6


def test_multistart_deterministic():
    G = cycle_graph(3)
    a1 = multistart_atlas(G, CUBIC, n_starts=60, seed=5, box_radius=2.0)
    a2 = multistart_atlas(G, CUBIC, n_starts=60, seed=5, box_radius=2.0)
    assert len(a2.points) == len(a1.points)
    for p, q in zip(a1.points, a2.points):
        assert np.array_equal(p.x, q.x)


def test_zero_pattern_counts_and_residuals():
    pts = zero_pattern_equilibria(path_graph(3), SIN, math.pi)
    assert len(pts) == 4
    assert all(p.residual <= 1e-12 for p in pts)
    k3 = complete_graph(3)
    pts = zero_pattern_equilibria(k3, CUBIC, 1.0)
    assert len(pts) == 4
    assert all(p.residual <= 1e-12 for p in pts)


def test_zero_pattern_pairwise_distinct():
    for G, f, z in [(path_graph(3), SIN, math.pi), (cycle_graph(5), SIN, math.pi)]:
        pts = zero_pattern_equilibria(G, f, z)
        assert len(pts) == 2 ** (G.n - 1)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert not points_equivalent(G, f, pts[i], pts[j])


def test_zero_pattern_not_a_root():
    increasing = make_polynomial([1.0, 1.0])  # x + x^3
    with pytest.raises(NotARootError):
        zero_pattern_equilibria(path_graph(3), increasing, 1.0)
    with pytest.raises(NotARootError):
        zero_pattern_equilibria(path_graph(3), SIN, 0.0)
    with pytest.raises(ValidationError):
        zero_pattern_equilibria(build_graph([(0, 1), (2, 3)]), SIN, math.pi)


def test_zero_pattern_root_test_ignores_scale():
    # an absolute |f(z)| <= 1e-10 refused pi for 1e6 sin x, where
    # f(pi) = 1.2e-10, and took 1.5 for 1e-12 (x - x^3)
    pts = zero_pattern_equilibria(path_graph(3), make_sine_combination({1: 1e6}), math.pi)
    assert len(pts) == 4 and all(p.accepted() for p in pts)
    with pytest.raises(NotARootError):
        zero_pattern_equilibria(path_graph(3), make_polynomial([1e-12, -1e-12]), 1.5)
    # near a double root the Newton step f / f' is 5e-8, and |f| = 4e-14 is
    # within ROOT_TOL of its term sum 4
    pts = zero_pattern_equilibria(path_graph(2), make_polynomial([1.0, -2.0, 1.0]), 1.0 + 1e-7)
    assert len(pts) == 2 and all(p.accepted() for p in pts)


def test_membership_zero_point():
    G = complete_graph(4)
    rep = membership_tests(G, SIN, equilibrium_point(G, SIN, np.zeros(4)))
    assert rep.skew_norm == 0.0
    assert rep.dist_f_from_cycle_space == 0.0
    assert rep.dist_y_from_cocycle_space == 0.0
    assert rep.passed


def test_membership_constructed_cycle_point():
    G = cycle_graph(3)
    p = equilibrium_point(G, CUBIC, np.array([0.0, 1.0, 0.0]))
    rep = membership_tests(G, CUBIC, p)
    assert rep.passed


def test_membership_random_non_equilibrium():
    rng = np.random.default_rng(41)
    G = complete_graph(4)
    for _ in range(20):
        x = rng.uniform(-2, 2, 4)
        p = equilibrium_point(G, SIN, x)
        if p.residual > 1e-3:  # genuinely away from the equilibrium set
            rep = membership_tests(G, SIN, p)
            assert not rep.passed


def test_predict_classes():
    G = complete_graph(3)
    cubic_pure = make_polynomial([0.0, 1.0])
    assert predict_equilibria_class(G, cubic_pure).kind == EquilibriaClass.ONLY_ZERO
    assert predict_equilibria_class(G, CUBIC).kind == EquilibriaClass.NO_CONCLUSION
    inc = make_polynomial([1.0, 1.0])
    rep = predict_equilibria_class(G, inc)
    assert rep.kind == EquilibriaClass.ONLY_ZERO
    assert rep.global_convergence
    assert predict_equilibria_class(G, SIN).kind == EquilibriaClass.NO_CONCLUSION
    with pytest.raises(ValidationError):
        predict_equilibria_class(build_graph([], n=2), SIN)


def test_prediction_of_a_tiny_sine_has_one_witness():
    # against an absolute tolerance, each of 256 grid points read as a root
    f = make_sine_series(math.pi, {1: 2.35e-175})
    rep = predict_equilibria_class(path_graph(2), f)
    assert len(rep.nonzero_roots) == 1
    assert abs(rep.nonzero_roots[0] - math.pi) < 1e-9


@pytest.mark.parametrize("make", [lambda: make_sine_combination({1: 1.0, 3: -0.5}),
                                  lambda: make_sine_series(1.7, {1: 0.8, 3: -0.3}),
                                  lambda: make_polynomial([1.0, -2.5, 1.0])],
                         ids=["sine_sum", "sine_series", "odd_poly"])
def test_prediction_scans_each_coupling_once(monkeypatch, make):
    # the prediction and sign_on_positives share one scan of the family's
    # window; a fresh coupling, since the scan is cached on it
    f, calls = make(), []

    def counted(*args):
        calls.append(args)
        return zeros_in(*args)

    monkeypatch.setattr(coupling, "zeros_in", counted)
    predict_equilibria_class(path_graph(2), f)
    assert len(calls) == 1
    predict_equilibria_class(cycle_graph(3), f)
    assert f.sign_on_positives == SIGN_MIXED
    assert len(calls) == 1


@pytest.mark.parametrize("a", np.linspace(0.3, 2.5, 23))
def test_prediction_finds_both_roots_of_a_close_pair(a):
    # f = x (x^2 - a)(x^2 - a - eps): y = sqrt(a) on the 2-vertex path is an
    # equilibrium, yet the grid scan met no sign change in the pair's cell
    # and the prediction read only_zero
    for eps in (1e-2, 1e-3, 1e-4, 3e-5, 1e-5, 1e-6):
        f = make_polynomial([a * (a + eps), -(2 * a + eps), 1.0])
        rep = predict_equilibria_class(path_graph(2), f)
        assert rep.kind == EquilibriaClass.NO_CONCLUSION, eps
        assert f.sign_on_positives == SIGN_MIXED, eps
        pair = [math.sqrt(a), math.sqrt(a + eps)]
        if len(rep.nonzero_roots) == 1:
            # f's dip between the two is within ROOT_TOL of its term sum
            # there, so they are one tangential root, listed at the dip's
            # bottom: every pair with eps = 1e-6, and a = 2.5 with eps = 1e-5,
            # 3.2e-6 apart. The dip still passes the rounding error of f
            (r,) = rep.nonzero_roots
            assert eps == 1e-6 or (a, eps) == (2.5, 1e-5)
            assert pair[0] < r < pair[1]
            assert abs(float(f(r))) <= ROOT_TOL * float(f._term_scale(r))
            assert -float(f(r)) > float(f._sign_floor(r))
        else:
            assert np.allclose(rep.nonzero_roots, pair, rtol=0.0, atol=1e-9), eps


@pytest.mark.parametrize("u_roots, want", [
    # two simple roots in the first cell of the uniform grid, which holds no
    # sign change of f or f', and a double root
    ([1e-4, 4e-4, 9.0, 9.0], [0.01, 0.02, 3.0]),
    # a pair 3.2e-7 apart, whose dip is 1e-14 of the term sum
    ([2.5, 2.500001], [math.sqrt(2.500001 - 5e-7)]),
    # x - 3 x^3 + 1e-5 x^5: roots at 0.577 and 547.7 in a window to 3e5
    ([(3.0 - math.sqrt(9.0 - 4e-5)) / 2e-5, (3.0 + math.sqrt(9.0 - 4e-5)) / 2e-5],
     [0.5773505899, 547.7222532]),
])
def test_prediction_sees_each_sign_change(u_roots, want):
    f = make_polynomial(np.polynomial.polynomial.polyfromroots(u_roots))
    rep = predict_equilibria_class(path_graph(2), f)
    assert f.sign_on_positives == SIGN_MIXED
    assert rep.kind == EquilibriaClass.NO_CONCLUSION
    assert np.allclose(rep.nonzero_roots, want, rtol=1e-6, atol=0.0)


def test_prediction_takes_no_overflow_for_a_root():
    # x + 1e-300 x^3 is increasing with no positive root, but overflows in
    # the scan window, which the Cauchy bound stretches to 1e300
    f = make_polynomial([1.0, 0.0, 1e-300])
    with np.errstate(over="ignore", invalid="ignore"):
        rep = predict_equilibria_class(path_graph(2), f)
        assert f.sign_on_positives == SIGN_NONNEG
    assert rep.kind == EquilibriaClass.ONLY_ZERO
    assert rep.nonzero_roots == ()
    assert rep.global_convergence


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(simple=st.lists(st.floats(-2.5, 1.0).map(lambda e: 10.0 ** e), max_size=3),
                  double=st.none() | st.floats(-2.5, 1.0).map(lambda e: 10.0 ** e),
                  c=st.floats(0.01, 100.0) | st.floats(-100.0, -0.01))
def test_prediction_of_a_polynomial_built_from_its_roots(simple, double, c):
    # f = c x p(x^2), p with simple roots at the squares of ``simple`` and a
    # double root at the square of ``double``, spread over three decades.
    # Each root in a cell of its own: the scan does not promise to find
    # three in one cell
    doubled = [] if double is None else [double]
    roots = sorted(simple + doubled)
    u = [r * r for r in simple + doubled + doubled]
    f = make_polynomial(c * np.polynomial.polynomial.polyfromroots(u) if u else [c])
    lo, hi = f.positive_zeros.interval
    xs = f._scan_grid(lo, hi, f.scan_resolution(lo, hi))
    hypothesis.assume(np.all(np.diff(np.searchsorted(xs, roots)) > 0))
    rep = predict_equilibria_class(path_graph(2), f)
    assert len(rep.nonzero_roots) == len(roots)
    for r, want in zip(rep.nonzero_roots, roots):
        # a double root is where |f| <= ROOT_TOL times its term sum, which
        # holds some 1e-6 times the root either side of it
        assert abs(r - want) <= (1e-5 if want == double else 1e-9) * max(1.0, want)
    # f changes sign exactly at a root of odd multiplicity
    if simple:
        assert f.sign_on_positives == SIGN_MIXED
        assert rep.kind == EquilibriaClass.NO_CONCLUSION
    else:
        assert f.sign_on_positives == (SIGN_NONNEG if c > 0 else SIGN_NONPOS)
        assert rep.kind == (EquilibriaClass.DISCRETE if roots else EquilibriaClass.ONLY_ZERO)


def test_winding_identification():
    G = complete_graph(4)
    T = 2 * math.pi
    x = np.array([0.0, 1.0, math.pi, math.pi + 1.0])
    x_wound = x + T * np.array([0.0, 1.0, 0.0, 1.0])
    p = equilibrium_point(G, SIN, x)
    q = equilibrium_point(G, SIN, x_wound)
    assert edge_space_distance(G, p.y, q.y, period=T) < 1e-9
    assert points_equivalent(G, SIN, p, q)
    # a half-period shift is not in the lattice
    r = equilibrium_point(G, SIN, x + math.pi * np.array([0.0, 1.0, 0.0, 1.0]))
    assert edge_space_distance(G, p.y, r.y, period=T) > 1.0


def test_canonical_form_zero_mean():
    rng = np.random.default_rng(55)
    for _ in range(10):
        G = random_graph(rng)
        x = rng.uniform(-3, 3, G.n)
        canon = canonical_form(G, x)
        D = G.D
        assert np.max(np.abs(D @ canon)) < 1e-12


def test_accepted_points_pass_membership():
    rng = np.random.default_rng(60)
    for _ in range(10):
        G = random_connected_graph(rng, n_max=6)
        try:
            p = newton_solve(G, SIN, rng.uniform(-2, 2, G.n))
        except NoConvergenceError:
            continue
        assert membership_tests(G, SIN, p).passed


def test_stacked_distance_is_bitwise_rowwise():
    rng = np.random.default_rng(67)
    for _ in range(20):
        G = random_graph(rng, n_max=12, p=0.5)
        Y = rng.uniform(-8, 8, (50, G.m))
        y = rng.uniform(-8, 8, G.m)
        # the single-image distance is the norm that reports have always printed
        plain = edge_space_distance(G, Y, y)
        assert plain.tolist() == [np.linalg.norm(row - y) for row in Y]
        for period in (2 * math.pi, 1.5):
            stacked = edge_space_distance(G, Y, y, period=period)
            assert stacked.tolist() == [edge_space_distance(G, row, y, period=period)
                                        for row in Y]


def test_stacked_field_and_hessian_are_bitwise_rowwise():
    rng = np.random.default_rng(29)
    for f in (SIN, CUBIC, make_sine_combination({1: 1.0, 3: -0.4})):
        for _ in range(20):
            G = random_graph(rng, n_max=12, p=0.5)
            X = rng.uniform(-4, 4, (30, G.n))
            assert vector_field(G, f, X).tolist() == [vector_field(G, f, x).tolist()
                                                      for x in X]
            assert hessian(G, f, X).tolist() == [hessian(G, f, x).tolist() for x in X]


ORACLE_ATLASES = pytest.mark.parametrize("name, box_radius", [
    ("k4-sin", math.pi + 0.3),
    ("k4-sin3", math.pi + 0.3),
    ("c3-cubic", 2.0),
    ("book3-sin", math.pi + 0.3),
    ("theta-sin", math.pi + 0.3),
    ("bowtie-cubic", 2.0),
    ("cover7-cubic", 2.0),
    ("c5-sin", math.pi + 0.3),
])


@ORACLE_ATLASES
def test_atlas_dedup_matches_greedy_oracle(name, box_radius, monkeypatch):
    G, f, _ = load_corpus_example(name)
    n_starts, seed = 150, 17
    # blocks of 7 starts, so that the last block is a partial one
    monkeypatch.setattr(equilibria, "NEWTON_BLOCK", 7 * G.n * G.n)
    atlas = multistart_atlas(G, f, n_starts=n_starts, seed=seed, box_radius=box_radius)
    starts = np.random.default_rng(seed).uniform(-box_radius, box_radius,
                                                 size=(n_starts, G.n))
    converged = []
    for x0 in starts:
        x, _, stop = newton_oracle(G, f, x0, max_iter=80)
        if stop == "converged":
            converged.append(equilibrium_point(G, f, x))
    converged.sort(key=lambda p: (p.residual, tuple(p.canonical)))
    kept, wound = greedy_dedup(G, f, converged, DEDUP_DISTANCE)
    assert atlas.n_converged == len(converged)
    assert [(p.x.tolist(), p.residual) for p in atlas.points] == [
        (p.x.tolist(), p.residual) for p in kept]
    if f.periodic is not None:
        assert wound > 0


@ORACLE_ATLASES
@pytest.mark.parametrize("n_starts, max_iter", [(150, 80), (1, 80), (150, 1)])
def test_newton_batch_matches_oracle(name, box_radius, n_starts, max_iter):
    G, f, _ = load_corpus_example(name)
    starts = np.random.default_rng(17).uniform(-box_radius, box_radius,
                                               size=(n_starts, G.n))
    X, res, stop = newton_batch(G, f, starts, max_iter)
    reason = {equilibria.CONVERGED: "converged", equilibria.STALLED: "stalled",
              equilibria.CAPPED: "capped"}
    messages = {"stalled": "line search stalled at residual {:.3e}",
                "capped": f"no convergence after {max_iter} iterations (residual {{:.3e}})"}
    for i, x0 in enumerate(starts):
        x, r, why = newton_oracle(G, f, x0, max_iter)
        assert (X[i].tolist(), float(res[i]), reason[stop[i]]) == (x.tolist(), r, why)
        if why == "converged":
            if i < 10:
                p = newton_solve(G, f, x0, max_iter=max_iter)
                assert (p.x.tolist(), p.residual) == (x.tolist(), r)
        else:
            with pytest.raises(NoConvergenceError) as exc:
                newton_solve(G, f, x0, max_iter=max_iter)
            assert str(exc.value) == messages[why].format(r)


def test_atlas_memory_is_bounded_by_blocks():
    # one unblocked stack of all 1000 starts peaks near 14 MB
    cells = 8
    k = cells + 1
    edges = ([(i, i + 1) for i in range(cells)] + [(k + i, k + i + 1) for i in range(cells)]
             + [(i, k + i) for i in range(k)])
    G = build_graph(edges, n=2 * k)
    tracemalloc.start()
    try:
        atlas = multistart_atlas(G, make_polynomial([1.0, 1.0]), n_starts=1000, seed=5,
                                 box_radius=3.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert atlas.n_converged > 0
    assert peak < 8 * 2**20
