import math

import numpy as np
import pytest

from oddcoupling import (
    Verdict,
    block_stability,
    build_graph,
    classify,
    equilibrium_point,
    hessian,
    make_polynomial,
    make_sine_combination,
    vector_field,
    zero_pattern_equilibria,
)
from oddcoupling.corpus import bowtie_graph, complete_graph, cycle_graph
from oddcoupling.errors import ValidationError
from oddcoupling.stability import classify_with_kernel, kernel_excess

from helpers import random_connected_graph, random_graph

SIN = make_sine_combination({1: 1.0})
CUBIC = make_polynomial([-1.0, 1.0])


def test_hessian_is_laplacian_at_origin():
    G = cycle_graph(3)
    H = hessian(G, SIN, np.zeros(3))
    L = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
    assert np.allclose(H, L)
    assert np.allclose(np.sort(np.linalg.eigvalsh(H)), [0.0, 3.0, 3.0])


def test_hessian_entries():
    G = build_graph([(0, 1), (1, 2)])
    x = np.array([0.0, 0.3, 1.0])
    H = hessian(G, SIN, x)
    assert H[0, 1] == pytest.approx(-math.cos(0.3))
    assert H[1, 1] == pytest.approx(math.cos(0.3) + math.cos(0.7))
    assert H[0, 2] == 0.0
    assert np.allclose(H, H.T)


def test_hessian_kills_indicators():
    rng = np.random.default_rng(71)
    for _ in range(20):
        G = random_graph(rng)
        x = rng.uniform(-2, 2, G.n)
        H = hessian(G, SIN, x)
        for d in G.D:
            assert np.max(np.abs(H @ d)) < 1e-12


def test_hessian_matches_fd_jacobian():
    rng = np.random.default_rng(73)
    for _ in range(20):
        G = random_connected_graph(rng, n_max=6)
        f = [SIN, CUBIC][int(rng.integers(2))]
        x = rng.uniform(-2, 2, G.n)
        H = hessian(G, f, x)
        h = 1e-5
        J = np.zeros((G.n, G.n))
        for i in range(G.n):
            e = np.zeros(G.n)
            e[i] = h
            J[:, i] = (vector_field(G, f, x + e) - vector_field(G, f, x - e)) / (2 * h)
        assert np.max(np.abs(J + H)) < 1e-5 * (1 + np.max(np.abs(H)))


def test_zero_state_linearly_stable():
    for G in (complete_graph(4), cycle_graph(5), bowtie_graph()):
        p = equilibrium_point(G, SIN, np.zeros(G.n))
        rep = classify(G, SIN, p)
        assert rep.verdict == Verdict.LINEARLY_STABLE
        assert rep.zero_multiplicity == G.c
        assert rep.rank == G.n - G.c


def test_positive_edge_derivatives_imply_stability():
    from oddcoupling import newton_solve
    rng = np.random.default_rng(77)
    for _ in range(10):
        G = random_connected_graph(rng, n_max=7)
        try:
            p = newton_solve(G, SIN, 0.1 * rng.uniform(-0.3, 0.3, G.n))
        except Exception:
            continue
        if np.all(np.asarray(SIN.deriv(p.y)) > 0):
            rep = classify(G, SIN, p)
            assert rep.verdict == Verdict.LINEARLY_STABLE


def test_k4_saddle_spectrum_and_verdict():
    G = complete_graph(4)
    p = equilibrium_point(G, SIN, np.array([0.0, math.pi, 0.0, 0.0]))
    rep = classify(G, SIN, p)
    assert rep.verdict == Verdict.UNSTABLE
    assert np.allclose(rep.spectrum, [-4.0, 0.0, 2.0, 2.0], atol=1e-9)
    assert rep.zero_multiplicity == 1


def test_splay_states_normally_hyperbolic():
    # reversed sine coupling: the splay configurations minimise the energy
    f = make_sine_combination({1: -1.0})
    for n in (4, 5):
        G = complete_graph(n)
        x = np.array([2 * math.pi * k / n for k in range(n)])
        p = equilibrium_point(G, f, x)
        assert p.accepted()
        d = kernel_excess(G, f, p)
        assert d == n - 3
        rep = classify(G, f, p, local_dim=d)
        assert rep.verdict == Verdict.STABLE_NORMALLY_HYPERBOLIC
        assert rep.manifold_dim == n - 3


def test_degenerate_without_manifold_dim():
    G = complete_graph(4)
    x = np.array([0.0, 0.9, math.pi, math.pi + 0.9])
    p = equilibrium_point(G, SIN, x)
    rep = classify(G, SIN, p)  # PSD fails here: circle points are unstable
    assert rep.verdict == Verdict.UNSTABLE
    # a stable curve point without local_dim information stays unverdicted
    f = make_sine_combination({1: -1.0})
    q = equilibrium_point(G, f, x)
    rep = classify(G, f, q)
    assert rep.verdict == Verdict.DEGENERATE
    rep = classify(G, f, q, local_dim=1)
    assert rep.verdict == Verdict.STABLE_NORMALLY_HYPERBOLIC


def test_zero_multiplicity_at_least_c():
    rng = np.random.default_rng(79)
    from oddcoupling import newton_solve
    for _ in range(15):
        G = random_graph(rng, n_max=7)
        try:
            p = newton_solve(G, SIN, rng.uniform(-2, 2, G.n))
        except Exception:
            continue
        rep = classify(G, SIN, p)
        assert rep.zero_multiplicity >= G.c


def test_block_stability_zero_state():
    G = bowtie_graph()
    rep = block_stability(G, SIN, np.zeros(5))
    assert len(rep.block_reports) == 2
    assert rep.combined_verdict == Verdict.LINEARLY_STABLE
    assert all(r.verdict == Verdict.LINEARLY_STABLE for r in rep.block_reports)


def test_block_stability_mixed():
    # zero-pattern on one triangle only: that block is unstable, the other
    # stays stable, the conjunction is unstable
    G = bowtie_graph()
    x = np.array([0.0, math.pi, 0.0, 0.0, 0.0])
    rep = block_stability(G, SIN, x)
    verdicts = {tuple(v): r.verdict for v, r in zip(rep.block_vertices, rep.block_reports)}
    assert verdicts[(0, 1, 2)] == Verdict.UNSTABLE
    assert verdicts[(0, 3, 4)] == Verdict.LINEARLY_STABLE
    assert rep.combined_verdict == Verdict.UNSTABLE
    direct = classify(G, SIN, equilibrium_point(G, SIN, x))
    assert direct.verdict == Verdict.UNSTABLE


def test_block_stability_agrees_with_direct():
    G = bowtie_graph()
    pts = zero_pattern_equilibria(G, SIN, math.pi)
    assert len(pts) == 16
    for p in pts:
        d = kernel_excess(G, SIN, p)
        direct = classify(G, SIN, p, local_dim=d if d >= 1 else None)
        combined = block_stability(G, SIN, p.x)
        assert direct.verdict == combined.combined_verdict
        # one spectrum gives the same excess and the same report as the two
        # separate calls
        assert classify_with_kernel(G, SIN, p) == (d, direct)


def test_report_spectrum_is_eigvalsh():
    # reports print these values; eigh's eigenvalues differ in the last bits,
    # so a switch to eigh would change report bytes
    rng = np.random.default_rng(89)
    for _ in range(20):
        G = random_connected_graph(rng, n_max=7)
        f = [SIN, CUBIC][int(rng.integers(2))]
        p = equilibrium_point(G, f, rng.uniform(-2, 2, G.n))
        expected = tuple(np.linalg.eigvalsh(hessian(G, f, p.x)))
        assert classify(G, f, p).spectrum == expected
        assert classify_with_kernel(G, f, p)[1].spectrum == expected


def test_block_stability_validates_input():
    G = bowtie_graph()
    with pytest.raises(ValidationError):
        block_stability(G, SIN, np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValidationError):
        block_stability(build_graph([(0, 1), (2, 3)]), SIN, np.zeros(4))


def test_unstable_iff_negative_eigenvalue():
    rng = np.random.default_rng(83)
    from oddcoupling import newton_solve
    for _ in range(20):
        G = random_connected_graph(rng, n_max=6)
        try:
            p = newton_solve(G, SIN, rng.uniform(-3, 3, G.n))
        except Exception:
            continue
        rep = classify(G, SIN, p)
        assert (rep.verdict == Verdict.UNSTABLE) == (rep.spectrum[0] < -rep.zero_threshold)
