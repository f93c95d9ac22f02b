"""The stacked corrector and the batched breadth-first sampler against the
one-row-at-a-time loops they replaced (``tests/helpers.py``), bit for bit."""

import math

import numpy as np
import pytest
from helpers import correct_oracle, sample_manifold_oracle

from oddcoupling import (
    build_graph,
    equilibrium_point,
    local_dimension,
    make_polynomial,
    make_sine_combination,
    make_sine_series,
    sample_manifold,
)
from oddcoupling.continuation import (
    CAPPED,
    CONVERGED,
    _correct,
    _edge_normalized,
)
from oddcoupling.corpus import (
    book_family_point,
    book_graph,
    complete_graph,
    cycle_graph,
    theta_family_point,
    theta_graph,
)

SIN = make_sine_combination({1: 1.0})
SIN3 = make_sine_combination({1: 1.0, 3: -1.0})
SERIES = make_sine_series(math.pi, {1: 1.0})
CUBIC = make_polynomial([-1.0, 1.0])


def disjoint_union(G, H):
    return build_graph(list(G.edges) + [(u + G.n, v + G.n) for u, v in H.edges],
                       n=G.n + H.n)


def circle_point(t):
    return np.array([0.0, t, math.pi, math.pi + t])


def book_page_point(seed, pages=5):
    """Spine at (0, pi) and generic page states whose sines sum to zero."""
    rng = np.random.default_rng(seed)
    while True:
        vals = rng.uniform(-1.2, 1.2, size=pages - 1)
        s = float(np.sum(np.sin(vals)))
        if abs(s) < 0.9:
            return np.concatenate([[0.0, math.pi], vals, [-math.asin(s)]])


def assert_same_point(p, q):
    assert p.x.tobytes() == q.x.tobytes()
    assert p.y.tobytes() == q.y.tobytes()
    assert p.canonical.tobytes() == q.canonical.tobytes()
    assert p.residual.hex() == q.residual.hex()


def assert_same_sample(a, b):
    assert len(a.points) == len(b.points)
    for p, q in zip(a.points, b.points):
        assert_same_point(p, q)
    assert a.local_dim == b.local_dim
    assert a.singular_flags == b.singular_flags
    assert a.stop == b.stop
    assert a.to_dict() == b.to_dict()


def surface_cases():
    book3, book5 = book_graph(3), book_graph(5)
    c3c3 = disjoint_union(cycle_graph(3), cycle_graph(3))
    k4k4 = disjoint_union(complete_graph(4), complete_graph(4))
    return {
        "book3-50": (book3, SERIES, book_family_point(3), 0.05, 50),
        "book5-seed11": (book5, SERIES, book_page_point(11), 0.05, 300),
        "book5-seed12": (book5, SERIES, book_page_point(12), 0.05, 300),
        "theta-sin-60": (theta_graph(), SIN, theta_family_point(), 0.05, 60),
        # budgets that end inside the first entry and inside a batch
        "book5-budget1": (book5, SERIES, book_family_point(5), 0.05, 1),
        "book5-budget7": (book5, SERIES, book_family_point(5), 0.05, 7),
        "book5-budget61": (book5, SERIES, book_family_point(5), 0.05, 61),
        # two K4 curves of sin x - sin 3x: the product surface has singular lines
        "k4k4-sin3-flags": (k4k4, SIN3, np.concatenate([circle_point(0.1), circle_point(0.5)]),
                            0.2, 150),
        # a polynomial surface: two 3-cycles under x^3 - x
        "c3c3-cubic": (c3c3, CUBIC, np.array([0.0, 1.0, 0.0, 0.3, 1.3, 0.3]), 0.05, 400),
        "k4k4-sin": (k4k4, SIN, np.concatenate([circle_point(0.4), circle_point(1.3)]),
                     0.5, 150),
    }


@pytest.mark.parametrize("name", list(surface_cases()))
def test_sample_manifold_matches_oracle(name):
    G, f, x0, step, budget = surface_cases()[name]
    p0 = equilibrium_point(G, f, x0)
    got = sample_manifold(G, f, p0, step=step, budget=budget)
    assert_same_sample(got, sample_manifold_oracle(G, f, p0, step=step, budget=budget))
    if name == "k4k4-sin3-flags":
        assert got.singular_flags
    if name.startswith("book5-budget"):
        assert len(got.points) == budget


def test_correct_matches_oracle_row_by_row():
    """Short and long predictor steps make rows converge at different
    iterations or run out of iterations."""
    seen = set()
    for G, f, x0 in [(book_graph(5), SERIES, book_family_point(5)),
                     (cycle_graph(3), CUBIC, np.array([0.0, 1.0, 0.0])),
                     (complete_graph(4), SIN3, circle_point(0.7))]:
        p0 = equilibrium_point(G, f, x0)
        basis = local_dimension(G, f, p0).kernel_basis
        rows = [(x0 + h * _edge_normalized(G, sign * basis[:, j]), basis)
                for h in (0.05, 0.4, 1.5, 4.0, 40.0)
                for j in range(basis.shape[1]) for sign in (1.0, -1.0)]
        X_pred = np.array([x for x, _ in rows])
        T = np.array([b.T for _, b in rows])
        for max_iter in (30, 2):
            X, res, outcome = _correct(G, f, X_pred, T, max_iter=max_iter)
            for i, (x_pred, b) in enumerate(rows):
                want = correct_oracle(G, f, x_pred, b.T, max_iter=max_iter)
                seen.add((max_iter, int(outcome[i])))
                if want is None:
                    assert outcome[i] != CONVERGED
                    continue
                assert outcome[i] == CONVERGED
                assert X[i].tobytes() == want.tobytes()
                assert res[i].hex() == equilibrium_point(G, f, want).residual.hex()
    assert {(30, CONVERGED), (30, CAPPED), (2, CONVERGED), (2, CAPPED)} <= seen


def test_stacked_local_dimension_matches_single_calls():
    G, f, x0, step, budget = surface_cases()["k4k4-sin3-flags"]
    cloud = sample_manifold(G, f, equilibrium_point(G, f, x0), step=step, budget=budget)
    book = sample_manifold(book_graph(5), SERIES,
                           equilibrium_point(book_graph(5), SERIES, book_family_point(5)),
                           budget=40)
    for H, h, points in ((G, f, cloud.points), (book_graph(5), SERIES, book.points)):
        stacked = local_dimension(H, h, list(points))
        assert len({info.d for info in stacked}) == (2 if H is G else 1)
        for p, a in zip(points, stacked):
            b = local_dimension(H, h, p)
            assert a.d == b.d
            assert a.kernel_basis.tobytes() == b.kernel_basis.tobytes()
            assert a.kernel_basis.shape == b.kernel_basis.shape
            assert a.spectrum.values.tobytes() == b.spectrum.values.tobytes()
            assert a.spectrum.threshold == b.spectrum.threshold
            assert a.gap == b.gap
