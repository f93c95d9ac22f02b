import math

import numpy as np
import pytest

from oddcoupling import (
    Verdict,
    build_graph,
    classify,
    equilibrium_point,
    local_dimension,
    make_polynomial,
    make_sine_combination,
    make_sine_series,
    sample_manifold,
    trace_curve,
)
from oddcoupling.continuation import (
    CLOSED,
    CORRECTOR_FAILED,
    DIMENSION_JUMP,
    FRONTIER_EXHAUSTED,
    POINT_BUDGET,
    STEP_BUDGET,
)
from oddcoupling.corpus import book_family_point, book_graph, complete_graph, cycle_graph
from oddcoupling.equilibria import edge_space_distance
from oddcoupling.errors import NotOnManifoldError

SIN = make_sine_combination({1: 1.0})
CUBIC = make_polynomial([-1.0, 1.0])


def circle_point(t):
    return np.array([0.0, t, math.pi, math.pi + t])


def test_local_dimension_zero_at_origin():
    for G in (complete_graph(4), cycle_graph(5)):
        info = local_dimension(G, SIN, equilibrium_point(G, SIN, np.zeros(G.n)))
        assert info.d == 0
        assert info.kernel_basis.shape == (G.n, 0)
        assert info.gap[0] > 1.0  # spectral gap is wide open at the origin


def test_local_dimension_circle_point():
    G = complete_graph(4)
    p = equilibrium_point(G, SIN, circle_point(0.9))
    info = local_dimension(G, SIN, p)
    assert info.d == 1
    assert info.kernel_basis.shape == (4, 1)
    # tangent of (0, t, pi, pi+t) is (0,1,0,1) up to translation
    t = info.kernel_basis[:, 0]
    expected = np.array([0.0, 1.0, 0.0, 1.0]) - 0.5
    cos = abs(t @ expected) / (np.linalg.norm(t) * np.linalg.norm(expected))
    assert cos > 0.999999


def test_local_dimension_book3():
    G = book_graph(3)
    f = make_sine_series(math.pi, {1: 1.0})
    p = equilibrium_point(G, f, book_family_point(3))
    assert local_dimension(G, f, p).d == 2


def test_trace_cubic_cycle_closed():
    from oddcoupling import membership_tests
    G = cycle_graph(3)
    p0 = equilibrium_point(G, CUBIC, np.array([0.0, 1.0, 0.0]))
    sample = trace_curve(G, CUBIC, p0, max_steps=600)
    assert sample.closed
    assert sample.stop == CLOSED
    assert not sample.singular_flags
    assert all(d == 1 for d in sample.local_dim)
    assert all(p.accepted() for p in sample.points)
    assert all(membership_tests(G, CUBIC, p).passed for p in sample.points)
    for q in sample.points:
        assert classify(G, CUBIC, q, local_dim=1).verdict == Verdict.STABLE_NORMALLY_HYPERBOLIC


def test_trace_consecutive_point_spacing():
    G = cycle_graph(3)
    p0 = equilibrium_point(G, CUBIC, np.array([0.0, 1.0, 0.0]))
    sample = trace_curve(G, CUBIC, p0, step=0.05, max_steps=600)
    for a, b in zip(sample.points, sample.points[1:]):
        assert edge_space_distance(G, a.y, b.y) <= 2 * 0.05 + 1e-9


def test_trace_k4_circle_closure_and_length():
    G = complete_graph(4)
    p0 = equilibrium_point(G, SIN, circle_point(0.37))
    sample = trace_curve(G, SIN, p0, step=0.05, max_steps=800)
    assert sample.closed
    # dense parametric sweep of the known family gives the circumference
    ts = np.linspace(0.0, 2 * math.pi, 20001)
    ys = np.array([np.array([t, math.pi, math.pi + t, math.pi - t, math.pi, t]) for t in ts])
    oracle = float(np.sum(np.linalg.norm(np.diff(ys, axis=0), axis=1)))
    length = sum(
        edge_space_distance(G, a.y, b.y)
        for a, b in zip(sample.points, sample.points[1:]))
    length += edge_space_distance(G, sample.points[-1].y, p0.y, period=SIN.periodic)
    assert abs(length - oracle) / oracle < 0.01
    for q in sample.points[:: max(1, len(sample.points) // 25)]:
        assert classify(G, SIN, q, local_dim=1).verdict == Verdict.UNSTABLE


def test_trace_closure_symmetric():
    G = cycle_graph(3)
    p0 = equilibrium_point(G, CUBIC, np.array([0.0, 1.0, 0.0]))
    s1 = trace_curve(G, CUBIC, p0, max_steps=600)
    mid = s1.points[len(s1.points) // 2]
    s2 = trace_curve(G, CUBIC, mid, max_steps=600)
    assert s2.closed
    assert abs(len(s1.points) - len(s2.points)) <= 2


def test_trace_flags_singular_crossing():
    # the straight curve (0, t, pi, pi+t) for sin x - sin 3x self-intersects a
    # symmetric image at t = pi; step so that a sample lands exactly there
    G = complete_graph(4)
    f = make_sine_combination({1: 1.0, 3: -1.0})
    t0 = 0.1
    n_steps = 122
    step_t = (math.pi - t0) / n_steps
    p0 = equilibrium_point(G, f, circle_point(t0))
    sample = trace_curve(G, f, p0, step=2 * step_t, max_steps=400)
    assert sample.singular_flags, "expected a singular flag at the crossing"
    assert sample.stop == DIMENSION_JUMP
    assert sample.singular_flags == (len(sample.points) - 1,)
    flagged = sample.points[sample.singular_flags[0]]
    assert abs(flagged.x[1] - flagged.x[0] - math.pi) < 1e-6


def test_trace_stops_at_step_budget():
    G = cycle_graph(3)
    p0 = equilibrium_point(G, CUBIC, np.array([0.0, 1.0, 0.0]))
    sample = trace_curve(G, CUBIC, p0, max_steps=3)
    assert sample.stop == STEP_BUDGET
    assert len(sample.points) == 4
    assert not sample.closed and not sample.singular_flags


def test_trace_stops_when_corrector_fails():
    # a step of 5 leaves the corrector's reach on either trial length
    G = cycle_graph(3)
    p0 = equilibrium_point(G, CUBIC, np.array([0.0, 1.0, 0.0]))
    sample = trace_curve(G, CUBIC, p0, step=5.0)
    assert sample.stop == CORRECTOR_FAILED
    assert len(sample.points) == 1 and sample.singular_flags == (0,)
    assert "stop" not in sample.to_dict()


def test_sample_manifold_stops_when_frontier_exhausted():
    # two disjoint copies of K4 under sine: the product of two closed curves
    # is a compact torus, which a coarse grid covers within the budget
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    G = build_graph(k4 + [(i + 4, j + 4) for i, j in k4], n=8)
    p0 = equilibrium_point(G, SIN, np.concatenate([circle_point(0.4), circle_point(1.3)]))
    cloud = sample_manifold(G, SIN, p0, step=1.0, budget=1000)
    assert cloud.stop == FRONTIER_EXHAUSTED
    assert len(cloud.points) < 1000
    assert all(p.accepted() for p in cloud.points)
    assert "stop" not in cloud.to_dict()


def test_trace_requires_manifold():
    G = complete_graph(4)
    with pytest.raises(NotOnManifoldError):
        trace_curve(G, SIN, equilibrium_point(G, SIN, np.zeros(4)))


def test_sample_manifold_book3():
    G = book_graph(3)
    f = make_sine_series(math.pi, {1: 1.0})
    p0 = equilibrium_point(G, f, book_family_point(3))
    cloud = sample_manifold(G, f, p0, budget=50)
    assert len(cloud.points) >= 25
    assert all(p.accepted() for p in cloud.points)
    assert all(d == 2 for d in cloud.local_dim)
    assert not cloud.closed
    assert cloud.stop == POINT_BUDGET


def test_sample_manifold_requires_surface():
    G = complete_graph(4)
    p = equilibrium_point(G, SIN, circle_point(0.9))
    with pytest.raises(NotOnManifoldError):
        sample_manifold(G, SIN, p)


def test_local_dim_constant_away_from_flags():
    G = complete_graph(4)
    p0 = equilibrium_point(G, SIN, circle_point(1.1))
    sample = trace_curve(G, SIN, p0, max_steps=100)
    flagged = set(sample.singular_flags)
    dims = [d for i, d in enumerate(sample.local_dim) if i not in flagged]
    assert set(dims) == {1}
