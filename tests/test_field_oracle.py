"""The single-state vector field against the expression it replaced,
-np.matmul(B, f(np.matmul(B^T, x))), and against the stacked field; the
integrator's bound energy gradient against B f(B^T x) and against minus the
field: equal bit for bit, signed zeros included.

The integrator's stages hold the gradient from ``bound_gradient``, while the
scipy run of the integrator oracle calls ``vector_field``; the two are
compared here directly. hypothesis serves as the generator only.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oddcoupling import (  # noqa: E402
    build_graph,
    make_polynomial,
    make_sine_combination,
    make_sine_series,
    vector_field,
)
from oddcoupling.equilibria import bound_gradient  # noqa: E402


@st.composite
def graphs(draw):
    """Graphs on 1 to 7 vertices with any edge set, random orientation and
    edge order: disconnected ones, isolated vertices and no edges at all."""
    n = draw(st.integers(1, 7))
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return build_graph([(k, j) if flip else (j, k) for (j, k), flip in zip(chosen, flips)],
                       n=n)


coefficients = st.floats(-3, 3, allow_nan=False).filter(lambda c: c != 0)
couplings = st.one_of(
    # the constructor refuses a leading coefficient, such as a subnormal one,
    # so small that some c_k / c_lead overflows
    st.lists(coefficients, min_size=1, max_size=3)
    .filter(lambda cs: all(math.isfinite(c / cs[-1]) for c in cs)).map(make_polynomial),
    st.dictionaries(st.integers(1, 4), coefficients, min_size=1, max_size=3)
    .map(make_sine_combination),
    st.tuples(st.floats(0.5, 4), st.dictionaries(st.sampled_from([1, 3, 5]), coefficients,
                                                 min_size=1, max_size=2))
    .map(lambda pa: make_sine_series(*pa)),
)
values = st.one_of(st.floats(-4, 4, allow_nan=False), st.sampled_from([0.0, -0.0]))


@st.composite
def states(draw, n):
    """Any state, or one whose field is a signed zero: x = 0 (of either
    sign per vertex) and constant states."""
    kind = draw(st.sampled_from(["any", "zero", "constant"]))
    if kind == "any":
        return np.array(draw(st.lists(values, min_size=n, max_size=n)))
    if kind == "zero":
        return np.array(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)))
    return np.full(n, draw(values))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(st.data(), graphs(), couplings)
def test_field_equals_the_matmul_expression(data, G, f):
    x = data.draw(states(G.n))
    other = data.draw(states(G.n))
    old = -np.matmul(G.B, f(np.matmul(G.Bt, x)))
    new = vector_field(G, f, x)
    assert new.shape == (G.n,)
    assert new.tobytes() == old.tobytes()
    assert np.array_equal(np.signbit(new), np.signbit(old))
    row = data.draw(st.integers(0, 1))
    stacked = vector_field(G, f, np.array([x, other] if row == 0 else [other, x]))
    assert stacked[row].tobytes() == new.tobytes()
    # the integrator's gradient, returned and written into a row of its
    # stages, is the matmul expression, and minus the field
    grad = np.matmul(G.B, f(np.matmul(G.Bt, x)))
    gradient, stages = bound_gradient(G, f), np.full((2, G.n), np.nan)
    for bound in (gradient(x), gradient(x, stages[row])):
        assert bound.tobytes() == grad.tobytes()
        assert np.array_equal(np.signbit(bound), np.signbit(grad))
        assert np.negative(bound).tobytes() == new.tobytes()
    assert stages[row].tobytes() == grad.tobytes()


@pytest.mark.parametrize("G", [
    build_graph([], n=1),
    build_graph([], n=3),
    build_graph([(0, 1), (1, 2), (2, 0), (4, 3)], n=6),
])
@pytest.mark.parametrize("f", [make_polynomial([-1.0, 1.0]),
                               make_sine_combination({1: 1.0}),
                               make_sine_series(math.pi, {1: 1.0})])
def test_field_is_a_signed_zero_where_nothing_pulls(G, f):
    # vertices with no edge, and constant states, feel no force; the sign
    # of the zero must be the old expression's
    for x in (np.zeros(G.n), np.full(G.n, -0.0), np.full(G.n, 0.7)):
        old = -np.matmul(G.B, f(np.matmul(G.Bt, x)))
        new = vector_field(G, f, x)
        assert not new.any()
        assert new.tobytes() == old.tobytes()
