"""Periodic identification against a least-squares lattice test on random
small graphs.

hypothesis serves as the graph generator here only; the package does not
depend on it.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oddcoupling import build_graph, edge_space_distance  # noqa: E402

from helpers import is_winding_shift  # noqa: E402


@st.composite
def graphs_with_integer_edge_vectors(draw):
    """Graphs on up to 7 vertices with at least one edge, random orientation
    and edge order, and a small integer edge vector z."""
    n = draw(st.integers(2, 7))
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = [(k, j) if flip else (j, k) for (j, k), flip in zip(chosen, flips)]
    z = draw(st.lists(st.integers(-2, 2), min_size=len(edges), max_size=len(edges)))
    return build_graph(edges, n=n), np.array(z, dtype=float)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(graphs_with_integer_edge_vectors(),
                  st.sampled_from([2 * math.pi, math.pi, 1.0, 2.5]))
def test_winding_lattice_matches_least_squares(Gz, period):
    G, z = Gz
    d = edge_space_distance(G, period * z, 0 * z, period=period)
    if is_winding_shift(G, z):
        assert d == 0.0
    else:
        assert d == np.linalg.norm(period * z)
