"""Cycle enumeration and the chain search against their exhaustive
predecessors and networkx.

The unpruned DFS and the recursive chain search live in ``helpers`` as
``legacy_enumerate_cycles`` and ``legacy_cycle_chain``; networkx and
hypothesis serve as an oracle and a graph generator here only.
"""

import numpy as np
import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oddcoupling import build_graph, cycle_chain_number, enumerate_cycles  # noqa: E402
from oddcoupling.corpus import ladder_graph, wheel_graph  # noqa: E402
from oddcoupling.defaults import CYCLE_CAP  # noqa: E402
from oddcoupling.homology import _enumerate_up_to  # noqa: E402

from helpers import legacy_cycle_chain, legacy_enumerate_cycles  # noqa: E402

# the exhaustive search takes 2-5 s on each of these, so their chain number
# is checked against its known value instead: cells for a ladder, rim - 1
# for a wheel
LEGACY_CHAIN_TOO_SLOW = {("ladder", 16): 16, ("ladder", 17): 17, ("wheel", 12): 11}


def shuffled(G, seed):
    """G with its edges in random order and orientation, labels kept."""
    rng = np.random.default_rng(seed)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in G.edges]
    return build_graph([edges[i] for i in rng.permutation(len(edges))], n=G.n)


FAMILIES = ([("ladder", k) for k in range(10, 18)]
            + [("wheel", r) for r in range(6, 13)])


@pytest.mark.parametrize("family,size", FAMILIES)
def test_bounds_families_match_legacy(family, size):
    make = ladder_graph if family == "ladder" else wheel_graph
    G = shuffled(make(size), seed=600 + size)
    assert _enumerate_up_to(G, CYCLE_CAP) == legacy_enumerate_cycles(G, CYCLE_CAP)
    expected = ((LEGACY_CHAIN_TOO_SLOW[family, size], True)
                if (family, size) in LEGACY_CHAIN_TOO_SLOW
                else legacy_cycle_chain(G, CYCLE_CAP))
    assert cycle_chain_number(G) == expected


@st.composite
def small_graphs(draw):
    """Graphs on up to 9 vertices with at most n + 6 edges, possibly
    disconnected, with random edge order and orientation."""
    n = draw(st.integers(1, 9))
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    chosen = (draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n + 6))
              if pairs else [])
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = [(k, j) if flip else (j, k) for (j, k), flip in zip(chosen, flips)]
    return build_graph(edges, n=n)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(small_graphs())
def test_random_graphs_match_legacy(G):
    assert _enumerate_up_to(G, CYCLE_CAP) == legacy_enumerate_cycles(G, CYCLE_CAP)
    assert cycle_chain_number(G) == legacy_cycle_chain(G, CYCLE_CAP)


@st.composite
def dense_graphs(draw):
    """Graphs on 5 to 8 vertices with n to 2n edges, so that the chain
    search runs bands past the girth and stops at m - best·(g - 1)."""
    n = draw(st.integers(5, 8))
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=n, max_size=2 * n))
    return build_graph(chosen, n=n)


# a fixed draw: the legacy search takes up to about 1.3 s on an 8-vertex
# graph with 16 edges, so a random one can cost several seconds
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(dense_graphs())
def test_dense_graphs_match_legacy(G):
    assert cycle_chain_number(G) == legacy_cycle_chain(G, CYCLE_CAP)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(small_graphs())
def test_length_bands_partition_the_cycles(G):
    # the walk with a length lists the full list's cycles of that length and
    # says whether a longer cycle exists
    cycles, _ = _enumerate_up_to(G, CYCLE_CAP)
    for length in range(3, G.n + 1):
        band, cut = _enumerate_up_to(G, CYCLE_CAP, length=length)
        assert band == [cv for cv in cycles if len(cv.edges) == length]
        assert cut == any(len(cv.edges) > length for cv in cycles)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(small_graphs())
def test_cycle_count_matches_networkx(G):
    H = nx.Graph(G.edges)
    H.add_nodes_from(range(G.n))
    assert len(enumerate_cycles(G)) == sum(1 for _ in nx.simple_cycles(H))
