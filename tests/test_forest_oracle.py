"""The spanning forest of ``Graph`` and the cycle basis read from it, against
networkx and the basis's own former walk; the operators B, Bt and D, built on
first use, against the eager build they replaced.

``Graph.forest`` must be a breadth-first forest: each parent edge an edge of
G, each depth the distance from the least vertex of the component, and the
components those of networkx. ``cycle_basis`` must give the vectors, walks
and order that ``helpers.legacy_cycle_basis`` gives. networkx and hypothesis
serve as the oracle and the graph generator here only.
"""

import copy
import pickle
import random

import numpy as np
import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")

from oddcoupling import Graph, build_graph, cycle_basis  # noqa: E402
from oddcoupling.corpus import ladder_graph, path_graph  # noqa: E402

from helpers import any_graphs, legacy_cycle_basis, shuffled  # noqa: E402


def assert_bfs_forest(G):
    H = nx.Graph(G.edges)
    H.add_nodes_from(range(G.n))
    components = sorted(map(sorted, nx.connected_components(H)))
    assert G.c == len(components)
    for index, members in enumerate(components):
        root = members[0]
        assert G.forest[root] == (-1, -1, 0)
        depth = nx.shortest_path_length(H, source=root)
        for v in members:
            assert G.component_of[v] == index
            parent, edge, d = G.forest[v]
            assert d == depth[v]
            if v != root:
                assert set(G.edges[edge]) == {parent, v}


def eager_operators(G):
    """B, Bt and D as ``Graph.__init__`` built them for every graph, before
    they were built on first use."""
    B = np.zeros((G.n, G.m))
    for idx, (j, k) in enumerate(G.edges):
        B[j, idx], B[k, idx] = -1.0, 1.0
    D = np.zeros((G.c, G.n))
    D[list(G.component_of), range(G.n)] = 1.0
    ops = (B, np.ascontiguousarray(B.T), D)
    for op in ops:
        op.setflags(write=False)
    return ops


def layout(op):
    return (op.shape, op.dtype, op.strides, op.tobytes(),
            *(op.flags[k] for k in ("C_CONTIGUOUS", "F_CONTIGUOUS", "WRITEABLE", "OWNDATA")))


def assert_operators_match_eager(G):
    for name in ("B", "Bt", "D"):   # unbuilt until read
        with pytest.raises(AttributeError):
            getattr(Graph, name).__get__(G)
    assert [layout(op) for op in (G.B, G.Bt, G.D)] == [layout(op) for op in eager_operators(G)]
    # once built, a read is a plain slot read
    assert all(getattr(Graph, name).__get__(G) is getattr(G, name) for name in ("B", "Bt", "D"))


def assert_basis_matches_legacy(G):
    assert [(cv.vector, cv.walk) for cv in cycle_basis(G)] == \
        [(cv.vector, cv.walk) for cv in legacy_cycle_basis(G)]


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(any_graphs())
def test_random_graphs_forest_and_basis(G):
    assert_bfs_forest(G)
    assert_basis_matches_legacy(G)
    assert_operators_match_eager(G)


@pytest.mark.parametrize("cells", [1, 2, 7, 40])
def test_shuffled_ladders_forest_and_basis(cells):
    L = ladder_graph(cells)
    G = shuffled(L.edges, L.n, random.Random(cells))
    assert_bfs_forest(G)
    assert_basis_matches_legacy(G)
    assert_operators_match_eager(G)


def test_long_path_and_cycle():
    P = path_graph(2000)
    C = build_graph(P.edges + ((1999, 0),))
    for G in (P, C):
        assert_bfs_forest(G)
        assert_basis_matches_legacy(G)
        assert_operators_match_eager(G)
    assert len(cycle_basis(C)) == 1 and len(cycle_basis(C)[0].walk) == 2000


def test_graphs_copy_and_pickle():
    G = ladder_graph(3)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        G.nope
    for H in (copy.copy(G), copy.deepcopy(G), pickle.loads(pickle.dumps(G))):
        assert H == G and H.forest == G.forest and H.edge_index(0, 1) == G.edge_index(0, 1)
        # the values only: a deep copy or an unpickled array is writeable
        assert [op.tobytes() for op in (H.B, H.Bt, H.D)] == \
            [op.tobytes() for op in eager_operators(G)]
