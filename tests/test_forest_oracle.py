"""The spanning forest of ``Graph`` and the cycle basis read from it, against
networkx and the basis's own former walk.

``Graph.forest`` must be a breadth-first forest: each parent edge an edge of
G, each depth the distance from the least vertex of the component, and the
components those of networkx. ``cycle_basis`` must give the vectors, walks
and order that ``helpers.legacy_cycle_basis`` gives. networkx and hypothesis
serve as the oracle and the graph generator here only.
"""

import random

import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")

from oddcoupling import build_graph, cycle_basis  # noqa: E402
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


def assert_basis_matches_legacy(G):
    assert [(cv.vector, cv.walk) for cv in cycle_basis(G)] == \
        [(cv.vector, cv.walk) for cv in legacy_cycle_basis(G)]


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(any_graphs())
def test_random_graphs_forest_and_basis(G):
    assert_bfs_forest(G)
    assert_basis_matches_legacy(G)


@pytest.mark.parametrize("cells", [1, 2, 7, 40])
def test_shuffled_ladders_forest_and_basis(cells):
    L = ladder_graph(cells)
    G = shuffled(L.edges, L.n, random.Random(cells))
    assert_bfs_forest(G)
    assert_basis_matches_legacy(G)


def test_long_path_and_cycle():
    P = path_graph(2000)
    C = build_graph(P.edges + ((1999, 0),))
    for G in (P, C):
        assert_bfs_forest(G)
        assert_basis_matches_legacy(G)
    assert len(cycle_basis(C)) == 1 and len(cycle_basis(C)[0].walk) == 2000
