"""Block decomposition against networkx on random small graphs.

networkx and hypothesis serve as the independent oracle and the graph
generator here only; the package does not depend on them.
"""

import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oddcoupling import block_decomposition, build_graph  # noqa: E402


@st.composite
def small_graphs(draw):
    """Graphs on up to 9 vertices, possibly disconnected or with isolated
    vertices, with random edge order and orientation."""
    n = draw(st.integers(1, 9))
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = [(k, j) if flip else (j, k) for (j, k), flip in zip(chosen, flips)]
    return build_graph(edges, n=n)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(small_graphs())
def test_blocks_and_cut_vertices_match_networkx(G):
    dec = block_decomposition(G)
    H = nx.Graph(G.edges)
    H.add_nodes_from(range(G.n))
    assert sorted(map(list, dec.blocks)) == sorted(map(sorted, nx.biconnected_components(H)))
    expected_edges = {frozenset(frozenset(e) for e in c)
                      for c in nx.biconnected_component_edges(H)}
    got_edges = {frozenset(frozenset(G.edges[i]) for i in blk) for blk in dec.block_edges}
    assert got_edges == expected_edges
    assert dec.cut_vertices == tuple(sorted(nx.articulation_points(H)))
