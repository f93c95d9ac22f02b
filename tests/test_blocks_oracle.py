"""Block decomposition against networkx: random small graphs, glued graphs
of up to 32 vertices with bridges, cut vertices and pendant paths, a
5,000-vertex path and a shuffled 1,000-cell ladder.

networkx and hypothesis serve as the independent oracle and the graph
generator here only; the package does not depend on them.
"""

import random

import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oddcoupling import block_decomposition, build_graph  # noqa: E402
from oddcoupling.corpus import ladder_graph  # noqa: E402

from helpers import shuffled  # noqa: E402


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


def assert_matches_networkx(G):
    dec = block_decomposition(G)
    H = nx.Graph(G.edges)
    H.add_nodes_from(range(G.n))
    assert sorted(map(list, dec.blocks)) == sorted(map(sorted, nx.biconnected_components(H)))
    expected_edges = {frozenset(frozenset(e) for e in c)
                      for c in nx.biconnected_component_edges(H)}
    got_edges = {frozenset(frozenset(G.edges[i]) for i in blk) for blk in dec.block_edges}
    assert got_edges == expected_edges
    assert dec.cut_vertices == tuple(sorted(nx.articulation_points(H)))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(small_graphs())
def test_blocks_and_cut_vertices_match_networkx(G):
    assert_matches_networkx(G)


@st.composite
def glued_graphs(draw):
    """Up to 32 vertices: cycles, cliques and pendant paths, each glued at a
    cut vertex or hung from a bridge, with a few extra chords and isolated
    vertices, then shuffled."""
    edges, n = [], 1
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.integers(1, 5))
        anchor = draw(st.integers(0, n - 1))
        new = list(range(n, n + size))
        n += size
        if draw(st.booleans()):   # hung from a bridge
            edges.append((anchor, new[0]))
            piece = new
        else:                     # glued at the anchor
            piece = [anchor] + new
        kind = draw(st.sampled_from(["cycle", "clique", "path"]))
        if kind == "path" or len(piece) < 3:
            edges += list(zip(piece, piece[1:]))
        elif kind == "cycle":
            edges += list(zip(piece, piece[1:] + piece[:1]))
        else:
            edges += [(a, b) for i, a in enumerate(piece) for b in piece[i + 1:]]
    present = {frozenset(e) for e in edges}
    for _ in range(draw(st.integers(0, 2))):
        j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if j != k and frozenset((j, k)) not in present:
            present.add(frozenset((j, k)))
            edges.append((j, k))
    n += draw(st.integers(0, 1))
    return shuffled(edges, n, random.Random(draw(st.integers(0, 2**32 - 1))))


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(glued_graphs())
def test_glued_blocks_match_networkx(G):
    assert_matches_networkx(G)


def test_long_path_matches_networkx():
    assert_matches_networkx(build_graph([(i, i + 1) for i in range(4999)]))


def test_shuffled_ladder_matches_networkx():
    L = ladder_graph(1000)
    G = shuffled(L.edges, L.n, random.Random(19))
    assert_matches_networkx(G)
    assert len(block_decomposition(G).blocks) == 1
