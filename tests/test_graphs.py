import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcoupling import (
    block_decomposition,
    build_graph,
    incidence_rank,
)
from oddcoupling.cli import run
from oddcoupling.corpus import path_graph
from oddcoupling.errors import DuplicateEdgeError, SelfLoopError, ValidationError
from oddcoupling.graphs import graph_from_dict, graph_to_dict, induced_subgraph, parse_edge_list

from helpers import any_graphs, elimination_rank, random_graph


def test_triangle():
    G = build_graph([(0, 1), (1, 2), (2, 0)])
    assert (G.n, G.m, G.c) == (3, 3, 1)
    assert G.edges == ((0, 1), (1, 2), (2, 0))


def test_two_components():
    G = build_graph([(0, 1), (2, 3)])
    assert G.c == 2
    assert G.component_of == (0, 0, 1, 1)


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_graph([(0, 0)])


def test_duplicate_rejected_both_orientations():
    with pytest.raises(DuplicateEdgeError):
        build_graph([(0, 1), (1, 0)])
    with pytest.raises(DuplicateEdgeError):
        build_graph([(0, 1), (2, 3), (0, 1)])


def test_bad_labels():
    with pytest.raises(ValidationError):
        build_graph([(-1, 2)])
    with pytest.raises(ValidationError):
        build_graph([(0, 1)], n=1)


def test_isolated_vertices_via_n_override():
    G = build_graph([(0, 1)], n=4)
    assert G.n == 4
    assert G.c == 3
    assert G.degree(3) == 0


def test_single_edge_incidence_column():
    G = build_graph([(0, 1)])
    assert G.B[:, 0].tolist() == [-1, 1]


def test_incidence_rank_triangle_and_k4():
    tri = build_graph([(0, 1), (1, 2), (2, 0)])
    assert incidence_rank(tri) == 2
    k4 = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert k4.B.shape == (4, 6)
    assert incidence_rank(k4) == 3
    assert elimination_rank(k4.B) == 3


def test_incidence_columns_sum_to_zero():
    rng = np.random.default_rng(7)
    for _ in range(20):
        G = random_graph(rng)
        assert np.all(G.B.sum(axis=0) == 0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(any_graphs(), st.integers(1, 500).map(path_graph)))
def test_rank_equals_n_minus_c_random(G):
    # the singular values at numpy's default cutoff, and exact elimination,
    # which takes about 1 s on the 500-vertex path, so only up to 100 edges
    assert incidence_rank(G) == G.n - G.c == np.linalg.matrix_rank(G.B)
    if G.m <= 100:
        assert elimination_rank(G.B) == G.n - G.c


def test_rank_needs_no_svd_without_a_cutoff(monkeypatch, tmp_path):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    G = path_graph(500)
    assert incidence_rank(G) == 499
    (tmp_path / "g.json").write_text(json.dumps(graph_to_dict(G)))
    (tmp_path / "f.json").write_text('{"family": "sine_sum", "terms": {"1": 1.0}}')
    out = tmp_path / "r.json"
    assert run(["bounds", "--graph", str(tmp_path / "g.json"),
                "--coupling", str(tmp_path / "f.json"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["incidence_rank"] == 499


def test_rank_with_a_cutoff_counts_singular_values(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    k4 = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)])
    # B Bᵀ of K4 is 4I - J: singular values 2, 2, 2 and 0
    assert incidence_rank(k4, tol=1e-6) == 3 and incidence_rank(k4, tol=2.5) == 0
    assert len(calls) == 2


def test_operators_are_read_only_and_keep_their_layout():
    rng = np.random.default_rng(5)
    for _ in range(10):
        G = random_graph(rng)
        assert G.B.dtype == G.Bt.dtype == G.D.dtype == np.float64
        assert G.B.shape == (G.n, G.m) and G.D.shape == (G.c, G.n)
        assert G.B.flags.c_contiguous and G.Bt.flags.c_contiguous
        assert np.array_equal(G.Bt, G.B.T)
        for op in (G.B, G.Bt, G.D):
            assert not op.flags.writeable
            with pytest.raises(ValueError):
                op[...] = 0.0


def test_component_indicators():
    tri = build_graph([(0, 1), (1, 2), (2, 0)])
    D = tri.D
    assert D.tolist() == [[1.0, 1.0, 1.0]]
    two = build_graph([(0, 1), (2, 3)])
    D = two.D
    assert D.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1]]


def test_indicators_span_left_kernel():
    rng = np.random.default_rng(3)
    for _ in range(20):
        G = random_graph(rng)
        B = G.B
        D = G.D
        assert np.allclose(B.T @ D.T, 0.0)
        # orthogonal family
        gram = D @ D.T
        assert np.allclose(gram, np.diag(np.diag(gram)))


def test_blocks_two_triangles_sharing_vertex():
    G = build_graph([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    dec = block_decomposition(G)
    assert len(dec.blocks) == 2
    assert dec.cut_vertices == (0,)
    assert sorted(dec.blocks) == [(0, 1, 2), (0, 3, 4)]


def test_blocks_path():
    G = build_graph([(0, 1), (1, 2)])
    dec = block_decomposition(G)
    assert sorted(dec.blocks) == [(0, 1), (1, 2)]
    assert dec.cut_vertices == (1,)


def test_blocks_k4_single():
    G = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)])
    dec = block_decomposition(G)
    assert len(dec.blocks) == 1
    assert dec.cut_vertices == ()


def test_blocks_partition_edges():
    rng = np.random.default_rng(23)
    for _ in range(30):
        G = random_graph(rng)
        dec = block_decomposition(G)
        all_edges = [e for blk in dec.block_edges for e in blk]
        assert sorted(all_edges) == list(range(G.m))
        # two blocks share at most one vertex, a cut vertex
        for i in range(len(dec.blocks)):
            for j in range(i + 1, len(dec.blocks)):
                shared = set(dec.blocks[i]) & set(dec.blocks[j])
                assert len(shared) <= 1
                assert shared <= set(dec.cut_vertices)


def test_bridge_is_two_vertex_block():
    G = build_graph([(0, 1), (1, 2), (2, 0), (2, 3)])
    dec = block_decomposition(G)
    assert (2, 3) in dec.blocks


def test_induced_subgraph():
    G = build_graph([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    sub, relabel = induced_subgraph(G, [0, 3, 4])
    assert sub.n == 3 and sub.m == 3
    assert relabel == {0: 0, 3: 1, 4: 2}


def test_json_round_trip():
    G = build_graph([(0, 1), (1, 2)], n=4)
    G2 = graph_from_dict(graph_to_dict(G))
    assert G2 == G


def test_parse_edge_list():
    G = parse_edge_list("# comment\n0 1\n1 2  # inline\n\n2 0\n")
    assert (G.n, G.m) == (3, 3)
    with pytest.raises(ValidationError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValidationError):
        parse_edge_list("a b\n")
