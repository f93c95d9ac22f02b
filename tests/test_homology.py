import math
import time
import tracemalloc

import numpy as np
import pytest

from oddcoupling import (
    build_graph,
    cycle_basis,
    cycle_chain_number,
    dimension_bounds,
    enumerate_cycles,
    make_polynomial,
    make_sine_combination,
    make_sine_series,
)
from oddcoupling.corpus import (
    book_graph,
    complete_graph,
    cycle_graph,
    ladder_graph,
    path_graph,
    theta_graph,
    two_cycles_shared_edge,
    wheel_graph,
)
from oddcoupling import homology
from oddcoupling.errors import CycleCapExceededError

from helpers import (brute_force_cycle_chain, brute_force_simple_cycles, hex_with_pendant_path,
                     random_connected_graph)


def subdivided(G):
    """G with every edge replaced by a path of two edges through a new vertex."""
    return build_graph([e for k, (u, v) in enumerate(G.edges)
                        for e in ((u, G.n + k), (G.n + k, v))])


def test_tree_has_empty_basis():
    assert cycle_basis(path_graph(5)) == []


def test_triangle_basis_orientation():
    G = build_graph([(0, 1), (1, 2), (2, 0)])
    basis = cycle_basis(G)
    assert len(basis) == 1
    assert sorted(basis[0].vector) in ([1, 1, 1], [-1, -1, -1]) or \
        set(basis[0].vector) <= {1, -1}
    assert abs(sum(basis[0].vector)) == 3  # orientation-consistent traversal


def test_basis_in_kernel_random():
    rng = np.random.default_rng(2)
    for _ in range(30):
        G = random_connected_graph(rng)
        B = G.B
        basis = cycle_basis(G)
        assert len(basis) == G.m - G.n + G.c
        for cv in basis:
            assert np.all(B @ cv.as_array() == 0)
        if basis:
            M = np.column_stack([cv.as_array() for cv in basis]).astype(float)
            assert np.linalg.matrix_rank(M) == len(basis)


def test_enumerate_triangle():
    G = build_graph([(0, 1), (1, 2), (2, 0)])
    assert len(enumerate_cycles(G)) == 1


def test_enumerate_k4_against_oracle():
    G = complete_graph(4)
    cycles = enumerate_cycles(G)
    assert len(cycles) == 7  # 4 triangles + 3 quadrilaterals
    assert {c.edges for c in cycles} == brute_force_simple_cycles(G)


def test_enumerate_book2_against_oracle():
    G = book_graph(2)
    cycles = enumerate_cycles(G)
    assert len(cycles) == 3
    assert {c.edges for c in cycles} == brute_force_simple_cycles(G)


def test_enumerate_random_against_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        G = random_connected_graph(rng, n_max=6, extra_max=4)
        cycles = enumerate_cycles(G)
        assert {c.edges for c in cycles} == brute_force_simple_cycles(G)
        B = G.B
        for cv in cycles:
            assert np.all(B @ cv.as_array() == 0)


def test_enumerate_cap():
    with pytest.raises(CycleCapExceededError):
        enumerate_cycles(complete_graph(4), cap=3)


def test_cycle_chain_values():
    assert cycle_chain_number(build_graph([(0, 1), (1, 2), (2, 0)]))[0] == 1
    assert cycle_chain_number(book_graph(2)) == (2, True)
    assert cycle_chain_number(book_graph(5)) == (2, True)
    assert cycle_chain_number(complete_graph(4)) == (2, True)
    assert cycle_chain_number(theta_graph()) == (1, True)
    assert cycle_chain_number(ladder_graph(3)) == (3, True)
    assert cycle_chain_number(wheel_graph(6)) == (5, True)
    assert cycle_chain_number(path_graph(4)) == (0, True)
    # no two cycles share exactly one edge: the search ends past the longest
    # cycle, 10 edges, well before n = 15
    assert cycle_chain_number(subdivided(complete_graph(5))) == (1, True)


def test_cycle_chain_wheel_oracle():
    # hub plus 8-cycle: the rim triangles chain without wrapping
    G = wheel_graph(8)
    cc, exact = cycle_chain_number(G)
    assert exact
    assert cc == 8 - 1
    small = wheel_graph(4)
    assert cycle_chain_number(small)[0] == brute_force_cycle_chain(small)


def test_cycle_chain_random_against_oracle():
    rng = np.random.default_rng(6)
    for _ in range(8):
        G = random_connected_graph(rng, n_max=6, extra_max=3)
        assert cycle_chain_number(G)[0] == brute_force_cycle_chain(G)


def test_cycle_chain_monotone_under_inclusion():
    rng = np.random.default_rng(8)
    for _ in range(10):
        G = random_connected_graph(rng, n_max=7, extra_max=4)
        cc_full = cycle_chain_number(G)[0]
        # remove the final edge: a subgraph
        if G.m > G.n:  # keep it connected-ish: drop a non-tree edge
            sub = build_graph(G.edges[:-1], n=G.n)
            assert cycle_chain_number(sub)[0] <= cc_full


def test_cycle_chain_budget_flag():
    G = wheel_graph(8)
    cc, exact = cycle_chain_number(G, time_budget=1e-9)
    assert not exact
    assert cc >= 1


def test_cycle_chain_node_cap_counts_every_band(monkeypatch):
    # K6's branch and bound pops 9,560 nodes over its bands 3-6 to prove
    # cc = 6; a cap one node short leaves a lower bound
    monkeypatch.setattr(homology, "CHAIN_NODE_CAP", 9_560)
    assert cycle_chain_number(complete_graph(6)) == (6, True)
    monkeypatch.setattr(homology, "CHAIN_NODE_CAP", 9_559)
    cc, exact = cycle_chain_number(complete_graph(6))
    assert not exact and 1 <= cc <= 6


def test_cycle_chain_budget_covers_enumeration():
    # two cycles of a subdivided graph never share exactly one edge, so
    # cc = 1 stays below U and every length band up to the circumference is
    # needed: for K9 subdivided that is 62,814 cycles of 6-18 edges, whose
    # enumeration alone takes far longer than the budget, so the budget must
    # stop the enumeration
    t0 = time.monotonic()
    cc, exact = cycle_chain_number(subdivided(complete_graph(9)), cap=10**7, time_budget=0.2)
    assert time.monotonic() - t0 < 2.0
    assert not exact
    assert cc >= 1


def test_cycle_chain_bound_certifies():
    # a ladder's chain of unit cells reaches U = dim H1 = cells, which ends
    # the search; K6 (U = 7) needs the prune to prove that 6 is the maximum
    t0 = time.monotonic()
    assert cycle_chain_number(ladder_graph(50)) == (50, True)
    assert time.monotonic() - t0 < 2.0
    assert cycle_chain_number(complete_graph(6)) == (6, True)
    assert cycle_chain_number(wheel_graph(12)) == (11, True)


def test_cycle_chain_is_exact_past_the_cap():
    # 20,100 simple cycles, past the cap, but the 200 unit cells of the
    # girth band already reach U = dim H1, so no longer band is enumerated
    G = ladder_graph(200)
    t0 = time.monotonic()
    assert cycle_chain_number(G) == (200, True)
    assert time.monotonic() - t0 < 5.0
    with pytest.raises(CycleCapExceededError):
        enumerate_cycles(G)


def test_cycle_chain_stops_where_nothing_can_close():
    # with the labels reversed, every path vertex is a root whose closing
    # search once walked all the vertices above it, 2.4-3 s on 2 cores; a
    # root with no neighbour to close on now ends its search at once
    G = hex_with_pendant_path(reverse=True)
    t0 = time.monotonic()
    assert cycle_chain_number(G) == (1, True)
    assert time.monotonic() - t0 < 1.0


def test_cycle_chain_memory_is_bounded():
    # 5050 cycles: one N x N product of all of them in int64 alone would
    # take 204 MB; the search enumerates only the girth band of 100 cells
    G = ladder_graph(100)
    tracemalloc.start()
    try:
        assert cycle_chain_number(G) == (100, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_dimension_bounds_book5():
    rep = dimension_bounds(book_graph(5), make_sine_series(math.pi, {1: 1.0}))
    assert rep.dim_H1 == 5
    assert rep.cc == 2
    assert rep.chain_bound == 4
    assert rep.applicable_chain_bound
    assert rep.n_minus_c == 6
    assert rep.half_m == 5


def test_dimension_bounds_snake():
    rep = dimension_bounds(ladder_graph(4), make_polynomial([-1.0, 1.0]))
    assert rep.chain_bound == 1
    assert rep.applicable_chain_bound  # polynomials have finite fibers


def test_dimension_bounds_tree():
    rep = dimension_bounds(path_graph(4), make_sine_combination({1: 1.0}))
    assert rep.dim_H1 == 0
    assert rep.cc == 0
    assert rep.chain_bound is None
    assert rep.min_applicable() == 0


def test_dimension_bounds_two_cycles():
    rep = dimension_bounds(two_cycles_shared_edge(), make_sine_combination({1: 1.0}))
    assert rep.dim_H1 == 2 and rep.cc == 2 and rep.chain_bound == 1


def test_chain_bound_only_with_hypothesis():
    # an artificial coupling flagged neither periodic nor finite-fibered would
    # not get the chain bound; all three families qualify, so check the flag
    rep = dimension_bounds(cycle_graph(4), make_sine_combination({1: 1.0}))
    assert rep.applicable_chain_bound
