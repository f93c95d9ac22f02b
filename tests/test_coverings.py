import itertools
import math
import random

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from oddcoupling import (
    automorphisms,
    build_graph,
    equilibrium_point,
    find_generalized_coverings,
    is_covering,
    is_generalized_covering,
    lift_equilibrium,
    make_polynomial,
    make_sine_combination,
    orbit_of_equilibrium,
    vector_field,
    zero_pattern_equilibria,
)
from oddcoupling.corpus import (
    COVER7_PHI,
    complete_graph,
    cover7_graph,
    cycle_graph,
    k3_curve_point,
    path_graph,
)
from oddcoupling import coverings
from oddcoupling.coverings import VertexMap, apply_permutation, validated_vertex_map
from oddcoupling.equilibria import points_equivalent
from oddcoupling.errors import (
    NotAnEquilibriumError,
    SearchBudgetExceededError,
    ValidationError,
)

from helpers import brute_force_fiber_degrees, brute_force_is_covering, random_connected_graph

SIN = make_sine_combination({1: 1.0})
HEX_TO_TRI = [0, 1, 2, 0, 1, 2]


def test_identity_is_covering():
    G = complete_graph(4)
    assert is_covering(list(range(4)), G, G)


def test_hexagon_double_cover_of_triangle():
    hexagon = cycle_graph(6)
    tri = cycle_graph(3)
    assert is_covering(HEX_TO_TRI, hexagon, tri)
    ok, degrees = is_generalized_covering(HEX_TO_TRI, hexagon, tri)
    assert ok and degrees == (1,) * 6


def test_edge_collapse_is_not_covering():
    G = cycle_graph(3)
    H = build_graph([(0, 1)])
    assert not is_covering([0, 0, 1], G, H)
    # but it is a generalized covering: the same-image pair drops out and the
    # remaining neighbor map is onto
    ok, degrees = is_generalized_covering([0, 0, 1], G, H)
    assert ok and degrees == (1, 1, 2)


@st.composite
def maps_near_coverings(draw):
    """(G, H, phi, lift): G a random k-fold lift of a small H and phi its
    projection (``lift`` True), or G with every vertex joined to the whole
    fiber next to it (a generalized covering with fiber degrees k), either
    one possibly spoiled by an edge inside a fiber, a dropped or an extra
    edge, or two swapped labels."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nH, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    H = build_graph([(a, b) for a in range(nH) for b in range(a + 1, nH)
                     if rng.random() < 0.6], n=nH)
    full = k > 1 and draw(st.booleans())
    edges = set()
    for a, b in H.edges:
        perm = rng.sample(range(k), k)
        edges.update((a * k + s, b * k + t) for s in range(k) for t in range(k)
                     if full or t == perm[s])
    phi = [v // k for v in range(nH * k)]
    spoil = draw(st.sampled_from(["none", "fiber", "drop", "extra", "swap"]))
    j, l = rng.sample(range(nH * k), 2) if nH * k > 1 else (0, 0)
    if spoil == "fiber" and k > 1:
        a = rng.randrange(nH)
        edges.add((a * k, a * k + 1))
    elif spoil == "drop" and edges:
        edges.discard(rng.choice(sorted(edges)))
    elif spoil == "extra" and j != l and (l, j) not in edges:
        edges.add((j, l))
    elif spoil == "swap":
        phi[j], phi[l] = phi[l], phi[j]
    edges = sorted(edges)
    rng.shuffle(edges)
    return build_graph(edges, n=nH * k), H, phi, spoil == "none" and not full


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(maps_near_coverings())
def test_is_covering_matches_brute_force(case):
    G, H, phi, lift = case
    assert is_covering(phi, G, H) == brute_force_is_covering(phi, G, H)
    if lift:
        assert is_covering(phi, G, H)


def test_k4_collapse_onto_k3_fails():
    G = complete_graph(4)
    H = complete_graph(3)
    ok, _ = is_generalized_covering([0, 0, 1, 2], G, H)
    assert not ok


def test_cover7_is_generalized_covering():
    G = cover7_graph()
    H = complete_graph(3)
    ok, degrees = is_generalized_covering(COVER7_PHI, G, H)
    assert ok
    assert degrees == (1, 1, 1, 2, 1, 1, 2)
    assert not is_covering(COVER7_PHI, G, H)  # same-label neighbors exist
    vm = validated_vertex_map(COVER7_PHI, G, H)
    assert vm.external_equitable is False


def test_find_coverings_triangle_to_triangle():
    tri = cycle_graph(3)
    maps = find_generalized_coverings(tri, tri)
    assert len(maps) == 6  # exactly the bijections
    for m in maps:
        assert sorted(m.phi) == [0, 1, 2]
        assert m.fiber_degrees == (1, 1, 1)


def test_find_coverings_hexagon_to_triangle():
    maps = find_generalized_coverings(cycle_graph(6), cycle_graph(3))
    phis = {m.phi for m in maps}
    assert tuple(HEX_TO_TRI) in phis
    assert all(m.fiber_degrees == (1,) * 6 for m in maps)


def test_find_coverings_path_to_k3_empty():
    assert find_generalized_coverings(path_graph(3), complete_graph(3)) == []


def test_find_coverings_cap():
    tri = cycle_graph(3)
    with pytest.raises(SearchBudgetExceededError):
        find_generalized_coverings(tri, tri, cap=3)


def test_find_coverings_vertex_cap():
    big = path_graph(17)
    with pytest.raises(ValidationError):
        find_generalized_coverings(big, path_graph(2))


@st.composite
def small_pairs(draw):
    """(G, H): G of at most 7 vertices, H of at most 4. Either G is a k-fold
    lift of H, or H with every vertex joined to the whole fiber next to it,
    possibly with one extra edge, under a random labelling; or both graphs
    are random."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nH = draw(st.integers(1, 4))
    p = draw(st.sampled_from([0.3, 0.6, 0.9]))
    H = build_graph([(a, b) for a in range(nH) for b in range(a + 1, nH) if rng.random() < p], n=nH)
    if not draw(st.booleans()):
        n = draw(st.integers(1, 7))
        return build_graph([(a, b) for a in range(n) for b in range(a + 1, n)
                            if rng.random() < p], n=n), H
    k = draw(st.integers(1, 7 // nH))
    full = draw(st.booleans())
    edges = set()
    for a, b in H.edges:
        perm = rng.sample(range(k), k)
        edges.update((a * k + s, b * k + t) for s in range(k) for t in range(k)
                     if full or t == perm[s])
    if nH * k > 1 and draw(st.booleans()):
        edges.add(tuple(sorted(rng.sample(range(nH * k), 2))))
    label = rng.sample(range(nH * k), nH * k)
    return build_graph([(label[a], label[b]) for a, b in edges], n=nH * k), H


@hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
@hypothesis.given(small_pairs())
def test_find_coverings_matches_brute_force(pair):
    # every one of the H.n^G.n maps, in lexicographic order, through an
    # oracle that shares no code with the search
    G, H = pair
    expected = []
    for phi in itertools.product(range(H.n), repeat=G.n):
        degrees = brute_force_fiber_degrees(phi, G, H)
        if degrees is not None:
            expected.append(VertexMap(phi=phi, fiber_degrees=degrees))
    for cap in sorted({1, 3, max(1, len(expected) - 1), max(1, len(expected))}):
        if len(expected) > cap:
            with pytest.raises(SearchBudgetExceededError):
                find_generalized_coverings(G, H, cap=cap)
        else:
            assert find_generalized_coverings(G, H, cap=cap) == expected


def test_find_coverings_node_cap(monkeypatch):
    # the search visits 532 nodes on cover7 -> K3, leaves included
    G, H = cover7_graph(), complete_graph(3)
    monkeypatch.setattr(coverings, "COVERING_NODE_CAP", 532)
    assert len(find_generalized_coverings(G, H)) == 6
    monkeypatch.setattr(coverings, "COVERING_NODE_CAP", 531)
    with pytest.raises(SearchBudgetExceededError, match="531 nodes"):
        find_generalized_coverings(G, H)


def test_find_coverings_on_the_4_cube():
    # 16 and 12 vertices, past the brute force: the 120 maps Q4 -> C4 and
    # the 6 maps C12 -> C3, each valid, in lexicographic order
    q4 = build_graph([(v, v ^ 1 << b) for v in range(16) for b in range(4) if v < v ^ 1 << b])
    for G, H, count in ((q4, cycle_graph(4), 120), (cycle_graph(12), cycle_graph(3), 6)):
        maps = find_generalized_coverings(G, H)
        assert len(maps) == count
        assert [m.phi for m in maps] == sorted(m.phi for m in maps)
        assert all(is_generalized_covering(m.phi, G, H) == (True, m.fiber_degrees)
                   for m in maps)


def test_lift_zero():
    G = cover7_graph()
    H = complete_graph(3)
    f = make_polynomial([1.0, -1.0])
    vm = validated_vertex_map(COVER7_PHI, G, H)
    y = equilibrium_point(H, f, np.zeros(3))
    lifted = lift_equilibrium(vm, y, G, H, f)
    assert np.allclose(lifted.x, 0.0)


def test_lift_curve_points():
    G = cover7_graph()
    H = complete_graph(3)
    f = make_polynomial([1.0, -1.0])  # x - x^3
    vm = validated_vertex_map(COVER7_PHI, G, H)
    for lam in np.linspace(-0.3, 0.3, 7):
        y = equilibrium_point(H, f, k3_curve_point(f, lam))
        assert y.residual < 1e-12
        lifted = lift_equilibrium(vm, y, G, H, f)
        assert lifted.residual <= max(vm.fiber_degrees) * y.residual + 1e-12
        for i in range(G.n):
            assert lifted.x[i] == y.x[COVER7_PHI[i]]


def test_lift_rejects_non_equilibrium():
    G = cover7_graph()
    H = complete_graph(3)
    f = make_polynomial([1.0, -1.0])
    vm = validated_vertex_map(COVER7_PHI, G, H)
    bad = equilibrium_point(H, f, np.array([0.0, 0.4, 1.1]))
    with pytest.raises(NotAnEquilibriumError):
        lift_equilibrium(vm, bad, G, H, f)


def test_lift_preserves_distinctness():
    # distinct zero-pattern equilibria of the triangle stay distinct after
    # lifting through the hexagon double cover
    hexagon = cycle_graph(6)
    tri = cycle_graph(3)
    vm = validated_vertex_map(HEX_TO_TRI, hexagon, tri)
    pts = zero_pattern_equilibria(tri, SIN, math.pi)
    lifted = [lift_equilibrium(vm, p, hexagon, tri, SIN) for p in pts]
    for i in range(len(lifted)):
        for j in range(i + 1, len(lifted)):
            assert not points_equivalent(hexagon, SIN, lifted[i], lifted[j])


def test_automorphisms_k4():
    auts = automorphisms(complete_graph(4))
    assert len(auts) == 24 and auts.complete


def test_automorphisms_c5_dihedral():
    auts = automorphisms(cycle_graph(5))
    assert len(auts) == 10 and auts.complete


def test_automorphisms_cover7_trivial():
    auts = automorphisms(cover7_graph())
    assert len(auts) == 1
    assert auts.permutations[0] == tuple(range(7))


def test_automorphisms_cap(monkeypatch):
    # the first permutations in lexicographic order; a set that reaches the
    # cap is incomplete, even when the group has exactly that many elements
    monkeypatch.setattr(coverings, "AUTOMORPHISM_CAP", 7)
    auts = automorphisms(complete_graph(5))
    assert auts.permutations == tuple(itertools.permutations(range(5)))[:7]
    assert not auts.complete
    monkeypatch.setattr(coverings, "AUTOMORPHISM_CAP", 24)
    assert len(automorphisms(complete_graph(4))) == 24
    assert not automorphisms(complete_graph(4)).complete
    monkeypatch.setattr(coverings, "AUTOMORPHISM_CAP", 25)
    assert automorphisms(complete_graph(4)).complete


def test_automorphism_group_axioms():
    for G in (complete_graph(4), cycle_graph(5), cover7_graph()):
        auts = automorphisms(G)
        assert auts.complete
        perms = set(auts.permutations)
        assert tuple(range(G.n)) in perms
        for a in perms:
            inv = tuple(np.argsort(a))
            assert inv in perms
            for b in perms:
                comp = tuple(a[b[i]] for i in range(G.n))
                assert comp in perms


def test_vector_field_equivariance():
    rng = np.random.default_rng(91)
    for G in (complete_graph(4), cycle_graph(5)):
        auts = automorphisms(G)
        for _ in range(5):
            x = rng.uniform(-2, 2, G.n)
            F = vector_field(G, SIN, x)
            for perm in auts.permutations:
                lhs = vector_field(G, SIN, apply_permutation(perm, x))
                assert np.allclose(lhs, apply_permutation(perm, F), atol=1e-12)


def test_orbit_of_origin():
    G = complete_graph(4)
    auts = automorphisms(G)
    orbit = orbit_of_equilibrium(auts, G, SIN, equilibrium_point(G, SIN, np.zeros(4)))
    assert len(orbit.points) == 1
    assert orbit.stabilizer_sizes == (24,)
    assert orbit.singular_candidates == (0,)


def test_orbit_of_alternating_pattern():
    G = complete_graph(4)
    auts = automorphisms(G)
    p = equilibrium_point(G, SIN, np.array([0.0, math.pi, 0.0, math.pi]))
    orbit = orbit_of_equilibrium(auts, G, SIN, p)
    # three ways to split 4 vertices into two antipodal pairs
    assert len(orbit.points) == 3
    assert all(s == 8 for s in orbit.stabilizer_sizes)
    assert orbit.singular_candidates == (0, 1, 2)
    patterns = zero_pattern_equilibria(G, SIN, math.pi)
    for q in orbit.points:
        assert any(points_equivalent(G, SIN, q, z) for z in patterns)


def test_orbit_rejects_non_equilibrium():
    G = complete_graph(4)
    auts = automorphisms(G)
    with pytest.raises(NotAnEquilibriumError):
        orbit_of_equilibrium(auts, G, SIN,
                             equilibrium_point(G, SIN, np.array([0.1, 0.7, 1.3, 2.9])))


def test_random_graph_automorphisms_are_sane():
    rng = np.random.default_rng(97)
    for _ in range(10):
        G = random_connected_graph(rng, n_max=7)
        auts = automorphisms(G)
        eset = {frozenset(e) for e in G.edges}
        for perm in auts.permutations:
            mapped = {frozenset((perm[u], perm[v])) for u, v in G.edges}
            assert mapped == eset
