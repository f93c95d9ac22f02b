"""First homology: cycle bases, simple-cycle enumeration, cycle chains, and
the dimension bounds they impose on the set of equilibria.

All cycle arithmetic is exact integer arithmetic; a cycle is a signed vector
in edge space with entries -1/0/+1 and lies in the kernel of the incidence
matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingFunction
from .defaults import CYCLE_CAP
from .errors import CycleCapExceededError
from .graphs import Graph

__all__ = [
    "CycleVector",
    "DimensionBoundReport",
    "cycle_basis",
    "enumerate_cycles",
    "cycle_chain_number",
    "dimension_bounds",
]


@dataclass(frozen=True)
class CycleVector:
    """Signed edge-space encoding of an oriented cycle."""

    vector: tuple[int, ...]          # length m, entries in {-1, 0, +1}
    edges: frozenset[int]            # support
    walk: tuple[int, ...]            # vertex walk, first vertex repeated implicitly

    def as_array(self) -> np.ndarray:
        return np.array(self.vector, dtype=np.int64)


def _signed_vector(G: Graph, walk) -> CycleVector:
    vec = [0] * G.m
    for i, v in enumerate(walk):
        w = walk[(i + 1) % len(walk)]
        idx, sign = G.edge_index(v, w)
        vec[idx] = sign
    return CycleVector(vector=tuple(vec), edges=frozenset(i for i, s in enumerate(vec) if s),
                       walk=tuple(walk))


def cycle_basis(G: Graph) -> list[CycleVector]:
    """Fundamental cycles of a spanning forest; m - n + c of them, all in ker B."""
    parent: dict[int, tuple[int, int]] = {}  # vertex -> (parent vertex, edge idx)
    depth = {}
    tree_edges = set()
    for root in range(G.n):
        if root in depth:
            continue
        depth[root] = 0
        queue = [root]
        while queue:
            v = queue.pop(0)
            for w in G.neighbors[v]:
                if w in depth:
                    continue
                idx, _ = G.edge_index(v, w)
                parent[w] = (v, idx)
                depth[w] = depth[v] + 1
                tree_edges.add(idx)
                queue.append(w)

    basis = []
    for idx, (u, v) in enumerate(G.edges):
        if idx in tree_edges:
            continue
        # tree path v -> u, then close with edge (u, v)
        pu, pv = u, v
        left, right = [pu], [pv]
        while depth[pu] > depth[pv]:
            pu = parent[pu][0]
            left.append(pu)
        while depth[pv] > depth[pu]:
            pv = parent[pv][0]
            right.append(pv)
        while pu != pv:
            pu = parent[pu][0]
            pv = parent[pv][0]
            left.append(pu)
            right.append(pv)
        walk = left[:-1] + list(reversed(right))  # u ... lca ... v
        basis.append(_signed_vector(G, walk))
    return basis


def cycle_space_matrix(G: Graph) -> np.ndarray:
    """Basis cycles as columns of an integer (m, dim H1) matrix."""
    basis = cycle_basis(G)
    if not basis:
        return np.zeros((G.m, 0), dtype=np.int64)
    return np.column_stack([b.as_array() for b in basis])


def _enumerate_up_to(G: Graph, cap: int,
                     deadline: float | None = None) -> tuple[list[CycleVector], bool]:
    """All simple cycles, one orientation each, deterministic order.

    Cycles are generated per root vertex r (the minimum vertex of the cycle)
    by DFS over paths through vertices > r; each cycle appears twice, once per
    direction, and the copy with walk[1] < walk[-1] is kept. The second value
    is True when the list was cut short by ``cap`` or by the ``deadline``, a
    ``time.monotonic`` value.
    """
    cycles = []
    for root in range(G.n):
        stack = [(root, (root,))]
        while stack:
            if deadline is not None and time.monotonic() > deadline:
                return cycles, True
            v, path = stack.pop()
            for w in G.neighbors[v]:
                if w == root and len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(_signed_vector(G, path))
                    if len(cycles) > cap:
                        return cycles, True
                elif w > root and w not in path:
                    stack.append((w, path + (w,)))
    cycles.sort(key=lambda cv: (len(cv.edges), cv.walk))
    return cycles, False


def enumerate_cycles(G: Graph, cap: int = CYCLE_CAP) -> list[CycleVector]:
    """All simple cycles of G as signed vectors; CycleCapExceededError past cap."""
    cycles, truncated = _enumerate_up_to(G, cap)
    if truncated:
        raise CycleCapExceededError(f"graph has more than {cap} simple cycles")
    return cycles


def cycle_chain_number(G: Graph, cap: int = CYCLE_CAP,
                       time_budget: float | None = None) -> tuple[int, bool]:
    """Maximum length of a cycle chain: consecutive cycles share exactly one
    edge, non-consecutive cycles are edge-disjoint.

    Returns (cc, exact); exact is False when the cycle enumeration hit the cap
    or the enumeration or the DFS ran out of the wall-clock budget, in which
    case cc is a lower bound.
    """
    deadline = time.monotonic() + time_budget if time_budget else None
    cycles, truncated = _enumerate_up_to(G, cap, deadline)
    if not cycles:
        # the DFS can search long before its first cycle; any cycle is a
        # chain of length one, and one exists exactly when dim H1 >= 1
        return min(1, G.m - G.n + G.c), not truncated
    masks = []
    for cv in cycles:
        mask = 0
        for e in cv.edges:
            mask |= 1 << e
        masks.append(mask)
    n_cyc = len(masks)
    timed_out = False
    best = 1

    # pair[i] = bitset of j sharing exactly one edge with i
    share_one = [0] * n_cyc
    for i in range(n_cyc):
        if deadline is not None and time.monotonic() > deadline:
            return best, False
        for j in range(i + 1, n_cyc):
            if (masks[i] & masks[j]).bit_count() == 1:
                share_one[i] |= 1 << j
                share_one[j] |= 1 << i

    def extend(last: int, used_before: int, length: int):
        nonlocal best, timed_out
        if length > best:
            best = length
        if timed_out or (deadline is not None and time.monotonic() > deadline):
            timed_out = True
            return
        candidates = share_one[last]
        while candidates:
            j = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            if masks[j] & used_before:
                continue
            extend(j, used_before | masks[last], length + 1)

    for i in range(n_cyc):
        extend(i, 0, 1)
        if timed_out:
            break
    return best, (not truncated) and (not timed_out)


@dataclass(frozen=True)
class DimensionBoundReport:
    """Upper bounds on the dimension of the set of equilibria.

    n_minus_c, half_m and dim_H1 = m - n + c hold for every odd analytic
    coupling; the chain bound dim_H1 - cc + 1 additionally needs the coupling
    to be periodic or to have finite fibers.
    """

    dim_H1: int
    cc: int
    cc_exact: bool
    n_minus_c: int
    half_m: int
    m_minus_n_plus_c: int
    chain_bound: int | None
    applicable_chain_bound: bool

    def min_applicable(self) -> int:
        bounds = [self.n_minus_c, self.half_m, self.m_minus_n_plus_c]
        if self.applicable_chain_bound and self.chain_bound is not None and self.cc_exact:
            bounds.append(self.chain_bound)
        return min(bounds)

    def to_dict(self) -> dict:
        return {
            "dim_H1": self.dim_H1,
            "cc": self.cc,
            "cc_exact": self.cc_exact,
            "bounds": {
                "n_minus_c": self.n_minus_c,
                "half_m": self.half_m,
                "m_minus_n_plus_c": self.m_minus_n_plus_c,
                "chain_bound": self.chain_bound,
            },
            "applicable_chain_bound": self.applicable_chain_bound,
            "min_applicable": self.min_applicable(),
        }


def dimension_bounds(G: Graph, f: CouplingFunction, cap: int = CYCLE_CAP,
                     time_budget: float | None = None) -> DimensionBoundReport:
    """All dimension bounds for (G, f); the chain bound is flagged applicable
    only when f is periodic or has finite fibers."""
    dim_h1 = G.m - G.n + G.c
    cc, exact = cycle_chain_number(G, cap=cap, time_budget=time_budget)
    applicable = (f.periodic is not None) or f.finite_fibers
    chain = dim_h1 - cc + 1 if cc >= 1 else None
    return DimensionBoundReport(
        dim_H1=dim_h1,
        cc=cc,
        cc_exact=exact,
        n_minus_c=G.n - G.c,
        half_m=G.m // 2,
        m_minus_n_plus_c=dim_h1,
        chain_bound=chain,
        applicable_chain_bound=applicable,
    )
