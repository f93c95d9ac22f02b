"""First homology: cycle bases, simple-cycle enumeration, cycle chains, and
the dimension bounds they impose on the set of equilibria.

All cycle arithmetic is exact integer arithmetic; a cycle is a signed vector
in edge space with entries -1/0/+1 and lies in the kernel of the incidence
matrix. Enumeration extends a path only by a vertex that can still close a
kept cycle, so its time is proportional to its output; it can also list only
the cycles of one length. The chain search deepens by cycle length: it
enumerates one length band at a time, runs a branch and bound over the cycles
so far, and stops once no longer cycle can lengthen a chain, or at the dual
bound U = min(dim H1, 1 + (m - g) // (g - 1)), g the girth. Its cycle cap and
time budget count only the cycles it enumerates; ``CHAIN_NODE_CAP`` bounds the
nodes its branch and bound pops over all bands.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingFunction
from .defaults import CHAIN_NODE_CAP, CYCLE_CAP
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
    vec, edges = [0] * G.m, []
    for i, v in enumerate(walk):
        idx, sign = G.edge_index(v, walk[(i + 1) % len(walk)])
        vec[idx] = sign
        edges.append(idx)
    return CycleVector(vector=tuple(vec), edges=frozenset(edges), walk=tuple(walk))


def cycle_basis(G: Graph) -> list[CycleVector]:
    """Fundamental cycles of ``G.forest``, one per non-tree edge in edge
    order; m - n + c of them, all in ker B."""
    F = G.forest   # (parent, tree edge, depth) per vertex
    basis = []
    for idx, (u, v) in enumerate(G.edges):
        if idx in (F[u][1], F[v][1]):
            continue
        # the tree paths from u and from v up to where they meet, the deeper
        # end climbing first; then close with edge (u, v)
        left, right = [u], [v]
        while left[-1] != right[-1]:
            deeper = left if F[left[-1]][2] >= F[right[-1]][2] else right
            deeper.append(F[deeper[-1]][0])
        walk = left[:-1] + right[::-1]  # u ... lca ... v
        basis.append(_signed_vector(G, walk))
    return basis


def cycle_space_matrix(G: Graph) -> np.ndarray:
    """Basis cycles as columns of an integer (m, dim H1) matrix."""
    basis = cycle_basis(G)
    if not basis:
        return np.zeros((G.m, 0), dtype=np.int64)
    return np.column_stack([b.as_array() for b in basis])


def _closing_distance(G: Graph, root: int, path: tuple[int, ...], w: int,
                      limit: int | None) -> int | None:
    """Steps from w, appended to the path, to the nearest neighbour b > walk[1]
    of the root through vertices above the root that are off the path; None
    when there is no such b within ``limit`` steps."""
    lo = path[1] if len(path) > 1 else w
    ends = {b for b in G.neighbors[root] if b > lo}
    if not ends:   # no neighbour of the root is left to close on
        return None
    seen, layer = {*path, w}, [w]
    for d in range(G.n if limit is None else limit + 1):
        if not layer:
            return None
        if not ends.isdisjoint(layer):
            return d
        nxt = []
        for u in layer:
            for x in G.neighbors[u]:
                if x > root and x not in seen:
                    seen.add(x)
                    nxt.append(x)
        layer = nxt
    return None


def _enumerate_up_to(G: Graph, cap: int, deadline: float | None = None,
                     length: int | None = None) -> tuple[list[CycleVector], bool]:
    """All simple cycles, or with ``length`` only those of exactly that many
    edges, one orientation each, deterministic order.

    Cycles are generated per root vertex r (the minimum vertex of the cycle)
    by DFS over paths through vertices > r, keeping the orientation with
    walk[1] < walk[-1]. A vertex w is pushed only if it can still close a kept
    cycle: it reaches a neighbour b > walk[1] of r, off the path, through
    vertices > r off the path (``_closing_distance``), and with a length does
    so within the steps such a cycle leaves. Every DFS node then leads to a
    cycle. The list is sorted by (length, walk); the second value is True when
    the walk was cut short: by ``cap``, by the ``deadline``, a
    ``time.monotonic``, or by the length, when a longer cycle exists.
    """
    top = G.n if length is None else length
    cycles, cut = [], False
    for root in range(G.n):
        stack = [(root, (root,), 1 << root)]
        while stack:
            if deadline is not None and time.monotonic() > deadline:
                return cycles, True
            v, path, on = stack.pop()
            at_end = len(path) > 1 and path[1] < v and G.has_edge(v, root)
            if at_end and (len(path) == length if length else len(path) >= 3):
                cycles.append(_signed_vector(G, path))
                if len(cycles) > cap:
                    return cycles, True
            nxt = [w for w in G.neighbors[v] if w > root and not on >> w & 1]
            steps = top - len(path) - 1
            # a pushed node that is no end reaches one through its only way out
            forced = len(nxt) == 1 and len(path) > 1 and not at_end
            for w in nxt:
                # once the walk is known to be cut, a distance past the steps
                # left need not be found
                d = 0 if forced else _closing_distance(G, root, path, w, steps if cut else None)
                if d is not None and d <= steps:
                    stack.append((w, path + (w,), on | 1 << w))
                elif d is not None:
                    cut = True
    cycles.sort(key=lambda cv: (len(cv.edges), cv.walk))
    return cycles, cut


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

    The cycles are enumerated in bands of one length, ℓ = 3, 4, ..., and the
    first non-empty band gives the girth g. A chain's cycles are independent
    and each after the first brings g - 1 or more new edges, so
    cc <= U = min(dim H1, 1 + (m - g) // (g - 1)); a chain of L cycles covers
    Σℓᵢ - (L - 1) <= m edges, so a chain longer than ``best`` uses no cycle
    longer than m - best·(g - 1). After each band a branch and bound, shortest
    cycles first, searches all cycles found so far: a chain of length L
    leaving ``free`` edges unused is dropped when L + free // (g - 1) <= best.
    The search stops when best reaches U, when no cycle is longer than the
    band, or when the next band is longer than m - best·(g - 1) or than n.
    Returns (cc, exact); exact is False when the cycles enumerated exceed the
    cap, the branch and bound pops ``CHAIN_NODE_CAP`` nodes, or the wall-clock
    budget runs out, in which case cc is a lower bound.
    """
    deadline = time.monotonic() + time_budget if time_budget else None
    dim_h1 = G.m - G.n + G.c
    masks, share_one = [], []
    M = np.zeros((0, G.m), dtype=np.float32)   # 0/1 edge rows of the cycles so far
    best, g, bound, pops = 1, 0, dim_h1, 0
    for length in range(3, G.n + 1):
        if g and (best >= bound or length > G.m - best * (g - 1)):
            break
        k0 = len(masks)
        band, cut = _enumerate_up_to(G, cap - k0, deadline, length)
        if band:
            g = g or length
            bound = min(dim_h1, 1 + (G.m - g) // (g - 1))
            masks += [sum(1 << e for e in cv.edges) for cv in band]
            share_one += [[] for _ in band]
            new = np.abs(np.array([cv.vector for cv in band], dtype=np.float32))
            M = np.vstack([M, new])
            # the new rows of M Mᵀ in row blocks give share_one, the cycles
            # sharing exactly one edge; float32 counts of shared edges (<= m)
            # are exact, and an old cycle's list grows by new indices only
            for lo in range(0, len(band), 512):
                if deadline is not None and time.monotonic() > deadline:
                    return best, False
                hits = new[lo:lo + 512] @ M.T == 1
                for r, row in enumerate(hits, start=k0 + lo):
                    share_one[r] = np.flatnonzero(row).tolist()
                old, rows = np.nonzero(hits[:, :k0].T)
                for i, j in zip(old.tolist(), (rows + k0 + lo).tolist()):
                    share_one[i].append(j)
            # the branch and bound, over all cycles so far, from the best chain
            stack = [(i, 0, 1) for i in reversed(range(len(masks)))]
            while stack and best < bound:
                if pops == CHAIN_NODE_CAP or (
                        deadline is not None and time.monotonic() > deadline):
                    return best, False
                pops += 1
                last, before, size = stack.pop()
                best = max(best, size)
                used = before | masks[last]
                if size + (G.m - used.bit_count()) // (g - 1) > best:
                    stack += [(j, used, size + 1) for j in reversed(share_one[last])
                              if not masks[j] & before]
        if len(band) > cap - k0 or (deadline is not None and time.monotonic() > deadline):
            # the deadline can fall before the first cycle; any cycle is a
            # chain of length one, and one exists exactly when dim H1 >= 1
            return (best if masks else min(1, dim_h1)), False
        if not cut:
            break   # no cycle is longer than this band
    return (best if masks else min(1, dim_h1)), True


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
    applicable_chain_bound: bool

    @property
    def chain_bound(self) -> int | None:
        """dim_H1 - cc + 1; None when the graph has no cycle."""
        return self.dim_H1 - self.cc + 1 if self.cc >= 1 else None

    def min_applicable(self) -> int:
        bounds = [self.n_minus_c, self.half_m, self.dim_H1]
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
                "m_minus_n_plus_c": self.dim_H1,
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
    return DimensionBoundReport(
        dim_H1=dim_h1,
        cc=cc,
        cc_exact=exact,
        n_minus_c=G.n - G.c,
        half_m=G.m // 2,
        applicable_chain_bound=applicable,
    )
