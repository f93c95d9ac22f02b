"""Shared test utilities: random graph generation and independent oracles."""

from fractions import Fraction
from itertools import permutations

import numpy as np
from scipy.integrate import solve_ivp

from oddcoupling import build_graph, hessian, vector_field
from oddcoupling.defaults import ODE_ATOL, ODE_RTOL, eq_tolerance, rank_tolerance
from oddcoupling.homology import _signed_vector


def random_connected_graph(rng, n_max=10, extra_max=5):
    """Random spanning tree plus extra edges; always connected."""
    n = int(rng.integers(2, n_max + 1))
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v))
    existing = {frozenset(e) for e in edges}
    for _ in range(int(rng.integers(0, extra_max + 1))):
        u, v = rng.choice(n, size=2, replace=False)
        key = frozenset((int(u), int(v)))
        if key not in existing:
            existing.add(key)
            edges.append((int(u), int(v)))
    return build_graph(edges, n=n)


def random_graph(rng, n_max=10, p=0.35):
    """Erdos-Renyi-ish, possibly disconnected."""
    n = int(rng.integers(2, n_max + 1))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return build_graph(edges, n=n)


def elimination_rank(M):
    """Exact rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(int(v)) for v in row] for row in np.asarray(M)]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    col = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pivot_row = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / pivot_row[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], pivot_row)]
        rank += 1
    return rank


def brute_force_simple_cycles(G):
    """All simple cycles as frozensets of edge indices, by checking every
    vertex subset and every cyclic order. Exponential; tiny graphs only."""
    cycles = set()
    verts = list(range(G.n))
    for size in range(3, G.n + 1):
        for subset in _subsets(verts, size):
            first = subset[0]
            for perm in permutations(subset[1:]):
                walk = (first,) + perm
                if all(G.has_edge(walk[i], walk[(i + 1) % size])
                       for i in range(size)):
                    cycles.add(frozenset(G.edge_index(walk[i], walk[(i + 1) % size])[0]
                                         for i in range(size)))
    return cycles


def _subsets(items, size):
    from itertools import combinations
    return combinations(items, size)


def brute_force_cycle_chain(G):
    """Maximum cycle-chain length by naive DFS over frozenset cycles."""
    cycles = sorted(brute_force_simple_cycles(G), key=sorted)
    best = 0

    def extend(chain):
        nonlocal best
        best = max(best, len(chain))
        before = frozenset().union(*chain[:-1]) if len(chain) > 1 else frozenset()
        for c in cycles:
            if len(c & chain[-1]) == 1 and not (c & before):
                extend(chain + [c])

    for c in cycles:
        extend([c])
    return best


def is_winding_shift(G, z):
    """Whether the integer edge vector z is B^T k for some vertex vector k,
    decided by least squares (an integer z in the range of B^T is reached by
    an integer k, B^T being totally unimodular)."""
    A = G.B.T
    k = np.linalg.lstsq(A, z, rcond=None)[0]
    return float(np.linalg.norm(A @ k - z)) < 1e-9


def greedy_dedup(G, f, points, distance):
    """The quadratic greedy dedup: walk the points in order and keep one
    unless its edge-space image lies within ``distance`` of a kept image,
    after a periodic f removes a winding shift P B^T k from the difference.

    Returns the kept points and the number of comparisons that removed a
    nonzero winding."""
    kept, wound = [], 0
    for p in points:
        for q in kept:
            delta = p.y - q.y
            if f.periodic is not None:
                z = np.round(delta / f.periodic)
                if z.any() and is_winding_shift(G, z):
                    delta = delta - f.periodic * z
                    wound += 1
            if np.linalg.norm(delta) <= distance:
                break
        else:
            kept.append(p)
    return kept, wound


def newton_oracle(G, f, x0, max_iter):
    """The per-start damped Newton loop that ``equilibria.newton_batch``
    replaced: one SVD, one Hessian and a backtracking line search per step.

    Returns (x, residual, stop), stop being "converged", "stalled" (the line
    search gave up at that x and residual) or "capped"."""
    x = np.array(x0, dtype=float)
    Fx = vector_field(G, f, x)
    res = float(np.linalg.norm(Fx))
    for _ in range(max_iter):
        if res <= eq_tolerance(x):
            return x, res, "converged"
        U, s, Vt = np.linalg.svd(-hessian(G, f, x))
        cutoff = rank_tolerance(G.n, G.n, float(s[0]) if s.size else 0.0)
        inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
        delta = -(Vt.T @ (inv * (U.T @ Fx)))
        t = 1.0
        base = res * res
        while t > 1e-7:
            x_t = x + t * delta
            F_t = vector_field(G, f, x_t)
            r_t = float(np.linalg.norm(F_t))
            if r_t * r_t <= (1.0 - 1e-4 * t) * base:
                x, Fx, res = x_t, F_t, r_t
                break
            t *= 0.5
        else:
            return x, res, "stalled"
    return x, res, "converged" if res <= eq_tolerance(x) else "capped"


def legacy_enumerate_cycles(G, cap):
    """The unpruned simple-cycle DFS: from every root r, all paths through
    vertices > r, keeping the orientation with walk[1] < walk[-1]. It walks
    branches that cannot close a kept cycle. Same contract as
    ``homology._enumerate_up_to`` without a deadline: (cycles, truncated)."""
    cycles = []
    for root in range(G.n):
        stack = [(root, (root,))]
        while stack:
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


def legacy_cycle_chain(G, cap):
    """The exhaustive chain search: a pairwise share-one-edge table and a
    recursive DFS from every cycle, with no bound and no time budget.
    Returns (cc, exact)."""
    cycles, truncated = legacy_enumerate_cycles(G, cap)
    if not cycles:
        return min(1, G.m - G.n + G.c), not truncated
    masks = []
    for cv in cycles:
        mask = 0
        for e in cv.edges:
            mask |= 1 << e
        masks.append(mask)
    n_cyc = len(masks)
    best = 1

    share_one = [0] * n_cyc
    for i in range(n_cyc):
        for j in range(i + 1, n_cyc):
            if (masks[i] & masks[j]).bit_count() == 1:
                share_one[i] |= 1 << j
                share_one[j] |= 1 << i

    def extend(last, used_before, length):
        nonlocal best
        if length > best:
            best = length
        candidates = share_one[last]
        while candidates:
            j = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            if masks[j] & used_before:
                continue
            extend(j, used_before | masks[last], length + 1)

    for i in range(n_cyc):
        extend(i, 0, 1)
    return best, not truncated


def solve_ivp_oracle(G, f, x0, t_end, rtol=ODE_RTOL, atol=ODE_ATOL):
    """The flow integrated as the program did before it owned its stepper:
    scipy's RK45 with a terminal settle event, ||F(x)|| falling through the
    equilibrium tolerance. Returns the ``solve_ivp`` result."""
    def settled(_t, x):
        return float(np.linalg.norm(vector_field(G, f, x))) - eq_tolerance(x)

    settled.terminal = True
    settled.direction = -1
    return solve_ivp(lambda _t, x: vector_field(G, f, x), (0.0, float(t_end)),
                     np.asarray(x0, dtype=float), method="RK45", rtol=rtol,
                     atol=atol, events=settled)
