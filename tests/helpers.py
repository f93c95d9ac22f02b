"""Shared test utilities: random graph generation and independent oracles."""

from fractions import Fraction
from itertools import permutations
from json.encoder import encode_basestring

import numpy as np
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from oddcoupling import (
    ManifoldSample,
    build_graph,
    equilibrium_point,
    hessian,
    local_dimension,
    vector_field,
)
from oddcoupling.continuation import _edge_normalized
from oddcoupling.defaults import CONTINUATION_STEP, ODE_ATOL, ODE_RTOL, eq_tolerance, rank_tolerance
from oddcoupling.equilibria import wrap_to_fundamental
from oddcoupling.jsonio import _format_float
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


@st.composite
def any_graphs(draw, n_max=12):
    """Graphs on 0 to ``n_max`` vertices with any edge set, in random edge
    order and orientation: empty, edgeless, with isolated vertices,
    disconnected."""
    n = draw(st.integers(0, n_max))
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return build_graph([(k, j) if flip else (j, k) for (j, k), flip in zip(chosen, flips)], n=n)


def hex_with_pendant_path(reverse=False):
    """A 6-cycle on 0..5 with the 1,994-vertex path 6..1999 hung from vertex
    5; with ``reverse``, every label v becomes 1999 - v."""
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(i, i + 1) for i in range(5, 1999)]
    return build_graph([(1999 - j, 1999 - k) for j, k in edges] if reverse else edges)


def shuffled(edges, n, rng):
    """The same graph with vertices relabelled, edges reordered and every
    orientation drawn at random."""
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[j], label[k]) for j, k in edges]
    rng.shuffle(edges)
    return build_graph([(k, j) if rng.random() < 0.5 else (j, k) for j, k in edges], n=n)


def brute_force_is_covering(phi, G, H):
    """Covering map by its definition: phi is onto V(H), and for every
    vertex i the map j -> phi(j) takes N_G(i) one-to-one onto N_H(phi(i))."""
    if set(phi) != set(range(H.n)):
        return False
    for i in range(G.n):
        preimage = {}
        for j in G.neighbors[i]:
            if phi[j] in preimage:   # two neighbors share an image
                return False
            preimage[phi[j]] = j
        if set(preimage) != set(H.neighbors[phi[i]]):
            return False
    return True


def brute_force_fiber_degrees(phi, G, H):
    """Fiber degrees of a generalized covering by its definition, or None
    when phi is not one: phi is onto V(H), and for every vertex i the
    neighbors j with phi(j) != phi(i) hit each vertex of N_H(phi(i)) the same
    number d_i >= 1 of times and nothing else. An isolated phi(i) takes no
    such neighbor and has d_i = 1."""
    if set(phi) != set(range(H.n)):
        return None
    degrees = []
    for i in range(G.n):
        preimages = {}
        for j in G.neighbors[i]:
            if phi[j] != phi[i]:
                preimages.setdefault(phi[j], []).append(j)
        sizes = {len(js) for js in preimages.values()}
        if set(preimages) != set(H.neighbors[phi[i]]) or len(sizes) > 1:
            return None
        degrees.append(sizes.pop() if sizes else 1)
    return tuple(degrees)


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


def legacy_cycle_basis(G):
    """The fundamental cycles as ``homology.cycle_basis`` found them before it
    read ``Graph.forest``: its own breadth-first walk, with a quadratic
    ``queue.pop(0)``. Kept verbatim as the oracle for the basis."""
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


def correct_oracle(G, f, x_pred, tangents, max_iter=30):
    """The per-row corrector that ``continuation._correct`` replaced: Newton
    for F(x) = 0 in the slice through x_pred orthogonal to the tangents and
    to the translations, one Hessian and one lstsq per step. Returns x, or
    None when the step is not finite, too long, or the iterations run out."""
    T = np.atleast_2d(tangents)
    x = x_pred.copy()
    for _ in range(max_iter):
        F = vector_field(G, f, x)
        cons_t = T @ (x - x_pred)
        cons_d = G.D @ (x - x_pred)
        scale = 1.0 + float(np.max(np.abs(x)))
        if (np.linalg.norm(F) <= eq_tolerance(x)
                and np.max(np.abs(cons_t), initial=0.0) <= 1e-9 * scale
                and np.max(np.abs(cons_d), initial=0.0) <= 1e-9 * scale):
            return x
        A = np.vstack([-hessian(G, f, x), T, G.D])
        r = np.concatenate([F, cons_t, cons_d])
        delta, *_ = np.linalg.lstsq(A, -r, rcond=None)
        if not np.all(np.isfinite(delta)):
            return None
        x = x + delta
        if np.linalg.norm(delta) > 1e3 * scale:
            return None
    return None


def sample_manifold_oracle(G, f, p0, step=CONTINUATION_STEP, budget=400):
    """The one-candidate-at-a-time breadth-first search that
    ``continuation.sample_manifold`` replaced: ``correct_oracle`` and one
    ``local_dimension`` per new point. Returns a ManifoldSample."""
    info0 = local_dimension(G, f, p0)
    d0 = info0.d

    def grid_key(p):
        x = p.x
        if f.periodic is not None:
            x = wrap_to_fundamental(G, x, f.periodic)
        return tuple(np.round((G.Bt @ x) / step).astype(int))

    points, dims, flags = [p0], [d0], []
    seen = {grid_key(p0)}
    frontier = [(p0, info0)]
    while frontier and len(points) < budget:
        p, info = frontier.pop(0)
        basis = info.kernel_basis
        for j in range(basis.shape[1]):
            for sign in (1.0, -1.0):
                if len(points) >= budget:
                    break
                t = _edge_normalized(G, sign * basis[:, j])
                x_new = correct_oracle(G, f, p.x + step * t, basis.T)
                if x_new is None:
                    continue
                p_new = equilibrium_point(G, f, x_new)
                key = grid_key(p_new)
                if key in seen:
                    continue
                seen.add(key)
                info_new = local_dimension(G, f, p_new)
                points.append(p_new)
                dims.append(info_new.d)
                if info_new.d != d0:
                    flags.append(len(points) - 1)
                else:
                    frontier.append((p_new, info_new))

    order = sorted(range(len(points)), key=lambda i: tuple(points[i].canonical))
    return ManifoldSample(
        points=tuple(points[i] for i in order),
        local_dim=tuple(dims[i] for i in order),
        singular_flags=tuple(sorted(order.index(i) for i in set(flags))),
        step=step,
        stop="point_budget" if len(points) >= budget else "frontier_exhausted",
    )


def legacy_dumps(obj):
    """The report writer as ``jsonio.dumps`` was before it encoded each value
    to its own text: one output list passed through the walk, a pad, a value
    and a separator appended for every item. Kept verbatim as the oracle for
    report bytes and errors."""
    out = []
    _legacy_write(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _legacy_write(obj, out, level):
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, (dict, list, tuple, np.ndarray)):
        keyed = isinstance(obj, dict)
        vals = obj.values() if keyed else list(obj)
        if not vals:
            out.append("{}" if keyed else "[]")
            return
        pad, keys = "  " * (level + 1), iter(obj)
        out.append("{\n" if keyed else "[\n")
        last = len(vals) - 1
        for i, val in enumerate(vals):
            out.append(pad + encode_basestring(str(next(keys))) + ": " if keyed else pad)
            _legacy_write(val, out, level + 1)
            out.append(",\n" if i < last else "\n")
        out.append("  " * level + ("}" if keyed else "]"))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def legacy_horner(coeffs, u):
    """sum_k coeffs[k] u^k as odd_poly summed it before it kept np.float64
    tables: a slice and ``reversed`` on every call. Kept verbatim, with the
    methods below, as the oracle for the family's bits and result types."""
    if len(coeffs) < 2:
        return np.full_like(u, coeffs[0] if coeffs else 0.0)
    # u * c, not c * u, skips numpy's reflected-scalar path
    acc = u * coeffs[-1]
    acc += coeffs[-2]
    for c in reversed(coeffs[:-2]):
        acc *= u
        acc += c
    return acc


class LegacyOddPolynomial:
    """f, f', f'' and the primitive of sum_k c_k x^(2k+1) over tuples of
    floats, as ``OddPolynomial`` computed them with ``legacy_horner``."""

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        self._d = tuple((2 * k + 1) * c for k, c in enumerate(coeffs))
        self._d2 = tuple((2 * k + 1) * (2 * k) * c for k, c in enumerate(coeffs))[1:]
        self._p = tuple(c / (2 * k + 2) for k, c in enumerate(coeffs))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x * legacy_horner(self.coeffs, x * x)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        return legacy_horner(self._d, x * x)

    def deriv2(self, x):
        x = np.asarray(x, dtype=float)
        return x * legacy_horner(self._d2, x * x)

    def primitive(self, x):
        x = np.asarray(x, dtype=float)
        u = x * x
        return u * legacy_horner(self._p, u)
