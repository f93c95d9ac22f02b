"""Immutable simple graphs with oriented edges, their operators, and blocks
with cut vertices from low-links over one depth-first order.

The edge order and the orientation of every edge are fixed when the graph is
built and never change afterwards: they define the coordinates of edge space,
so everything downstream (cycle vectors, edge-space images of equilibria,
dedup lattices) is reproducible across runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateEdgeError, SelfLoopError, ValidationError


class Graph:
    """Simple undirected graph with oriented, ordered edges.

    Attributes
    ----------
    n : int
        Vertex count; vertices are labelled 0..n-1.
    edges : tuple[tuple[int, int], ...]
        Oriented edges (tail, head) in construction order.
    forest : tuple[tuple[int, int, int], ...]
        (parent, tree edge, depth) of every vertex in the breadth-first
        spanning forest, roots 0..n-1 and neighbours in sorted order; a root,
        the least vertex of its component, holds (-1, -1, 0).
    component_of : tuple[int, ...]
        Connected-component index of every vertex, from ``forest``.
    c : int
        Number of connected components.
    neighbors : tuple[tuple[int, ...], ...]
        Adjacency lists, sorted.
    B : np.ndarray
        Incidence matrix, shape (n, m): B[i, e] = +1 if i is the head of e,
        -1 if the tail.
    Bt : np.ndarray
        C-contiguous copy of B^T, shape (m, n).
    D : np.ndarray
        0/1 component indicators, shape (c, n). Their rows span the kernel of
        B^T and generate the translational symmetries. B, Bt and D are
        read-only float arrays, built together on first use.
    """

    __slots__ = ("n", "edges", "forest", "component_of", "c", "neighbors",
                 "_edge_lookup", "B", "Bt", "D", "_hash")

    def __init__(self, edges, n: int | None = None):
        edges = [tuple(e) for e in edges]
        seen = set()
        for e in edges:
            if len(e) != 2:
                raise ValidationError(f"edge {e!r} is not a vertex pair")
            j, k = e
            if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in e):
                raise ValidationError(f"edge {e!r} has non-integer endpoints")
            if j < 0 or k < 0:
                raise ValidationError(f"edge {e!r} has a negative vertex label")
            if j == k:
                raise SelfLoopError(f"self-loop on vertex {j}")
            key = frozenset((j, k))
            if key in seen:
                raise DuplicateEdgeError(f"edge {{{j}, {k}}} appears more than once")
            seen.add(key)
        n_min = max((max(e) for e in edges), default=-1) + 1
        if n is None:
            n = n_min
        elif n < n_min:
            raise ValidationError(f"n={n} is smaller than the largest vertex label")
        elif isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValidationError(f"n={n!r} is not an integer")
        self.n = int(n)
        self.edges = tuple((int(j), int(k)) for j, k in edges)

        adj = [[] for _ in range(self.n)]
        for j, k in self.edges:
            adj[j].append(k)
            adj[k].append(j)
        self.neighbors = tuple(tuple(sorted(a)) for a in adj)

        lookup = {}
        for idx, (j, k) in enumerate(self.edges):
            lookup[(j, k)] = (idx, 1)
            lookup[(k, j)] = (idx, -1)
        self._edge_lookup = lookup

        # a vertex takes its parent, tree edge and depth when first discovered
        forest, comp, c = [(-1, -1, 0)] * self.n, [-1] * self.n, 0
        for root in range(self.n):
            if comp[root] != -1:
                continue
            comp[root], queue = c, [root]
            for v in queue:   # the queue grows while it is read
                for w in self.neighbors[v]:
                    if comp[w] == -1:
                        forest[w], comp[w] = (v, lookup[(v, w)][0], forest[v][2] + 1), c
                        queue.append(w)
            c += 1
        self.forest, self.component_of, self.c = tuple(forest), tuple(comp), c
        self._hash = hash((self.n, self.edges))

    def __getattr__(self, name):
        # B, Bt and D are built together on first use, then read from their
        # slots: bounds and blocks never hold the dense n x m incidence matrix
        if name not in ("B", "Bt", "D"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        B = np.zeros((self.n, self.m))
        for idx, (j, k) in enumerate(self.edges):
            B[j, idx], B[k, idx] = -1.0, 1.0
        D = np.zeros((self.c, self.n))
        D[list(self.component_of), range(self.n)] = 1.0
        # the bits of every matmul depend on these layouts: B and Bt C-contiguous
        self.B, self.Bt, self.D = B, np.ascontiguousarray(B.T), D
        for op in (self.B, self.Bt, self.D):
            op.setflags(write=False)
        return getattr(self, name)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_index(self, j: int, k: int) -> tuple[int, int]:
        """Return (edge index, +1 or -1) for the pair (j, k); sign is +1 when
        the stored orientation is (j, k)."""
        return self._edge_lookup[(j, k)]

    def has_edge(self, j: int, k: int) -> bool:
        return (j, k) in self._edge_lookup

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def is_connected(self) -> bool:
        return self.c <= 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, c={self.c})"


def build_graph(edge_list, n: int | None = None) -> Graph:
    """Build an immutable graph from a sequence of vertex pairs.

    Isolated trailing vertices are allowed through the explicit ``n``
    override; otherwise n is one more than the largest label.
    """
    return Graph(edge_list, n=n)


def incidence_rank(G: Graph, tol: float | None = None) -> int:
    """Rank of B, n - c (Biggs, Algebraic Graph Theory, Prop. 4.3); with
    ``tol``, the count of singular values of B above it. n - c is also the
    rank at numpy's cutoff max(n, m)·ε·σ_max, σ_max ≤ √(2n): a component of
    n_k vertices has σ_min ≥ 2/n_k (Mohar 1991), and 2/n_k > max(n, m)·ε·√(2n)
    on every B of fewer than 2·10¹⁰ entries (160 GB)."""
    if tol is None or G.B.size == 0:
        return G.n - G.c
    return int(np.sum(np.linalg.svd(G.B, compute_uv=False) > tol))


@dataclass(frozen=True)
class BlockDecomposition:
    """Biconnected components (blocks) and cut vertices.

    Every edge lies in exactly one block; bridges are 2-vertex blocks; two
    blocks share at most one vertex, which is then a cut vertex.
    """

    blocks: tuple[tuple[int, ...], ...]        # vertex sets, sorted
    block_edges: tuple[tuple[int, ...], ...]   # edge indices per block, sorted
    cut_vertices: tuple[int, ...]


def block_decomposition(G: Graph) -> BlockDecomposition:
    """Blocks and cut vertices from low-links over one depth-first order
    (Tarjan 1972; Hopcroft & Tarjan 1973), in three flat passes:

    1. a depth-first forest, roots 0..n-1 in order. A vertex takes its parent,
       depth and place in ``order`` when first popped, so every non-tree edge
       joins a vertex to one of its ancestors;
    2. over reversed ``order``, low[v], the least depth that v's subtree
       reaches through one non-tree edge, passed up to v's parent;
    3. over ``order``, the tree edge (v, p) opens a block when
       low[v] >= depth[p] and otherwise joins the block of p's tree edge.
       Every edge lies in the block of its deeper end's tree edge.

    Blocks are ordered by their smallest edge index; the cut vertices are the
    vertices of two or more blocks.
    """
    depth, parent, order = [-1] * G.n, [-1] * G.n, []
    for root in range(G.n):
        stack = [(root, -1)]
        while stack:
            v, p = stack.pop()
            if depth[v] == -1:
                depth[v], parent[v] = (depth[p] + 1 if p >= 0 else 0), p
                order.append(v)
                stack.extend((w, v) for w in G.neighbors[v] if depth[w] == -1)
    low = depth[:]
    for v in reversed(order):
        p = parent[v]
        low[v] = min([low[v]] + [depth[w] for w in G.neighbors[v] if w != p])
        if p >= 0:
            low[p] = min(low[p], low[v])
    block_of, count = [-1] * G.n, 0   # the block of each vertex's tree edge
    for v in order:
        p = parent[v]
        if p < 0:
            continue
        if low[v] >= depth[p]:
            block_of[v], count = count, count + 1
        else:
            block_of[v] = block_of[p]
    blocks_e: list[list[int]] = [[] for _ in range(count)]
    for idx, (j, k) in enumerate(G.edges):
        blocks_e[block_of[j] if depth[j] > depth[k] else block_of[k]].append(idx)
    blocks_e.sort()
    blocks_v = [tuple(sorted({u for idx in blk for u in G.edges[idx]})) for blk in blocks_e]
    shared = Counter(u for verts in blocks_v for u in verts)
    return BlockDecomposition(
        blocks=tuple(blocks_v),
        block_edges=tuple(map(tuple, blocks_e)),
        cut_vertices=tuple(sorted(u for u, k in shared.items() if k > 1)),
    )


def induced_subgraph(G: Graph, vertices) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by ``vertices`` with relabelled 0..k-1 vertex set.

    Returns the subgraph and the old->new vertex map. Edge order and
    orientation follow the parent graph.
    """
    verts = sorted(set(vertices))
    relabel = {v: i for i, v in enumerate(verts)}
    sub_edges = [(relabel[j], relabel[k]) for j, k in G.edges if j in relabel and k in relabel]
    return Graph(sub_edges, n=len(verts)), relabel


def graph_to_dict(G: Graph) -> dict:
    return {"n": G.n, "edges": [[j, k] for j, k in G.edges]}


def graph_from_dict(data: dict) -> Graph:
    if "edges" not in data:
        raise ValidationError("graph JSON needs an 'edges' field")
    return Graph([tuple(e) for e in data["edges"]], n=data.get("n"))


def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge format: one 'j k' pair per line, '#' comments."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValidationError(f"line {lineno}: expected 'j k', got {raw!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: non-integer vertex in {raw!r}") from exc
    return Graph(edges)
