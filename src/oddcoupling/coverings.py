"""Graph coverings, generalized coverings, equilibrium lifting, and
automorphisms.

A vertex surjection phi: V(G) -> V(H) is a generalized covering map when,
after discarding the neighbors that share the vertex's own image (their
interaction terms cancel), it maps every neighborhood d_i-to-one onto the
image neighborhood. ``_fiber_degree`` is the one per-vertex check, run by
``is_generalized_covering`` and by the search: a covering map is a
generalized covering with every d_i = 1 and no edge of G inside a fiber.
Equilibria of H lift to equilibria of G through x_i = y_{phi(i)}.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .coupling import CouplingFunction
from .defaults import (AUTOMORPHISM_CAP, COVERING_CAP, COVERING_NODE_CAP, SEARCH_VERTEX_CAP,
                       eq_tolerance)
from .equilibria import (
    EquilibriumPoint,
    equilibrium_point,
    points_equivalent,
)
from .errors import (
    NotAnEquilibriumError,
    NumericalError,
    SearchBudgetExceededError,
    ValidationError,
)
from .graphs import Graph

__all__ = [
    "VertexMap",
    "AutomorphismSet",
    "is_covering",
    "is_generalized_covering",
    "find_generalized_coverings",
    "lift_equilibrium",
    "automorphisms",
    "apply_permutation",
    "orbit_of_equilibrium",
    "OrbitResult",
]


@dataclass(frozen=True)
class VertexMap:
    """A generalized covering map G -> H and its fiber degrees d_i, as a
    successful ``is_generalized_covering`` returns them; build one through
    ``validated_vertex_map`` or ``find_generalized_coverings``."""

    phi: tuple[int, ...]
    fiber_degrees: tuple[int, ...]

    @property
    def external_equitable(self) -> bool:
        """Whether all fiber degrees are equal."""
        return len(set(self.fiber_degrees)) == 1

    def to_dict(self) -> dict:
        return {**asdict(self), "external_equitable": self.external_equitable}


def _check_phi(phi, G: Graph, H: Graph) -> tuple[int, ...]:
    phi = tuple(int(v) for v in phi)
    if len(phi) != G.n:
        raise ValidationError(f"phi must assign all {G.n} vertices")
    if any(not 0 <= v < H.n for v in phi):
        raise ValidationError("phi maps outside the target vertex set")
    return phi


def is_covering(phi, G: Graph, H: Graph) -> bool:
    """True iff phi is surjective and bijects every N_G(i) onto N_H(phi(i)):
    a generalized covering whose fiber degrees are all 1, with no edge of G
    inside a fiber."""
    phi = _check_phi(phi, G, H)
    if any(phi[j] == phi[k] for j, k in G.edges):
        return False
    ok, degrees = is_generalized_covering(phi, G, H)
    return ok and all(d == 1 for d in degrees)


def is_generalized_covering(phi, G: Graph, H: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Check the d_i-to-one condition after removing same-image neighbors.

    Returns (valid, fiber_degrees): phi must be onto and every vertex must
    pass ``_fiber_degree``; failure of either is a plain False.
    """
    phi = _check_phi(phi, G, H)
    degrees = tuple(_fiber_degree(phi, i, G, H) for i in range(G.n))
    if set(phi) != set(range(H.n)) or not all(degrees):
        return False, None
    return True, degrees


def _fiber_degree(phi, i: int, G: Graph, H: Graph) -> int:
    """d_i, or 0 when vertex i fails: the neighbors off its own image must
    land in N_H(phi(i)), each image neighbor equally often. An isolated
    image takes no neighbors and counts as degree 1."""
    images = [phi[j] for j in G.neighbors[i]]
    target = H.neighbors[phi[i]]
    vals = {images.count(h) for h in target} or {1}
    d = vals.pop()
    return d if not vals and len(images) - images.count(phi[i]) == d * len(target) else 0


def validated_vertex_map(phi, G: Graph, H: Graph) -> VertexMap:
    ok, degrees = is_generalized_covering(phi, G, H)
    if not ok:
        raise ValidationError("phi is not a generalized covering map")
    return VertexMap(phi=tuple(int(v) for v in phi), fiber_degrees=degrees)


def find_generalized_coverings(G: Graph, H: Graph, cap: int = COVERING_CAP) -> list[VertexMap]:
    """All generalized covering maps G -> H by backtracking, in lexicographic
    order of the assignment vector. Each vertex meets ``_fiber_degree`` once,
    when the last of it and its neighbors is mapped. Raises
    SearchBudgetExceededError past ``cap`` maps or ``COVERING_NODE_CAP`` nodes."""
    if G.n > SEARCH_VERTEX_CAP:
        raise ValidationError(f"search capped at {SEARCH_VERTEX_CAP} vertices "
                              f"(got {G.n}); exponential backtracking")
    closing = [[] for _ in range(G.n)]
    for u in range(G.n):
        closing[max((u, *G.neighbors[u]))].append(u)
    # the images a vertex's neighbor may have when the vertex maps to h
    allowed = [{-1, h, *H.neighbors[h]} for h in range(H.n)]
    phi, degrees = [-1] * G.n, [0] * G.n
    found: list[VertexMap] = []
    nodes = 0

    def backtrack(v: int):
        nonlocal nodes
        if nodes == COVERING_NODE_CAP:
            raise SearchBudgetExceededError(f"covering search reached {COVERING_NODE_CAP} nodes")
        nodes += 1
        if v == G.n:
            if len(set(phi)) == H.n:
                found.append(VertexMap(phi=tuple(phi), fiber_degrees=tuple(degrees)))
                if len(found) > cap:
                    raise SearchBudgetExceededError(
                        f"more than {cap} generalized coverings")
            return
        for h in range(H.n):
            if all(phi[w] in allowed[h] for w in G.neighbors[v]):
                phi[v] = h
                for u in closing[v]:
                    degrees[u] = _fiber_degree(phi, u, G, H)
                    if not degrees[u]:
                        break
                else:
                    backtrack(v + 1)
        phi[v] = -1

    backtrack(0)
    return found


def lift_equilibrium(phi: VertexMap, y_point: EquilibriumPoint, G: Graph, H: Graph,
                     f: CouplingFunction) -> EquilibriumPoint:
    """Pull an equilibrium of H back to G through a checked covering map:
    x_i = y_{phi(i)}. The interaction sums cancel fiber by fiber, so the lift
    is an equilibrium up to d_i-scaled roundoff."""
    if not y_point.accepted():
        raise NotAnEquilibriumError(
            f"input residual {y_point.residual:.3e} exceeds tolerance")
    x = np.array([y_point.x[phi.phi[i]] for i in range(G.n)])
    lifted = equilibrium_point(G, f, x)
    allowed = max(phi.fiber_degrees) * y_point.residual + 1e-12
    if lifted.residual > max(allowed, eq_tolerance(x)):
        raise NumericalError(
            f"lift residual {lifted.residual:.3e} exceeds {allowed:.3e}")
    return lifted


@dataclass(frozen=True)
class AutomorphismSet:
    """Adjacency-preserving vertex permutations; a group when complete."""

    permutations: tuple[tuple[int, ...], ...]
    complete: bool

    def __len__(self):
        return len(self.permutations)


def automorphisms(G: Graph) -> AutomorphismSet:
    """All graph automorphisms by backtracking with degree pruning."""
    if G.n > SEARCH_VERTEX_CAP:
        raise ValidationError(f"search capped at {SEARCH_VERTEX_CAP} vertices")
    deg = [G.degree(v) for v in range(G.n)]
    nbr_deg = [tuple(sorted(deg[w] for w in G.neighbors[v])) for v in range(G.n)]
    sigma = [-1] * G.n
    used = [False] * G.n
    perms: list[tuple[int, ...]] = []

    def consistent(v: int, u: int) -> bool:
        # edges into edges suffices: a vertex bijection mapping all m edges
        # onto edges is automatically adjacency-preserving both ways
        if deg[u] != deg[v] or nbr_deg[u] != nbr_deg[v]:
            return False
        for w in G.neighbors[v]:
            if sigma[w] != -1 and not G.has_edge(u, sigma[w]):
                return False
        return True

    def backtrack(v: int):
        if v == G.n:
            perms.append(tuple(sigma))
            return
        for u in range(G.n):
            if len(perms) < AUTOMORPHISM_CAP and not used[u] and consistent(v, u):
                sigma[v] = u
                used[u] = True
                backtrack(v + 1)
                used[u] = False
                sigma[v] = -1

    backtrack(0)   # depth first, so in lexicographic order
    return AutomorphismSet(permutations=tuple(perms), complete=len(perms) < AUTOMORPHISM_CAP)


def apply_permutation(perm, x: np.ndarray) -> np.ndarray:
    """Coordinate action: (sigma.x)[sigma(v)] = x[v]."""
    out = np.empty_like(np.asarray(x, dtype=float))
    out[np.asarray(perm)] = x
    return out


@dataclass(frozen=True)
class OrbitResult:
    """Orbit of an equilibrium under the automorphism action.

    stabilizer_sizes counts, per orbit representative, the automorphisms
    fixing it (up to translational/winding identification); a stabilizer
    larger than one marks a candidate singular point where symmetric
    manifolds of equilibria may intersect.
    """

    points: tuple[EquilibriumPoint, ...]
    stabilizer_sizes: tuple[int, ...]

    @property
    def singular_candidates(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.stabilizer_sizes) if s > 1)


def orbit_of_equilibrium(auts: AutomorphismSet, G: Graph, f: CouplingFunction,
                         p: EquilibriumPoint) -> OrbitResult:
    """Apply every automorphism to p, dedup, and verify each image.

    Equivariance makes every image an equilibrium with the same residual; the
    verification guards against mixed-up graphs rather than roundoff.
    """
    if not p.accepted():
        raise NotAnEquilibriumError(f"residual {p.residual:.3e} too large")
    reps: list[EquilibriumPoint] = []
    stab: list[int] = []
    for perm in auts.permutations:
        q = equilibrium_point(G, f, apply_permutation(perm, p.x))
        if q.residual > 10 * eq_tolerance(q.x):
            raise NumericalError("automorphism image failed the residual check; "
                                 "is the permutation really an automorphism?")
        for i, r in enumerate(reps):
            if points_equivalent(G, f, q, r):
                stab[i] += 1
                break
        else:
            reps.append(q)
            stab.append(1)
    return OrbitResult(points=tuple(reps), stabilizer_sizes=tuple(stab))
