"""Vector field, energy, equilibrium finding, and equilibrium bookkeeping.

States live in vertex space; the edge-space image y = B^T x kills the
translational symmetry and is the canonical coordinate for comparing
equilibria. For periodic coupling, images that differ by full periods wound
around cycles are identified through the integer lattice {B^T k : k integer}.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import homology
from .coupling import CouplingFunction, SIGN_MIXED, zeros_in
from .defaults import (
    DEDUP_DISTANCE,
    EQ_TOL_SCALE,
    ZERO_PATTERN_VERTEX_CAP,
    eq_tolerance,
    rank_tolerance,
)
from .errors import NoConvergenceError, NotARootError, ValidationError
from .graphs import Graph


def _rowwise(M, V) -> np.ndarray:
    """M @ v for every row v of the stack V (or of a stack of matrices M).

    Each row goes through its own matrix-vector product and rounds as the
    lone product M @ v does; a matrix product over the stack (V @ M.T) sums
    in another order and changes the last bits of many rows.
    """
    return np.matmul(M, V[..., None])[..., 0]


def vector_field(G: Graph, f: CouplingFunction, x) -> np.ndarray:
    """Right-hand side -B f(B^T x); equals minus the energy gradient.

    A stack ``x`` of shape (k, n) gives the k fields, each equal bit for bit
    to the single-state call.
    """
    x = np.asarray(x, dtype=float)
    mv = np.matmul if x.ndim == 1 else _rowwise
    return -mv(G.B, np.asarray(f(mv(G.Bt, x))))


def energy(G: Graph, f: CouplingFunction, x):
    """Sum over oriented edges of g(x_head - x_tail), g the primitive of f.

    Defined only up to a constant (g(0) = 0 normalisation); compare energy
    differences, never absolute values. A stack ``x`` of shape (k, n) gives
    an array of k energies.
    """
    e = f.primitive(np.asarray(x, dtype=float) @ G.B).sum(axis=-1)
    return float(e) if e.ndim == 0 else e


def hessian(G: Graph, f: CouplingFunction, x) -> np.ndarray:
    """Energy Hessian B diag(f'(B^T x)) B^T, a weighted graph Laplacian;
    minus the Jacobian of the vector field.

    A stack ``x`` of shape (k, n) gives the (k, n, n) stack of Hessians, each
    equal bit for bit to the single-state call.
    """
    x = np.asarray(x, dtype=float)
    mv = np.matmul if x.ndim == 1 else _rowwise
    return (G.B * np.asarray(f.deriv(mv(G.Bt, x)))[..., None, :]) @ G.Bt


def canonical_form(G: Graph, x) -> np.ndarray:
    """Project out the per-component mean (the translational symmetry)."""
    x = np.asarray(x, dtype=float)
    means = (G.D @ x) / G.D.sum(axis=1)
    return x - G.D.T @ means


@dataclass(frozen=True)
class EquilibriumPoint:
    """A state with its edge-space image, residual, and canonical form."""

    x: np.ndarray
    y: np.ndarray          # B^T x
    residual: float        # ||F(x)||_2
    canonical: np.ndarray  # x with zero mean on every component

    def accepted(self, tol_scale: float = EQ_TOL_SCALE) -> bool:
        return self.residual <= eq_tolerance(self.x, tol_scale)


def equilibrium_point(G: Graph, f: CouplingFunction, x) -> EquilibriumPoint:
    return _point(G, x, float(np.linalg.norm(vector_field(G, f, x))))


def _point(G: Graph, x, residual: float) -> EquilibriumPoint:
    """The point at a copy of state ``x`` whose residual ||F(x)|| is known."""
    x = np.array(x, dtype=float)
    y = G.Bt @ x
    canon = canonical_form(G, x)
    for arr in (x, y, canon):
        arr.setflags(write=False)
    return EquilibriumPoint(x=x, y=y, residual=residual, canonical=canon)


# ---------------------------------------------------------------------------
# periodic identification lattice
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _cycle_matrix(G: Graph) -> np.ndarray:
    """Integer cycle-basis matrix C, shape (m, dim H1), as a float array."""
    C = homology.cycle_space_matrix(G).astype(float)
    C.setflags(write=False)
    return C


def edge_space_distance(G: Graph, y1, y2, period: float | None = None):
    """Euclidean distance in edge space, reduced by the winding lattice when
    the coupling is periodic.

    A stack ``y1`` of shape (k, m) gives an array of k distances, each equal
    bit for bit to the single-image call.
    """
    delta = np.asarray(y1, dtype=float) - np.asarray(y2, dtype=float)
    if period is not None:
        # the integer edge vector z is a winding shift B^T k exactly when it
        # sums to zero around every cycle; C^T z is exact, C being integer
        z = np.round(delta / period)
        wound = np.all(z @ _cycle_matrix(G) == 0, axis=-1)
        delta = np.where(wound[..., None], delta - period * z, delta)
    # vecdot, like norm on one vector, sums with dot; norm(axis=-1) does not
    d = np.sqrt(np.vecdot(delta, delta))
    return float(d) if d.ndim == 0 else d


def points_equivalent(G: Graph, f: CouplingFunction, p: EquilibriumPoint,
                      q: EquilibriumPoint) -> bool:
    """Equivalence used for dedup: translations always, winding for periodic f."""
    return edge_space_distance(G, p.y, q.y, period=f.periodic) <= DEDUP_DISTANCE


def wrap_to_fundamental(G: Graph, x, period: float) -> np.ndarray:
    """Shift every coordinate by integer periods so the state lies in a
    bounded fundamental domain (anchored at each component's first vertex)."""
    x = np.array(x, dtype=float)
    for comp in range(G.c):
        idx = np.nonzero(G.D[comp])[0]
        anchor = x[idx[0]]
        x[idx] -= period * np.round((x[idx] - anchor) / period)
    return x


# ---------------------------------------------------------------------------
# Newton solver and multistart atlas
# ---------------------------------------------------------------------------

# stop reasons of newton_batch, one per start
CONVERGED, STALLED, CAPPED = 1, 2, 3

# multistart_atlas solves its starts in blocks of NEWTON_BLOCK // n^2, so
# that the (block, n, n) Hessian and SVD stacks stay near 256 KB each
NEWTON_BLOCK = 2**15


def newton_batch(G: Graph, f: CouplingFunction, X, max_iter: int):
    """Damped Newton iteration on F(x) = -B f(B^T x) from every row of the
    stack ``X``, shape (S, n).

    The Jacobian is symmetric and singular (translations, and tangentially
    along any manifold of equilibria), so steps use a truncated pseudo-inverse;
    the minimum-norm step is automatically orthogonal to the kernel. Progress
    is enforced by a backtracking line search on ||F||^2, row by row: each
    halving evaluates the field only at the rows still searching.

    Every row takes the steps a lone start would, bit for bit. Returns the
    final states, their residuals ||F|| and a stop reason per row: CONVERGED,
    STALLED (the line search gave up; state and residual are where it did) or
    CAPPED (``max_iter`` steps without convergence).
    """
    X = np.array(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValidationError("x0 must be finite")
    F = vector_field(G, f, X)
    # vecdot, like norm on one vector, sums with dot
    res = np.sqrt(np.vecdot(F, F))
    stop = np.full(len(X), CAPPED)
    live = np.arange(len(X))  # rows still iterating
    steps = max(max_iter, 0)
    for it in range(steps + 1):
        x = X[live]
        done = res[live] <= eq_tolerance(x)
        stop[live[done]] = CONVERGED
        live, x = live[~done], x[~done]
        if it == steps or not live.size:
            break
        U, s, Vt = np.linalg.svd(-hessian(G, f, x))
        cutoff = rank_tolerance(G.n, G.n, s[:, 0])
        kept = s > cutoff[:, None]
        inv = np.where(kept, 1.0 / np.where(kept, s, 1.0), 0.0)
        delta = -_rowwise(Vt.swapaxes(1, 2), inv * _rowwise(U.swapaxes(1, 2), F[live]))
        base = res[live] * res[live]
        # the rows still searching share the step length t
        t = 1.0
        look = np.arange(live.size)  # positions in live still searching
        while look.size and t > 1e-7:
            x_t = x[look] + t * delta[look]
            F_t = vector_field(G, f, x_t)
            r_t = np.sqrt(np.vecdot(F_t, F_t))
            ok = r_t * r_t <= (1.0 - 1e-4 * t) * base[look]
            rows = live[look[ok]]
            X[rows], F[rows], res[rows] = x_t[ok], F_t[ok], r_t[ok]
            look = look[~ok]
            t *= 0.5
        if look.size:  # the line search gave up on these rows
            stop[live[look]] = STALLED
            live = np.delete(live, look)
    return X, res, stop


def newton_solve(G: Graph, f: CouplingFunction, x0, max_iter: int = 60) -> EquilibriumPoint:
    """``newton_batch`` from the one start ``x0``; raises NoConvergenceError
    unless it converges."""
    x = np.array(x0, dtype=float)
    if x.shape != (G.n,):
        raise ValidationError(f"x0 must have length {G.n}")
    X, res, stop = newton_batch(G, f, x[None], max_iter)
    r = float(res[0])
    if stop[0] == CONVERGED:
        return _point(G, X[0], r)
    if stop[0] == STALLED:
        raise NoConvergenceError(f"line search stalled at residual {r:.3e}")
    raise NoConvergenceError(f"no convergence after {max_iter} iterations "
                             f"(residual {r:.3e})")


@dataclass(frozen=True)
class EquilibriumAtlas:
    """Deduplicated equilibria found by multistart, sorted for reproducibility."""

    points: tuple[EquilibriumPoint, ...]
    n_starts: int
    n_converged: int
    seed: int
    box_radius: float
    periodic_identification: bool

    def to_dict(self) -> dict:
        return {
            "n_starts": self.n_starts,
            "n_converged": self.n_converged,
            "seed": self.seed,
            "box_radius": self.box_radius,
            "dedup_distance": DEDUP_DISTANCE,
            "periodic_identification": self.periodic_identification,
            "points": [
                {
                    "x": list(p.x),
                    "y": list(p.y),
                    "residual": p.residual,
                    "canonical": list(p.canonical),
                }
                for p in self.points
            ],
        }


def multistart_atlas(G: Graph, f: CouplingFunction, n_starts: int, seed: int,
                     box_radius: float, max_iter: int = 80) -> EquilibriumAtlas:
    """Newton solves from seeded uniform starts in [-box, box]^n, deduplicated.

    Points on the same continuum are intentionally kept as distinct samples;
    only points within ``DEDUP_DISTANCE`` in (identified) edge space merge.
    Output order is (residual, canonical coordinates).
    """
    if n_starts < 1:
        raise ValidationError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-box_radius, box_radius, size=(n_starts, G.n))
    block = max(1, NEWTON_BLOCK // max(G.n * G.n, 1))
    converged = []
    for lo in range(0, n_starts, block):
        X, res, stop = newton_batch(G, f, starts[lo:lo + block], max_iter)
        converged += [_point(G, x, float(r))
                      for x, r, why in zip(X, res, stop) if why == CONVERGED]
    converged.sort(key=lambda p: (p.residual, tuple(p.canonical)))
    kept: list[EquilibriumPoint] = []
    kept_y = np.empty((len(converged), G.m))
    for p in converged:
        near = edge_space_distance(G, kept_y[:len(kept)], p.y, period=f.periodic)
        if not np.any(near <= DEDUP_DISTANCE):
            kept_y[len(kept)] = p.y
            kept.append(p)
    return EquilibriumAtlas(
        points=tuple(kept),
        n_starts=n_starts,
        n_converged=len(converged),
        seed=seed,
        box_radius=box_radius,
        periodic_identification=f.periodic is not None,
    )


# ---------------------------------------------------------------------------
# constructive families and membership checks
# ---------------------------------------------------------------------------

def zero_pattern_equilibria(G: Graph, f: CouplingFunction, z: float) -> list[EquilibriumPoint]:
    """The 2^(n-1) equilibria with coordinates in {0, z}, z a nonzero root of f.

    Vertex 0 is pinned at 0; every edge difference lies in {0, +z, -z}, where
    f vanishes, so the residuals are zero up to roundoff.
    """
    if not G.is_connected():
        raise ValidationError("zero-pattern enumeration needs a connected graph")
    if G.n > ZERO_PATTERN_VERTEX_CAP:
        raise ValidationError(f"2^(n-1) enumeration capped at n <= {ZERO_PATTERN_VERTEX_CAP}")
    if abs(z) < 1e-12:
        raise NotARootError("z must be a nonzero root of f")
    if abs(float(f(z))) > 1e-10:
        raise NotARootError(f"f({z}) = {float(f(z)):.3e} is not zero")
    points = []
    for bits in range(2 ** (G.n - 1)):
        x = np.zeros(G.n)
        for v in range(1, G.n):
            if bits & (1 << (v - 1)):
                x[v] = z
        points.append(equilibrium_point(G, f, x))
    return points


@dataclass(frozen=True)
class MembershipReport:
    """Edge-space equilibrium certificates.

    An equilibrium image y must be orthogonal to cycle space, have f(y) inside
    cycle space, and satisfy the skew identity sum_e y_e f(y_e) = 0.
    """

    skew_norm: float
    dist_f_from_cycle_space: float
    dist_y_from_cocycle_space: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return max(self.skew_norm, self.dist_f_from_cycle_space,
                   self.dist_y_from_cocycle_space) <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "skew_norm": self.skew_norm,
            "dist_f_from_cycle_space": self.dist_f_from_cycle_space,
            "dist_y_from_cocycle_space": self.dist_y_from_cocycle_space,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@lru_cache(maxsize=256)
def _cycle_projector(G: Graph) -> np.ndarray | None:
    C = _cycle_matrix(G)
    if C.shape[1] == 0:
        return None
    Q, _ = np.linalg.qr(C)
    Q.setflags(write=False)
    return Q


def membership_tests(G: Graph, f: CouplingFunction, p: EquilibriumPoint) -> MembershipReport:
    y = p.y
    fy = np.asarray(f(y))
    skew = abs(float(y @ fy))
    Q = _cycle_projector(G)
    if Q is None:
        dist_f = float(np.linalg.norm(fy))
        dist_y = 0.0
    else:
        dist_f = float(np.linalg.norm(fy - Q @ (Q.T @ fy)))
        dist_y = float(np.linalg.norm(Q.T @ y))
    return MembershipReport(
        skew_norm=skew,
        dist_f_from_cycle_space=dist_f,
        dist_y_from_cocycle_space=dist_y,
        tolerance=10.0 * eq_tolerance(p.x),
    )


class EquilibriaClass(str, Enum):
    ONLY_ZERO = "only_zero"
    DISCRETE = "discrete"
    NO_CONCLUSION = "no_conclusion"


@dataclass(frozen=True)
class EquilibriaPrediction:
    kind: EquilibriaClass
    global_convergence: bool          # increasing coupling: every trajectory -> 0
    nonzero_roots: tuple[float, ...]  # witnesses found in the scanned range
    scanned: tuple[float, float]


def predict_equilibria_class(G: Graph, f: CouplingFunction) -> EquilibriaPrediction:
    """What the zero set of f alone says about the set of equilibria.

    Exhaustive for polynomials (roots are inside the Cauchy bound) and for
    periodic couplings (one period determines the zero set).
    """
    if G.m < 1:
        raise ValidationError("prediction needs a graph with at least one edge")
    if f.periodic is not None:
        lo, hi = 1e-9, f.periodic - 1e-9
    else:
        lo, hi = 1e-9, f.cauchy_root_bound() + 1.0
    # roots below 1e-6 are the forced root at the origin leaking into the
    # scan window (every odd f vanishes at 0)
    roots = tuple(r for r in zeros_in(f, (lo, hi)).values() if r > 1e-6)
    flags_sign = f.sign_on_positives
    if not roots:
        kind = EquilibriaClass.ONLY_ZERO
    elif flags_sign != SIGN_MIXED:
        kind = EquilibriaClass.DISCRETE
    else:
        kind = EquilibriaClass.NO_CONCLUSION
    return EquilibriaPrediction(
        kind=kind,
        global_convergence=f.increasing,
        nonzero_roots=roots,
        scanned=(lo, hi),
    )
