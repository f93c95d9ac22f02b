"""Tracing positive-dimensional components of the equilibrium set.

Local manifold dimension is read off the Hessian kernel (minus the forced
translation directions). Curves are followed by a pseudo-arclength predictor
along a kernel direction with a Newton corrector in the slice orthogonal to
the predictor tangent and to the translations. Surfaces are explored
breadth-first with a dedup grid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .coupling import CouplingFunction
from .defaults import CONTINUATION_STEP, EQ_TOL_SCALE, ZERO_TOL_SCALE
from .equilibria import (
    CAPPED,
    CONVERGED,
    DIVERGED,
    NEWTON_BLOCK,
    NONFINITE,
    EquilibriumPoint,
    _point,
    _rowwise,
    edge_space_distance,
    hessian,
    vector_field,
    wrap_to_fundamental,
)
from .errors import NotOnManifoldError, ValidationError
from .graphs import Graph
from .stability import Spectrum

__all__ = ["LocalDimension", "ManifoldSample", "local_dimension", "trace_curve",
           "sample_manifold"]


@dataclass(frozen=True)
class LocalDimension:
    """Kernel data of the Hessian at an equilibrium.

    d is dim ker - c; the basis spans the kernel with the translation
    directions projected out. The gap pair (smallest |eigenvalue| above the
    zero bucket, largest inside it) makes borderline calls auditable.
    """

    d: int
    kernel_basis: np.ndarray  # (n, d)
    spectrum: Spectrum        # eigh's eigenvalues and their zero bucket
    gap: tuple[float, float]


def local_dimension(G: Graph, f: CouplingFunction,
                    p: EquilibriumPoint | list[EquilibriumPoint],
                    zero_scale: float = ZERO_TOL_SCALE) -> LocalDimension | list[LocalDimension]:
    """Tangent-space dimension at an accepted equilibrium (eigh, for the
    eigenvectors).

    A list of points gives a list of LocalDimension, from one stacked
    Hessian and one stacked eigh; each equals the single-point call bit for
    bit.
    """
    Dn = G.D / np.sqrt(G.D.sum(axis=1, keepdims=True))
    if isinstance(p, EquilibriumPoint):
        evals, evecs = np.linalg.eigh(hessian(G, f, p.x))
        return _local_dimension(G, Dn, evals, evecs, zero_scale)
    evals, evecs = np.linalg.eigh(hessian(G, f, np.array([q.x for q in p])))
    return [_local_dimension(G, Dn, e, v, zero_scale) for e, v in zip(evals, evecs)]


def _local_dimension(G: Graph, Dn: np.ndarray, evals: np.ndarray, evecs: np.ndarray,
                     zero_scale: float) -> LocalDimension:
    """The kernel data from one eigendecomposition; Dn holds the normalised
    component indicators."""
    spec = Spectrum.of(evals, zero_scale)
    zero_mask = spec.zero_mask
    d = max(0, spec.zero_multiplicity - G.c)

    abs_evals = np.abs(evals)
    gap = (float(np.minimum.reduce(abs_evals[~zero_mask], initial=np.inf)),
           float(np.maximum.reduce(abs_evals[zero_mask], initial=0.0)))

    K = evecs[:, zero_mask]
    K = K - Dn.T @ (Dn @ K)  # project out translations
    if d > 0 and K.size:
        # the projected kernel has rank d: the top d singular vectors are the
        # manifold tangents, the rest are the removed translations
        U, s, _ = np.linalg.svd(K, full_matrices=False)
        basis = U[:, :d][:, s[:d] > 0.5]
    else:
        basis = np.zeros((G.n, 0))
    return LocalDimension(
        d=d,
        kernel_basis=basis,
        spectrum=spec,
        gap=gap,
    )


# why a trace or a sample stopped: out-of-band, reports leave it out
CLOSED = "closed"
CORRECTOR_FAILED = "corrector_failed"
DIMENSION_JUMP = "dimension_jump"
NO_KERNEL_DIRECTION = "no_kernel_direction"
STEP_BUDGET = "step_budget"
POINT_BUDGET = "point_budget"
FRONTIER_EXHAUSTED = "frontier_exhausted"


@dataclass(frozen=True)
class ManifoldSample:
    """Ordered equilibrium samples along a traced or explored component.

    ``stop`` says why the run ended: CLOSED, CORRECTOR_FAILED,
    DIMENSION_JUMP, NO_KERNEL_DIRECTION or STEP_BUDGET for a curve,
    POINT_BUDGET or FRONTIER_EXHAUSTED for a surface. ``to_dict`` leaves it
    out, so reports do not depend on it.
    """

    points: tuple[EquilibriumPoint, ...]
    local_dim: tuple[int, ...]
    singular_flags: tuple[int, ...]  # indices into points
    step: float
    stop: str

    @property
    def closed(self) -> bool:
        """Whether the trace returned to its start."""
        return self.stop == CLOSED

    def to_dict(self) -> dict:
        return {
            "closed": self.closed,
            "step": self.step,
            "singular_flags": list(self.singular_flags),
            "points": [
                {
                    "x": list(p.x),
                    "residual": p.residual,
                    "local_dim": d,
                    "singular": i in self.singular_flags,
                }
                for i, (p, d) in enumerate(zip(self.points, self.local_dim))
            ],
        }


def _edge_normalized(G: Graph, t: np.ndarray) -> np.ndarray:
    nrm = float(np.linalg.norm(G.Bt @ t))
    if nrm == 0.0:
        raise ValidationError("direction has zero edge-space length")
    return t / nrm


# the gufunc that np.linalg.lstsq runs on each matrix, LAPACK's gelsd, which
# solves a whole stack in one call; looked up here, so that a numpy without
# it fails on import
_GELSD = _umath_linalg.lstsq
_EPS = float(np.finfo(float).eps)


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _stacked_lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(a, v, rcond=None)[0]`` for every tall matrix a of
    the stack A, shape (S, m, n) with m >= n, and its row v of b, shape
    (S, m), in one call: each solution equals the lone call's bit for bit,
    with its rcond eps * m and its error handling."""
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x = _GELSD(A, b[..., None], _EPS * A.shape[-2], signature="ddd->ddid")[0]
    return x[..., 0]


def _correct(G: Graph, f: CouplingFunction, X_pred: np.ndarray, T: np.ndarray,
             max_iter: int = 30):
    """Newton iteration for F(x) = 0 from every row of the stack ``X_pred``,
    shape (S, n), each in the affine slice through its predictor orthogonal
    to the rows of its tangent slice ``T[i]`` (T has shape (S, k, n)) and to
    the translations.

    Every row takes the steps a lone correction with the C-ordered matrix
    ``T[i]`` would, bit for bit (a transposed view rounds T @ d differently).
    The systems [-H; T; D] of all live rows go to one stacked least-squares
    call per iteration, which solves each as its own ``np.linalg.lstsq`` call
    would.

    Returns the final states, their residuals ||F|| and an outcome per row:
    CONVERGED, NONFINITE or DIVERGED (the step was not finite, or longer than
    1e3 (1 + |x|_inf); the state is the one before that step) or CAPPED
    (``max_iter`` steps without convergence; the state after the last one).
    """
    S, n = X_pred.shape
    k = T.shape[1]
    X, res, outcome = np.empty((S, n)), np.empty(S), np.full(S, CAPPED)
    # the T and D rows of every row's system stay fixed
    A = np.empty((S, n + k + G.c, n))
    A[:, n:n + k] = T
    A[:, n + k:] = G.D
    rows = np.arange(S)  # the row of X_pred each live row came from
    x, x_pred = X_pred, X_pred
    for it in range(max_iter + 1):
        F = vector_field(G, f, x)
        # vecdot, like norm on one vector, sums with dot
        rn = np.sqrt(np.vecdot(F, F))
        if it == max_iter:
            break
        dx = x - x_pred
        r = np.concatenate([F, _rowwise(T, dx), _rowwise(G.D, dx)], axis=1)
        scale = 1.0 + np.abs(x).max(axis=1)
        # EQ_TOL_SCALE * scale is eq_tolerance(x), bit for bit
        done = (rn <= EQ_TOL_SCALE * scale) & (np.abs(r[:, n:]).max(axis=1) <= 1e-9 * scale)
        n_done = np.count_nonzero(done)
        if n_done == S:  # every row at once: no indexing
            outcome[:] = CONVERGED
            return x.copy(), rn, outcome
        if n_done:
            idx = rows[done]
            X[idx], res[idx], outcome[idx] = x[done], rn[done], CONVERGED
            if n_done == rows.size:
                return X, res, outcome
            live = ~done
            rows, x, x_pred, T, A = rows[live], x[live], x_pred[live], T[live], A[live]
            r, rn, scale = r[live], rn[live], scale[live]
        A[:, :n] = -hessian(G, f, x)
        delta = _stacked_lstsq(A, -r)
        # a step that is not finite fails this test too
        short = np.sqrt(np.vecdot(delta, delta)) <= 1e3 * scale
        n_short = np.count_nonzero(short)
        if n_short < rows.size:
            failed = ~short
            idx = rows[failed]
            X[idx], res[idx] = x[failed], rn[failed]
            outcome[idx] = np.where(np.isfinite(delta[failed]).all(axis=1), DIVERGED, NONFINITE)
            if not n_short:
                return X, res, outcome
            rows, x, delta, x_pred, T, A = (rows[short], x[short], delta[short],
                                            x_pred[short], T[short], A[short])
        x = x + delta
    X[rows], res[rows] = x, rn
    return X, res, outcome


def _aligned_kernel_direction(basis: np.ndarray, secant: np.ndarray) -> np.ndarray | None:
    """Kernel direction best aligned with the last step; None if the secant
    has no kernel component (the branch turned singular)."""
    coeffs = basis.T @ secant
    v = basis @ coeffs
    nrm = float(np.linalg.norm(v))
    if nrm < 1e-10:
        return None
    return v / nrm


def trace_curve(G: Graph, f: CouplingFunction, p0: EquilibriumPoint,
                direction_index: int = 0, step: float = CONTINUATION_STEP,
                max_steps: int = 400,
                zero_scale: float = ZERO_TOL_SCALE) -> ManifoldSample:
    """Follow a one-dimensional family of equilibria from p0.

    Stops on closure (return to p0 with aligned direction, winding shifts
    identified for periodic coupling), on a singularity (corrector failure
    after one step bisection, a kernel-dimension jump, or no kernel direction
    along the last step; the point is flagged), or after max_steps.
    """
    if not p0.accepted():
        raise ValidationError(f"start residual {p0.residual:.3e} exceeds tolerance")
    info0 = local_dimension(G, f, p0, zero_scale)
    if info0.d < 1:
        raise NotOnManifoldError(f"local dimension is {info0.d}; need >= 1")
    if not 0 <= direction_index < info0.kernel_basis.shape[1]:
        raise ValidationError(f"direction_index {direction_index} out of range")

    points = [p0]
    dims = [info0.d]
    flags: list[int] = []
    d_curve = info0.d

    t = _edge_normalized(G, info0.kernel_basis[:, direction_index])
    t0 = t.copy()
    x = p0.x.copy()

    for _ in range(max_steps):
        for trial_step in (step, 0.5 * step):
            X, res, outcome = _correct(G, f, (x + trial_step * t)[None], t[None, None])
            if outcome[0] == CONVERGED:
                break
        else:
            flags.append(len(points) - 1)
            stop = CORRECTOR_FAILED
            break
        x_new = X[0]
        p_new = _point(G, x_new, float(res[0]))
        info = local_dimension(G, f, p_new, zero_scale)
        points.append(p_new)
        dims.append(info.d)

        if info.d != d_curve:
            flags.append(len(points) - 1)
            stop = DIMENSION_JUMP
            break

        secant = x_new - x
        # the cheap alignment test first: it fails on half of a loop
        if (len(points) > 3
                and float((G.Bt @ secant) @ (G.Bt @ t0)) > 0.0
                and edge_space_distance(G, p_new.y, p0.y, period=f.periodic) < 0.5 * step):
            stop = CLOSED
            break

        t_next = _aligned_kernel_direction(info.kernel_basis, secant)
        if t_next is None:
            flags.append(len(points) - 1)
            stop = NO_KERNEL_DIRECTION
            break
        t = _edge_normalized(G, t_next)
        x = x_new
    else:
        stop = STEP_BUDGET

    return ManifoldSample(
        points=tuple(points),
        local_dim=tuple(dims),
        singular_flags=tuple(flags),
        step=step,
        stop=stop,
    )


def sample_manifold(G: Graph, f: CouplingFunction, p0: EquilibriumPoint,
                    step: float = CONTINUATION_STEP, budget: int = 400,
                    zero_scale: float = ZERO_TOL_SCALE) -> ManifoldSample:
    """Breadth-first point cloud on a component of dimension >= 2.

    New points come from stepping along each kernel direction and correcting
    in the slice that pins all tangent coordinates; a grid of spacing ``step``
    in (wrapped) edge space deduplicates. The budget caps the cloud size.

    The candidates (frontier point, direction, sign) are corrected in stacked
    batches of at most budget - len(points) rows, and of NEWTON_BLOCK // n^2
    rows at most. Each candidate adds at most one point, so a search that
    corrects one candidate at a time would try every candidate of a batch
    too; admitting the results in order gives its points bit for bit.
    """
    if not p0.accepted():
        raise ValidationError(f"start residual {p0.residual:.3e} exceeds tolerance")
    info0 = local_dimension(G, f, p0, zero_scale)
    if info0.d < 2:
        raise NotOnManifoldError(f"local dimension is {info0.d}; need >= 2")
    d0 = info0.d

    def grid_key(x: np.ndarray):
        if f.periodic is not None:
            x = wrap_to_fundamental(G, x, f.periodic)
        return tuple(np.round((G.Bt @ x) / step).astype(int))

    def candidates(x: np.ndarray, basis: np.ndarray):
        return [(x, basis, j, sign) for j in range(basis.shape[1]) for sign in (1.0, -1.0)]

    points = [p0]
    dims = [d0]
    flags: list[int] = []
    seen = {grid_key(p0.x)}
    queue = deque(candidates(p0.x, info0.kernel_basis))
    block = max(1, NEWTON_BLOCK // (G.n * G.n))

    while queue and len(points) < budget:
        # one stack shares the tangent count k
        k = queue[0][1].shape[1]
        batch = []
        while (queue and len(batch) < min(budget - len(points), block)
               and queue[0][1].shape[1] == k):
            batch.append(queue.popleft())
        X_pred = np.array([x + step * _edge_normalized(G, sign * basis[:, j])
                           for x, basis, j, sign in batch])
        # kernel bases come out of a column mask F-ordered, so each basis.T
        # is C-ordered, as the slices of this stack are
        T = np.array([basis.T for _, basis, _, _ in batch])
        X, res, outcome = _correct(G, f, X_pred, T)
        new = []
        for x, r in zip(X[outcome == CONVERGED], res[outcome == CONVERGED]):
            key = grid_key(x)
            if key not in seen:
                seen.add(key)
                new.append(_point(G, x, float(r)))
        if not new:
            continue
        for p, info in zip(new, local_dimension(G, f, new, zero_scale)):
            points.append(p)
            dims.append(info.d)
            if info.d != d0:
                flags.append(len(points) - 1)
            else:
                queue.extend(candidates(p.x, info.kernel_basis))

    order = sorted(range(len(points)), key=lambda i: tuple(points[i].canonical))
    position = [0] * len(points)
    for new_i, old_i in enumerate(order):
        position[old_i] = new_i
    return ManifoldSample(
        points=tuple(points[i] for i in order),
        local_dim=tuple(dims[i] for i in order),
        singular_flags=tuple(sorted(position[i] for i in flags)),
        step=step,
        stop=POINT_BUDGET if len(points) >= budget else FRONTIER_EXHAUSTED,
    )
