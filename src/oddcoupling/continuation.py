"""Tracing positive-dimensional components of the equilibrium set.

Local manifold dimension is read off the Hessian kernel (minus the forced
translation directions). Curves are followed by a pseudo-arclength predictor
along a kernel direction with a Newton corrector in the slice orthogonal to
the predictor tangent and to the translations. Surfaces are explored
breadth-first with a dedup grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import CouplingFunction
from .defaults import CONTINUATION_STEP, ZERO_TOL_SCALE, eq_tolerance
from .equilibria import (
    EquilibriumPoint,
    edge_space_distance,
    equilibrium_point,
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


def local_dimension(G: Graph, f: CouplingFunction, p: EquilibriumPoint,
                    zero_scale: float = ZERO_TOL_SCALE) -> LocalDimension:
    """Tangent-space dimension at an accepted equilibrium (eigh, for the eigenvectors)."""
    evals, evecs = np.linalg.eigh(hessian(G, f, p.x))
    spec = Spectrum.of(evals, zero_scale)
    zero_mask = spec.zero_mask
    d = max(0, spec.zero_multiplicity - G.c)

    gap = (float(np.min(np.abs(evals[~zero_mask]), initial=np.inf)),
           float(np.max(np.abs(evals[zero_mask]), initial=0.0)))

    Dn = G.D / np.sqrt(G.D.sum(axis=1, keepdims=True))
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


@dataclass(frozen=True)
class ManifoldSample:
    """Ordered equilibrium samples along a traced or explored component."""

    points: tuple[EquilibriumPoint, ...]
    local_dim: tuple[int, ...]
    closed: bool
    singular_flags: tuple[int, ...]  # indices into points
    step: float

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


def _correct(G: Graph, f: CouplingFunction, x_pred: np.ndarray,
             tangents: np.ndarray, max_iter: int = 30) -> np.ndarray | None:
    """Newton iteration for F(x) = 0 in the affine slice through x_pred
    orthogonal to the given tangent directions and to the translations."""
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
    after one step bisection, or a kernel-dimension jump; the point is
    flagged), or after max_steps.
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
    closed = False
    d_curve = info0.d

    t = _edge_normalized(G, info0.kernel_basis[:, direction_index])
    t0 = t.copy()
    x = p0.x.copy()

    for _ in range(max_steps):
        x_new = None
        for trial_step in (step, 0.5 * step):
            x_new = _correct(G, f, x + trial_step * t, t)
            if x_new is not None:
                break
        if x_new is None:
            flags.append(len(points) - 1)
            break
        p_new = equilibrium_point(G, f, x_new)
        info = local_dimension(G, f, p_new, zero_scale)
        points.append(p_new)
        dims.append(info.d)

        if info.d != d_curve:
            flags.append(len(points) - 1)
            break

        secant = x_new - x
        if (len(points) > 3
                and edge_space_distance(G, p_new.y, p0.y, period=f.periodic) < 0.5 * step
                and float((G.Bt @ secant) @ (G.Bt @ t0)) > 0.0):
            closed = True
            break

        t_next = _aligned_kernel_direction(info.kernel_basis, secant)
        if t_next is None:
            flags.append(len(points) - 1)
            break
        t = _edge_normalized(G, t_next)
        x = x_new

    return ManifoldSample(
        points=tuple(points),
        local_dim=tuple(dims),
        closed=closed,
        singular_flags=tuple(flags),
        step=step,
    )


def sample_manifold(G: Graph, f: CouplingFunction, p0: EquilibriumPoint,
                    step: float = CONTINUATION_STEP, budget: int = 400,
                    zero_scale: float = ZERO_TOL_SCALE) -> ManifoldSample:
    """Breadth-first point cloud on a component of dimension >= 2.

    New points come from stepping along each kernel direction and correcting
    in the slice that pins all tangent coordinates; a grid of spacing ``step``
    in (wrapped) edge space deduplicates. The budget caps the cloud size.
    """
    if not p0.accepted():
        raise ValidationError(f"start residual {p0.residual:.3e} exceeds tolerance")
    info0 = local_dimension(G, f, p0, zero_scale)
    if info0.d < 2:
        raise NotOnManifoldError(f"local dimension is {info0.d}; need >= 2")
    d0 = info0.d

    def grid_key(p: EquilibriumPoint):
        x = p.x
        if f.periodic is not None:
            x = wrap_to_fundamental(G, x, f.periodic)
        return tuple(np.round((G.Bt @ x) / step).astype(int))

    points = [p0]
    dims = [d0]
    flags: list[int] = []
    seen = {grid_key(p0)}
    frontier = [(p0, info0)]

    while frontier and len(points) < budget:
        p, info = frontier.pop(0)
        if info.d != d0:
            continue
        basis = info.kernel_basis
        for j in range(basis.shape[1]):
            for sign in (1.0, -1.0):
                if len(points) >= budget:
                    break
                t = _edge_normalized(G, sign * basis[:, j])
                x_new = _correct(G, f, p.x + step * t, basis.T)
                if x_new is None:
                    continue
                p_new = equilibrium_point(G, f, x_new)
                key = grid_key(p_new)
                if key in seen:
                    continue
                seen.add(key)
                info_new = local_dimension(G, f, p_new, zero_scale)
                points.append(p_new)
                dims.append(info_new.d)
                if info_new.d != d0:
                    flags.append(len(points) - 1)
                else:
                    frontier.append((p_new, info_new))

    order = sorted(range(len(points)), key=lambda i: tuple(points[i].canonical))
    flag_set = set(flags)
    return ManifoldSample(
        points=tuple(points[i] for i in order),
        local_dim=tuple(dims[i] for i in order),
        closed=False,
        singular_flags=tuple(sorted(order.index(i) for i in flag_set)),
        step=step,
    )
