"""Hessian spectrum, stability verdicts, and block-wise reduction.

The Hessian of the energy at x is the symmetric weighted Laplacian
B diag(f'(y)) B^T with y = B^T x. Its kernel always contains the component
indicators (translations), so "stable" always means up to that symmetry.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .coupling import CouplingFunction
from .defaults import ZERO_TOL_SCALE, eq_tolerance
from .equilibria import EquilibriumPoint, equilibrium_point, hessian  # re-exported
from .errors import BlockMismatchError, ValidationError
from .graphs import Graph, block_decomposition, induced_subgraph

__all__ = ["Verdict", "StabilityReport", "BlockStabilityReport", "Spectrum", "hessian",
           "classify", "classify_with_kernel", "kernel_excess", "block_stability"]


class Verdict(str, Enum):
    LINEARLY_STABLE = "linearly_stable_up_to_symmetry"
    STABLE_NORMALLY_HYPERBOLIC = "stable_normally_hyperbolic"
    UNSTABLE = "unstable"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Spectrum:
    """Ascending Hessian eigenvalues and their zero bucket |lambda| <= threshold."""

    values: np.ndarray
    threshold: float
    zero_multiplicity: int
    zero_mask: np.ndarray

    @classmethod
    def of(cls, values, zero_scale: float = ZERO_TOL_SCALE) -> Spectrum:
        thr = zero_scale * max(1.0, float(np.max(np.abs(values), initial=0.0)))
        mask = np.abs(values) <= thr
        return cls(values, thr, int(np.sum(mask)), mask)

    @classmethod
    def at(cls, G: Graph, f: CouplingFunction, x,
           zero_scale: float = ZERO_TOL_SCALE) -> Spectrum:
        """One Hessian, one eigvalsh: reports print these values, which
        differ from eigh's in the last bits."""
        return cls.of(np.linalg.eigvalsh(hessian(G, f, x)), zero_scale)


@dataclass(frozen=True)
class StabilityReport:
    """Spectrum-based verdict with the rule that produced it."""

    spectrum: tuple[float, ...]      # ascending
    rank: int
    zero_multiplicity: int
    verdict: Verdict
    manifold_dim: int | None         # d for the normally hyperbolic verdict
    rule: str
    zero_threshold: float

    @property
    def min_eigenvalue(self) -> float:
        return self.spectrum[0]

    def to_dict(self) -> dict:
        return asdict(self)


def classify(G: Graph, f: CouplingFunction, p: EquilibriumPoint,
             local_dim: int | None = None,
             zero_scale: float = ZERO_TOL_SCALE) -> StabilityReport:
    """Stability verdict for an accepted equilibrium.

    Rules, in order:
      (a) some eigenvalue below -threshold        -> UNSTABLE
      (b) PSD with kernel = translations only     -> LINEARLY_STABLE
      (c) PSD, kernel = translations + local_dim  -> STABLE_NORMALLY_HYPERBOLIC
          (Lyapunov stable inside a local_dim-dimensional manifold of stable
          equilibria; local_dim must come from the caller, e.g. the
          continuation module's kernel estimate)
      (d) otherwise                               -> DEGENERATE (no verdict;
          kernel directions without manifold evidence are never guessed)
    """
    return _verdict(G, Spectrum.at(G, f, p.x, zero_scale), local_dim)


def classify_with_kernel(G: Graph, f: CouplingFunction, p: EquilibriumPoint,
                         zero_scale: float = ZERO_TOL_SCALE) -> tuple[int, StabilityReport]:
    """Kernel excess d, and the verdict with d as local dimension, from one spectrum."""
    spec = Spectrum.at(G, f, p.x, zero_scale)
    d = max(0, spec.zero_multiplicity - G.c)
    return d, _verdict(G, spec, d if d >= 1 else None)


def kernel_excess(G: Graph, f: CouplingFunction, p: EquilibriumPoint,
                  zero_scale: float = ZERO_TOL_SCALE) -> int:
    """Kernel dimension of the Hessian beyond the c translation directions."""
    return classify_with_kernel(G, f, p, zero_scale)[0]


def _verdict(G: Graph, spec: Spectrum, local_dim: int | None) -> StabilityReport:
    """The rules of :func:`classify` applied to a computed spectrum."""
    if G.n == 0:
        raise ValidationError("the graph has no vertices")
    evals, thr, zero_mult = spec.values, spec.threshold, spec.zero_multiplicity
    if evals[0] < -thr:
        verdict, d, rule = Verdict.UNSTABLE, None, "negative eigenvalue below -threshold"
    elif zero_mult == G.c:
        verdict, d, rule = (Verdict.LINEARLY_STABLE, None,
                            "positive semidefinite with rank n - c")
    elif local_dim is not None and local_dim >= 1 and zero_mult == G.c + local_dim:
        verdict, d, rule = (Verdict.STABLE_NORMALLY_HYPERBOLIC, int(local_dim),
                            "positive semidefinite with rank n - c - d, "
                            "kernel spanned by translations and manifold tangents")
    else:
        verdict, d, rule = (Verdict.DEGENERATE, None,
                            "kernel exceeds translations without matching "
                            "manifold dimension; eigenvalues are inconclusive")
    return StabilityReport(
        spectrum=tuple(float(v) for v in evals),
        rank=G.n - zero_mult,
        zero_multiplicity=zero_mult,
        verdict=verdict,
        manifold_dim=d,
        rule=rule,
        zero_threshold=thr,
    )


@dataclass(frozen=True)
class BlockStabilityReport:
    """Per-block verdicts plus their conjunction.

    The combined verdict class follows block decomposition: stable iff every
    block is stable, in each of the three senses.
    """

    block_vertices: tuple[tuple[int, ...], ...]
    block_reports: tuple[StabilityReport, ...]
    combined_verdict: Verdict
    combined_manifold_dim: int | None

    def to_dict(self) -> dict:
        return {
            "blocks": [
                {"vertices": list(v), "report": r.to_dict()}
                for v, r in zip(self.block_vertices, self.block_reports)
            ],
            "combined_verdict": self.combined_verdict.value,
            "combined_manifold_dim": self.combined_manifold_dim,
        }


def combine_verdicts(reports) -> tuple[Verdict, int | None]:
    verdicts = [r.verdict for r in reports]
    if any(v == Verdict.UNSTABLE for v in verdicts):
        return Verdict.UNSTABLE, None
    if any(v == Verdict.DEGENERATE for v in verdicts):
        return Verdict.DEGENERATE, None
    if all(v == Verdict.LINEARLY_STABLE for v in verdicts):
        return Verdict.LINEARLY_STABLE, None
    d = sum(r.manifold_dim or 0 for r in reports)
    return Verdict.STABLE_NORMALLY_HYPERBOLIC, d


def block_stability(G: Graph, f: CouplingFunction, x,
                    zero_scale: float = ZERO_TOL_SCALE) -> BlockStabilityReport:
    """Classify an equilibrium block by block.

    Each block gets the kernel-based manifold dimension of its own restricted
    Hessian, so the per-block verdicts are self-contained.
    """
    if not G.is_connected():
        raise ValidationError("block stability assumes a connected graph")
    x = np.asarray(x, dtype=float)
    p = equilibrium_point(G, f, x)
    if not p.accepted():
        raise ValidationError(f"x is not an accepted equilibrium "
                              f"(residual {p.residual:.3e})")
    decomp = block_decomposition(G)
    reports = []
    for verts in decomp.blocks:
        # every edge between two vertices of a block belongs to that block
        sub, _ = induced_subgraph(G, verts)
        x_sub = x[list(verts)]
        p_sub = equilibrium_point(sub, f, x_sub)
        if p_sub.residual > 10 * eq_tolerance(x_sub):
            raise BlockMismatchError(
                f"restriction to block {verts} has residual {p_sub.residual:.3e}; "
                f"equilibria must restrict to block equilibria")
        reports.append(classify_with_kernel(sub, f, p_sub, zero_scale)[1])
    verdict, d = combine_verdicts(reports)
    return BlockStabilityReport(
        block_vertices=decomp.blocks,
        block_reports=tuple(reports),
        combined_verdict=verdict,
        combined_manifold_dim=d,
    )
