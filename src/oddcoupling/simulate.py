"""Trajectory integration with invariant monitoring, and empirical basin probes.

The flow conserves the per-component coordinate sums and dissipates the
energy; both are monitored on every run and a monotonicity violation beyond
the integrator slack aborts with a diagnostic (it indicates a misconfigured
integrator, not dynamics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .coupling import CouplingFunction
from .defaults import (
    ODE_ATOL,
    ODE_RTOL,
    ODE_T_END,
    eq_tolerance,
    mono_tolerance,
)
from .equilibria import (
    EquilibriumPoint,
    canonical_form,
    edge_space_distance,
    energy,
    equilibrium_point,
    newton_solve,
    vector_field,
)
from .errors import NoConvergenceError, NumericalError, StepUnderflowError, ValidationError
from .graphs import Graph


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution with conservation and energy diagnostics."""

    times: np.ndarray         # (T,)
    states: np.ndarray        # (T, n)
    energies: np.ndarray      # (T,)
    conserved_drift: float    # max over components and samples
    converged: bool
    converged_to: EquilibriumPoint | None
    message: str

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def integrate(G: Graph, f: CouplingFunction, x0, t_end: float = ODE_T_END,
              rtol: float = ODE_RTOL, atol: float = ODE_ATOL,
              mono_check: bool = True) -> Trajectory:
    """Adaptive embedded Runge-Kutta integration of the coupled flow.

    Stops early once the residual drops below the equilibrium tolerance; the
    endpoint is then polished by Newton and reported as ``converged_to``.
    A vector field that turns non-finite raises ``NumericalError``.
    """
    if not t_end > 0:
        raise ValidationError("t_end must be positive")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (G.n,):
        raise ValidationError(f"x0 must have length {G.n}")
    if not np.all(np.isfinite(x0)):
        raise ValidationError("x0 must be finite")

    def rhs(t, x):
        dx = vector_field(G, f, x)
        # a non-finite field makes a NaN step size, which never passes the
        # error test nor falls below the minimum step: RK45 would retry forever
        if not np.isfinite(dx).all():
            raise NumericalError(f"the vector field is not finite at t = {t:.6g}")
        return dx

    def settled(_t, x):
        return float(np.linalg.norm(vector_field(G, f, x))) - eq_tolerance(x)

    settled.terminal = True
    settled.direction = -1

    sol = solve_ivp(rhs, (0.0, float(t_end)), x0, method="RK45",
                    rtol=rtol, atol=atol, events=settled)
    if sol.status == -1:
        raise StepUnderflowError(sol.message)

    times = sol.t
    states = sol.y.T
    comp_sums = states @ G.D.T                   # (T, c)
    drift = float(np.max(np.abs(comp_sums - comp_sums[0]), initial=0.0))
    energies = energy(G, f, states)

    if mono_check and energies.size > 1:
        slack = mono_tolerance(float(energies[0]))
        rises = np.diff(energies)
        worst = float(rises.max(initial=0.0))
        if worst > slack:
            raise NumericalError(
                f"energy increased by {worst:.3e} (> {slack:.3e}) between samples; "
                f"integrator tolerances look misconfigured")

    # the event threshold is often unreachable: the integrator's local-error
    # noise keeps ||F|| at a floor near rtol * scale even after the flow has
    # settled, so convergence is also declared post hoc when the endpoint is
    # at that floor and a Newton polish stays local and accepted
    converged = False
    converged_to = None
    final = states[-1]
    final_res = float(np.linalg.norm(vector_field(G, f, final)))
    if sol.status == 1 or final_res <= 1000.0 * eq_tolerance(final):
        try:
            polished = newton_solve(G, f, final)
        except NoConvergenceError:
            polished = None
        scale = 1.0 + float(np.max(np.abs(final), initial=0.0))
        if polished is not None and float(np.max(np.abs(polished.x - final))) <= 1e-5 * scale:
            converged, converged_to = True, polished
        elif sol.status == 1:
            converged, converged_to = True, equilibrium_point(G, f, final)
    return Trajectory(
        times=times,
        states=states,
        energies=energies,
        conserved_drift=drift,
        converged=converged,
        converged_to=converged_to,
        message=sol.message or "",
    )


@dataclass(frozen=True)
class BasinReport:
    """Empirical stability probe around an equilibrium.

    Evidence only: fractions and excursions from finitely many seeded
    perturbations. This never upgrades an inconclusive spectral verdict.
    """

    radius: float
    trials: int
    seed: int
    return_fraction: float      # trials ending within radius/2 of the component
    max_excursion: float        # from p itself, trajectory-wide, edge space
    final_distances: tuple[float, ...]
    evidence: str = "empirical evidence"

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "trials": self.trials,
            "seed": self.seed,
            "return_fraction": self.return_fraction,
            "max_excursion": self.max_excursion,
            "final_distances": list(self.final_distances),
            "evidence": self.evidence,
        }


def basin_sample(G: Graph, f: CouplingFunction, p: EquilibriumPoint, radius: float,
                 trials: int, seed: int, t_end: float = 50.0,
                 component: tuple[EquilibriumPoint, ...] | None = None) -> BasinReport:
    """Integrate from seeded perturbations of edge-space size ``radius``.

    Excursion distances are measured in edge space (winding-identified for
    periodic coupling) from p; the return test measures the distance to the
    component of p, approximated by the provided component samples plus p.
    """
    if p.residual > eq_tolerance(p.x):
        raise ValidationError(f"residual {p.residual:.3e}: not an accepted equilibrium")
    rng = np.random.default_rng(seed)
    anchors_y = np.array([a.y for a in (component or ()) + (p,)])

    def one_trial(delta):
        delta = canonical_form(G, delta)
        nrm = float(np.linalg.norm(G.Bt @ delta))
        if nrm == 0.0:
            return 0.0, 0.0
        x0 = p.x + (radius / nrm) * delta
        traj = integrate(G, f, x0, t_end=t_end, mono_check=False)
        ys = traj.states @ G.B
        dists = edge_space_distance(G, ys, p.y, period=f.periodic)
        final_dist = edge_space_distance(G, anchors_y, ys[-1], period=f.periodic)
        return float(dists.max()), float(final_dist.min())

    outcomes = [one_trial(rng.standard_normal(G.n)) for _ in range(trials)]

    excursions = [o[0] for o in outcomes]
    finals = [o[1] for o in outcomes]
    returned = sum(1 for d in finals if d <= radius / 2)
    return BasinReport(
        radius=radius,
        trials=trials,
        seed=seed,
        return_fraction=returned / trials if trials else 0.0,
        max_excursion=float(max(excursions, default=0.0)),
        final_distances=tuple(float(d) for d in finals),
    )
