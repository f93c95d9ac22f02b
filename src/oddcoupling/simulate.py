"""Trajectory integration with invariant monitoring, and empirical basin probes.

The integrator is a Dormand-Prince 5(4) stepper that repeats the arithmetic
of the RK45 method of ``solve_ivp`` operation for operation, so that its
samples equal those of ``solve_ivp`` bit for bit, with a settle event located
by Brent's method.

The flow conserves the per-component coordinate sums and dissipates the
energy; both are monitored on every run and a monotonicity violation beyond
the integrator slack aborts with a diagnostic (it indicates a misconfigured
integrator, not dynamics).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .coupling import CouplingFunction
from .defaults import (
    EQ_TOL_SCALE,
    ODE_ATOL,
    ODE_MAX_STEPS,
    ODE_RTOL,
    ODE_T_END,
    eq_tolerance,
    mono_tolerance,
)
from .equilibria import (
    EquilibriumPoint,
    bound_gradient,
    canonical_form,
    edge_space_distance,
    energy,
    equilibrium_point,
    newton_solve,
    vector_field,
)
from .errors import (
    NoConvergenceError,
    NonFiniteFieldError,
    NumericalError,
    StepUnderflowError,
    ValidationError,
)
from .graphs import Graph


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution with conservation and energy diagnostics."""

    times: np.ndarray         # (T,)
    states: np.ndarray        # (T, n)
    energies: np.ndarray      # (T,)
    conserved_drift: float    # max over components and samples
    converged_to: EquilibriumPoint | None
    message: str

    @property
    def converged(self) -> bool:
        """Whether the run ended at an equilibrium, ``converged_to``."""
        return self.converged_to is not None

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def integrate(G: Graph, f: CouplingFunction, x0, t_end: float = ODE_T_END,
              rtol: float = ODE_RTOL, atol: float = ODE_ATOL) -> Trajectory:
    """Adaptive embedded Runge-Kutta integration of the coupled flow.

    Stops early once the residual drops below the equilibrium tolerance; the
    endpoint is then polished by Newton and reported as ``converged_to``.
    A step that falls below ten ulps of t raises ``StepUnderflowError``, a
    vector field that turns non-finite ``NonFiniteFieldError``, and a run
    that exhausts ``ODE_MAX_STEPS`` step attempts ``NumericalError``.
    """
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ValidationError("t_end must be positive and finite")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not (tol >= 0 and math.isfinite(tol)):
            raise ValidationError(f"{name} must be finite and non-negative")
    if G.n == 0:
        raise ValidationError("the graph has no vertices")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (G.n,):
        raise ValidationError(f"x0 must have length {G.n}")
    if not np.all(np.isfinite(x0)):
        raise ValidationError("x0 must be finite")

    times, states, status = _dopri5(G, f, x0, float(t_end), rtol, atol)
    if status == -1:
        raise StepUnderflowError(_STOP_MESSAGES[status])

    comp_sums = states @ G.D.T                   # (T, c)
    drift = float(np.max(np.abs(comp_sums - comp_sums[0]), initial=0.0))
    energies = energy(G, f, states)

    if energies.size > 1:
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
    converged_to = None
    final = states[-1]
    final_res = float(np.linalg.norm(vector_field(G, f, final)))
    if status == 1 or final_res <= 1000.0 * eq_tolerance(final):
        try:
            polished = newton_solve(G, f, final)
        except NoConvergenceError:
            polished = None
        scale = 1.0 + float(np.max(np.abs(final), initial=0.0))
        if polished is not None and float(np.max(np.abs(polished.x - final))) <= 1e-5 * scale:
            converged_to = polished
        elif status == 1:
            converged_to = equilibrium_point(G, f, final)
    return Trajectory(
        times=times,
        states=states,
        energies=energies,
        conserved_drift=drift,
        converged_to=converged_to,
        message=_STOP_MESSAGES[status],
    )


# Dormand-Prince 5(4) with the constants and order of operations of RK45
# (Hairer, Norsett and Wanner, Solving ODEs I, II.4-5): every step, sample
# and event time equals that of solve_ivp(method="RK45") bit for bit.
# The stages hold the energy gradient g = B f(B^T x), minus the field, so
# the tables A, b, e and P below are negated: each product g * (-a) is the
# real number (-g) * a of RK45, so every rounded product, fused multiply-add
# and partial sum is RK45's, whatever order BLAS sums in. A stage enters
# nothing else but squared norms, and the starting step's x0 - h0 g0 and
# g0 - g1, which are x0 + h0 f0 and f1 - f0 in IEEE arithmetic.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = -np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_B = -np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = -np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
# quartic dense output, with the optimum c_6 of Shampine (1986)
_P = -np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 5
_EPS = float(np.finfo(float).eps)
# status -1, 0 and 1 as in solve_ivp, with its messages
_STOP_MESSAGES = {
    -1: "Required step size is less than spacing between numbers.",
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}


def _rms(v) -> float:
    # np.linalg.norm's own arithmetic, without its dispatch
    return math.sqrt(v.dot(v)) / v.size ** 0.5


def _not_finite(t):
    return NonFiniteFieldError(f"the vector field is not finite at t = {t:.6g}")


def _settle_gap(abs_x, gx) -> float:
    """The settle event: ||F(x)|| = ||grad E(x)|| minus the equilibrium
    tolerance, falling through zero as the flow settles. Takes |x|, which the
    stepper has; EQ_TOL_SCALE * (1 + max |x|) is eq_tolerance(x), bit for bit."""
    return math.sqrt(gx.dot(gx)) - EQ_TOL_SCALE * (1.0 + float(np.maximum.reduce(abs_x)))


def _initial_step(gradient, x0, g0, t_end, rtol, atol):
    """Hairer, Norsett and Wanner's starting step, as RK45's
    ``select_initial_step`` computes it for an error estimator of order 4,
    from the gradient g0 = -F(x0)."""
    scale = atol + np.abs(x0) * rtol
    d0 = _rms(x0 / scale)
    d1 = _rms(g0 / scale)
    if not (math.isfinite(d0) and math.isfinite(d1)):
        raise NumericalError("the first step cannot be sized: x0 or F(x0) over the "
                             "error scale atol + rtol |x0| is not finite")
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    g1 = gradient(x0 - h0 * g0)
    if not np.isfinite(g1).all():
        raise _not_finite(h0)
    d2 = _rms((g0 - g1) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end)


def _dopri5(G, f, x0, t_end, rtol, atol):
    """Integrate the flow from x0 over [0, t_end] until the settle event.

    Returns (times, states, status): status 0 when t_end is reached, 1 at
    the settle event (the last sample is its root), -1 when the step falls
    below ten ulps of t. The settle test reuses each step's last stage,
    which is the gradient at the new state.
    """
    gradient = bound_gradient(G, f)
    # solve_ivp lifts an rtol below 100 eps to that floor, and so does this
    rtol = max(rtol, 100 * _EPS)
    gy = gradient(x0)
    if not np.isfinite(gy).all():
        raise _not_finite(0.0)
    h_abs = _initial_step(gradient, x0, gy, t_end, rtol, atol)
    t, y, abs_y = 0.0, x0, np.abs(x0)
    gap = _settle_gap(abs_y, gy)
    ts, ys = [t], [y]
    root_n = x0.size ** 0.5
    # numpy multiplies an array by an np.float64 faster than by a float
    rtol, atol = np.float64(rtol), np.float64(atol)
    # every stage is written in place into its row of K: K[0] is the
    # gradient at y, K[6] the gradient at the step's new state
    K = np.empty((7, x0.size))
    K[0], g_new = gy, K[-1]
    # the stage sums np.dot(K[:s].T, a[:s]) with the rows they fill, and the
    # views for the solution update and the error estimate, made once; their
    # .dot methods are np.dot without its dispatch
    stages = [(K[:s].T.dot, _A[s, :s], K[s]) for s in range(1, 6)]
    KT_head, KT = K[:-1].T, K.T
    # the stages are all finite exactly when this weighted sum of them is:
    # a weight of 2**-64 keeps a sum of finite entries from overflowing
    screen, weights = K.reshape(-1).dot, np.full(K.size, 2.0 ** -64)
    attempts = 0
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return np.array(ts), np.vstack(ys), -1
            attempts += 1
            if attempts > ODE_MAX_STEPS:
                raise NumericalError(
                    f"the integrator made {ODE_MAX_STEPS} step attempts and "
                    f"reached t = {t:.6g} of {t_end:.6g}")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            # y + h * sum and the error estimate, formed in place
            h64 = np.float64(h)
            for dot, a, row in stages:
                z = dot(a)
                z *= h64
                z += y
                gradient(z, row)
            y_new = KT_head.dot(_B)
            y_new *= h64
            y_new += y
            gradient(y_new, g_new)
            # before the error estimate, which would divide inf by inf
            if not math.isfinite(screen(weights)):
                s = int(np.argmin(np.isfinite(K).all(axis=1)))
                raise _not_finite(t + _C[s] * h if s < 6 else t + h)
            abs_y_new = np.abs(y_new)
            scale = np.maximum(abs_y, abs_y_new)
            scale *= rtol
            scale += atol
            # _rms, with the root of the size taken once
            err = KT.dot(_E)
            err *= h64
            err /= scale
            error_norm = math.sqrt(err.dot(err)) / root_n
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True

        t_old, y_old = t, y
        t, y, abs_y = t_new, y_new, abs_y_new
        gap_new = _settle_gap(abs_y, g_new)
        if gap >= 0 and gap_new <= 0:
            # K[0] still holds the gradient at y_old, for the dense output
            Q = KT.dot(_P)
            h = t - t_old

            def dense(tau):
                p = np.cumprod(np.tile((tau - t_old) / h, 4))
                return h * np.dot(Q, p) + y_old

            def event(tau):
                x = dense(tau)
                return _settle_gap(np.abs(x), gradient(x))

            root = _brentq(event, t_old, t, 4 * _EPS, 4 * _EPS)
            ts.append(root)
            ys.append(dense(root))
            return np.array(ts), np.vstack(ys), 1
        K[0] = g_new
        gap = gap_new
        ts.append(t)
        ys.append(y)
        if t >= t_end:
            return np.array(ts), np.vstack(ys), 0


def _brentq(fn, xa, xb, xtol, rtol, maxiter=100):
    """A root of ``fn`` in [xa, xb] by Brent's method (Algorithms for
    Minimization without Derivatives, 1973, ch. 4), operation for operation
    as the ``brentq.c`` that ``solve_ivp`` locates its events with."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fn(xpre), fn(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise NumericalError(f"no sign change of the event in [{xa!r}, {xb!r}]")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C makes an infinite or NaN step here, which then fails the
                # test below and bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry      # a good short step
            else:
                spre = scur = sbis           # bisect
        else:
            spre = scur = sbis               # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fn(xcur)
    raise NumericalError(f"the event root did not converge in {maxiter} iterations")


def _signbit(v: float) -> bool:
    return math.copysign(1.0, v) < 0


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
    max_excursion: float | None   # from p, trajectory-wide, edge space; None if none finished
    final_distances: tuple[float | None, ...]   # None for a trial that escaped
    evidence: str = "empirical evidence"

    def to_dict(self) -> dict:
        return asdict(self)


def basin_sample(G: Graph, f: CouplingFunction, p: EquilibriumPoint, radius: float,
                 trials: int, seed: int, t_end: float = 50.0,
                 component: tuple[EquilibriumPoint, ...] | None = None) -> BasinReport:
    """Integrate from seeded perturbations of edge-space size ``radius``.

    Excursion distances are measured in edge space (winding-identified for
    periodic coupling) from p; the return test measures the distance to the
    component of p, approximated by the provided component samples plus p.

    A trial whose trajectory blows up in finite time, so that the step
    underflows or the field turns non-finite, escaped: it counts as not
    returned, with no final distance and no excursion. A run out of step
    attempts is stiffness, not escape, and still raises.
    """
    if not p.accepted():
        raise ValidationError(f"residual {p.residual:.3e}: not an accepted equilibrium")
    rng = np.random.default_rng(seed)
    anchors_y = np.array([a.y for a in (component or ()) + (p,)])

    def one_trial(delta):
        delta = canonical_form(G, delta)
        nrm = float(np.linalg.norm(G.Bt @ delta))
        if nrm == 0.0:
            return 0.0, 0.0
        x0 = p.x + (radius / nrm) * delta
        try:
            traj = integrate(G, f, x0, t_end=t_end)
        except (StepUnderflowError, NonFiniteFieldError):
            return None, None
        ys = traj.states @ G.B
        dists = edge_space_distance(G, ys, p.y, period=f.periodic)
        final_dist = edge_space_distance(G, anchors_y, ys[-1], period=f.periodic)
        return float(dists.max()), float(final_dist.min())

    outcomes = [one_trial(rng.standard_normal(G.n)) for _ in range(trials)]

    excursions = [o[0] for o in outcomes if o[0] is not None]
    finals = [o[1] for o in outcomes]
    returned = sum(1 for d in finals if d is not None and d <= radius / 2)
    return BasinReport(
        radius=radius,
        trials=trials,
        seed=seed,
        return_fraction=returned / trials if trials else 0.0,
        max_excursion=max(excursions) if excursions else None,
        final_distances=tuple(finals),
    )
