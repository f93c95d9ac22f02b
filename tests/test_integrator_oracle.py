"""The integrator's own Dormand-Prince stepper and Brent root finder against
scipy, the code they replace: times, states, stop status and roots must be
equal bit for bit.

The old path, ``solve_ivp`` with a terminal settle event, lives in
``helpers`` as ``solve_ivp_oracle``; scipy serves as the oracle in tests only.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
brentq = pytest.importorskip("scipy.optimize").brentq

import oddcoupling  # noqa: E402
from oddcoupling import (  # noqa: E402
    basin_sample,
    build_graph,
    equilibrium_point,
    integrate,
    make_polynomial,
    make_sine_combination,
    make_sine_series,
)
from oddcoupling import simulate as simulate_mod  # noqa: E402
from oddcoupling.corpus import complete_graph, path_graph  # noqa: E402
from oddcoupling.defaults import ODE_ATOL, ODE_RTOL  # noqa: E402
from oddcoupling.equilibria import bound_gradient  # noqa: E402
from oddcoupling.errors import NonFiniteFieldError, NumericalError, ValidationError  # noqa: E402

from helpers import random_connected_graph, solve_ivp_oracle  # noqa: E402

SIN = make_sine_combination({1: 1.0})
CUBIC_UP = make_polynomial([1.0, 1.0])      # x + x^3
EPS = float(np.finfo(float).eps)


def same_run(G, f, x0, t_end, rtol=ODE_RTOL, atol=ODE_ATOL):
    """Run both integrators and require equal bits; return the oracle's
    result."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # scipy's rtol floor
        sol = solve_ivp_oracle(G, f, x0, t_end, rtol, atol)
    times, states, status = simulate_mod._dopri5(
        G, f, np.asarray(x0, dtype=float), float(t_end), rtol, atol)
    assert status == sol.status
    assert times.tobytes() == sol.t.tobytes()
    assert states.shape == sol.y.T.shape
    assert states.flags.c_contiguous
    assert states.tobytes() == np.ascontiguousarray(sol.y.T).tobytes()
    return sol


def rejected_steps(sol) -> int:
    # RK45 spends 2 evaluations on its first step size and 6 per attempt
    return (sol.nfev - 2) // 6 - (len(sol.t) - 1)


def test_matches_solve_ivp_on_ac02_inputs():
    rng = np.random.default_rng(502)
    families = [SIN, make_polynomial([-1.0, 1.0]), make_sine_series(math.pi, {1: 1.0})]
    statuses = set()
    for trial in range(50):
        G = random_connected_graph(rng, n_max=8)
        x0 = rng.uniform(-2, 2, G.n)
        statuses.add(same_run(G, families[trial % 3], x0, 15.0).status)
    assert statuses == {0, 1}


def test_matches_solve_ivp_on_ac09_inputs():
    rng = np.random.default_rng(509)
    G = random_connected_graph(rng, n_max=8)
    for _ in range(10):
        same_run(G, CUBIC_UP, rng.uniform(-2, 2, G.n), 400.0)


@pytest.mark.parametrize("G, f, x0, t_end, status", [
    (path_graph(4), SIN, [0.3, -0.2, 0.1, 0.0], 200.0, 1),      # settle event
    (path_graph(3), CUBIC_UP, [1.0, -1.0, 0.5], 1.0, 0),        # t_end
])
def test_matches_solve_ivp_at_each_stop(G, f, x0, t_end, status):
    assert same_run(G, f, x0, t_end).status == status


# two components and an isolated vertex, and graphs with no edges, whose
# field is a signed zero at every vertex
@pytest.mark.parametrize("G, f, x0", [
    (build_graph([(0, 1), (1, 2), (2, 0), (4, 3)], n=6), SIN,
     [0.3, -1.2, 2.0, 0.5, -0.4, 0.7]),
    (build_graph([(0, 1), (1, 2), (2, 0), (4, 3)], n=6), CUBIC_UP,
     [1.5, -1.0, 0.25, -2.0, 1.0, 0.0]),
    (build_graph([], n=1), SIN, [0.4]),
    (build_graph([], n=3), CUBIC_UP, [1.0, -0.0, 0.5]),
])
def test_matches_solve_ivp_on_disconnected_graphs(G, f, x0):
    same_run(G, f, x0, 50.0)


# the stages hold the energy gradient and the tables carry the sign: every
# product g * (-a) must be RK45's (-g) * a, signed zeros included. Starts
# with negative zeros on connected graphs, and constant starts, whose field
# is a signed zero, with zeros of mixed sign
@pytest.mark.parametrize("f", [CUBIC_UP, make_polynomial([1.0, 2.0]), SIN],
                         ids=["x+x^3", "x+2x^3", "sin"])
@pytest.mark.parametrize("G, x0", [
    (path_graph(4), [-0.0, 0.4, -0.3, -0.0]),
    (complete_graph(4), [0.5, -0.0, -0.0, -1.2]),
    (complete_graph(4), [0.0, -0.0, -0.0, 0.0]),
    (path_graph(4), [-0.0, 0.0, -0.0, 0.0]),
    (path_graph(4), [-0.0, -0.0, -0.0, -0.0]),
    (complete_graph(4), [0.7, 0.7, 0.7, 0.7]),
])
def test_matches_solve_ivp_with_signed_zeros(f, G, x0):
    same_run(G, f, x0, 20.0)


# a loose atol lets the steps grow until the explicit stages blow up: the
# first field is finite and an interior stage overflows first
@pytest.mark.parametrize("f, x0, message", [
    (CUBIC_UP, [0.0, 1.0, 0.5], "the vector field is not finite at t = 4.11111"),
    (make_polynomial([1.0, 2.0]), [0.0, 3.0, -1.0],
     "the vector field is not finite at t = 0.411111"),
])
def test_an_interior_stage_that_overflows_ends_the_run(f, x0, message):
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteFieldError) as err:
        integrate(path_graph(3), f, np.array(x0), t_end=1e6, atol=1e300)
    assert str(err.value) == message


def test_stages_near_the_largest_float_are_finite():
    # four edges and eight isolated vertices under f(x) = x: a row of stages
    # is (g, -g, 0, 0) four times over, g near 1e307, so the stages hold 28
    # entries near g and 28 near -g. Summed with unit weights, they overflow
    # in any order that meets 18 entries of one sign first, as a dot product
    # with 4-lane accumulators does. The entries are finite, so the
    # non-finite screen must pass them, and RK45's products 11.6 |g| stay
    # below the largest float
    G = build_graph([(0, 1), (4, 5), (8, 9), (12, 13)], n=16)
    f = make_polynomial([1.0])
    x0 = np.tile([5e306, -5e306, 0.0, 0.0], 4)
    g0 = bound_gradient(G, f)(x0)
    assert 18 * float(g0.max()) > np.finfo(float).max
    # ||F||^2 in the settle event overflows, in both integrators
    with np.errstate(over="ignore"):
        assert same_run(G, f, x0, 3.0).status == 0


def test_matches_solve_ivp_with_rejected_steps():
    sol = same_run(complete_graph(4), SIN, [0.1, 0.5, -0.3, 0.2], 400.0)
    assert rejected_steps(sol) > 0


# a loose pair, and an rtol under the 100 eps floor that both lift
@pytest.mark.parametrize("rtol, atol", [(1e-3, 1e-6), (1e-17, 1e-12)])
def test_matches_solve_ivp_at_other_tolerances(rtol, atol):
    same_run(complete_graph(4), SIN, [0.1, 0.5, -0.3, 0.2], 50.0, rtol, atol)


def test_basin_sample_matches_solve_ivp(monkeypatch):
    G = complete_graph(4)
    p = equilibrium_point(G, SIN, np.array([0.0, 0.9, math.pi, math.pi + 0.9]))
    own = basin_sample(G, SIN, p, radius=0.05, trials=4, seed=5, t_end=40.0)

    def oracle(G, f, x0, t_end, rtol, atol):
        sol = solve_ivp_oracle(G, f, x0, t_end, rtol, atol)
        return sol.t, sol.y.T, sol.status

    monkeypatch.setattr(simulate_mod, "_dopri5", oracle)
    assert own == basin_sample(G, SIN, p, radius=0.05, trials=4, seed=5, t_end=40.0)


def test_step_budget_ends_the_run(monkeypatch):
    monkeypatch.setattr(simulate_mod, "ODE_MAX_STEPS", 10)
    with pytest.raises(NumericalError, match=r"10 step attempts and reached t = "):
        integrate(complete_graph(4), SIN, np.array([0.1, 0.5, -0.3, 0.2]), t_end=400.0)


def test_rejects_an_empty_graph_and_a_negative_atol():
    # no vertices: the first-step norms would divide by a zero size
    with pytest.raises(ValidationError):
        integrate(build_graph([], n=0), SIN, np.zeros(0))
    with pytest.raises(ValidationError):
        integrate(complete_graph(3), SIN, np.zeros(3), atol=-1.0)


@pytest.mark.parametrize("rtol, atol", [
    (math.nan, ODE_ATOL), (ODE_RTOL, math.inf), (math.inf, ODE_ATOL), (-1.0, ODE_ATOL),
    (ODE_RTOL, math.nan),
])
def test_rejects_tolerances_that_are_not_finite_or_negative(rtol, atol):
    with pytest.raises(ValidationError, match="must be finite and non-negative"):
        integrate(complete_graph(3), SIN, np.array([0.1, 0.5, -0.3]), rtol=rtol, atol=atol)


@pytest.mark.parametrize("t_end", [math.inf, math.nan, 0.0])
def test_rejects_a_t_end_that_is_not_positive_and_finite(t_end):
    # an infinite t_end would spend the whole step budget before failing
    with pytest.raises(ValidationError, match="t_end must be positive and finite"):
        integrate(complete_graph(3), SIN, np.array([0.1, 0.5, -0.3]), t_end=t_end)


def test_a_first_step_that_cannot_be_sized_ends_the_run():
    # atol = 0 and a zero coordinate put 0 / 0 into the starting-step norm
    with np.errstate(invalid="ignore", divide="ignore"), \
            pytest.raises(NumericalError, match="the first step cannot be sized"):
        integrate(complete_graph(3), SIN, np.array([0.0, 0.5, -0.3]), atol=0.0)


@st.composite
def brackets(draw):
    """A bracket [a, b] and a function that changes sign in it: a cubic
    around a root inside, scaled down to as little as 1e-300, plus a ripple."""
    a = draw(st.floats(-1e3, 1e3))
    b = a + draw(st.floats(1e-9, 1e3))
    r = a + (b - a) * draw(st.floats(0, 1))
    c = draw(st.floats(0, 1e3))
    scale = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-300, 10))
    ripple = draw(st.floats(0, 1)) / (1 + b - a)

    def fn(x):
        return scale * ((x - r) * (1 + c * (x - r) ** 2) + ripple * math.sin(7 * x))

    hypothesis.assume(fn(a) != 0 and fn(b) != 0
                      and math.copysign(1, fn(a)) != math.copysign(1, fn(b)))
    return fn, a, b


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(brackets(), st.sampled_from([(4 * EPS, 4 * EPS), (2e-12, 1e-10)]))
def test_brentq_matches_scipy(bracket, tolerances):
    fn, a, b = bracket
    xtol, rtol = tolerances
    assert simulate_mod._brentq(fn, a, b, xtol, rtol) == brentq(fn, a, b, xtol=xtol, rtol=rtol)


def test_import_does_not_load_scipy():
    src = Path(oddcoupling.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, oddcoupling.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
