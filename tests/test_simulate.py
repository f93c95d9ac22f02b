import math

import numpy as np
import pytest

from oddcoupling import (
    Verdict,
    basin_sample,
    classify,
    energy,
    equilibrium_point,
    integrate,
    make_polynomial,
    make_sine_combination,
    trace_curve,
)
from oddcoupling import simulate as simulate_mod
from oddcoupling.corpus import complete_graph, path_graph
from oddcoupling.defaults import mono_tolerance
from oddcoupling.errors import NumericalError, StepUnderflowError, ValidationError

from helpers import random_connected_graph

SIN = make_sine_combination({1: 1.0})


def test_equilibrium_is_stationary():
    G = complete_graph(4)
    traj = integrate(G, SIN, np.zeros(4), t_end=5.0)
    assert traj.conserved_drift == 0.0
    assert np.max(np.abs(traj.states)) < 1e-12
    assert traj.converged
    assert np.allclose(traj.converged_to.x, 0.0)


def test_increasing_coupling_global_convergence():
    f = make_polynomial([1.0, 1.0])  # x + x^3
    rng = np.random.default_rng(101)
    for _ in range(6):
        G = random_connected_graph(rng, n_max=7)
        x0 = rng.uniform(-2, 2, G.n)
        traj = integrate(G, f, x0, t_end=400.0)
        assert traj.converged
        assert np.max(np.abs(traj.converged_to.canonical)) < 1e-6


def test_energy_decreases_and_endpoint_not_unstable():
    rng = np.random.default_rng(103)
    G = complete_graph(4)
    for _ in range(5):
        x0 = rng.uniform(-math.pi, math.pi, 4)
        traj = integrate(G, SIN, x0, t_end=300.0)
        slack = mono_tolerance(float(traj.energies[0]))
        assert np.all(np.diff(traj.energies) <= slack)
        assert traj.converged
        rep = classify(G, SIN, traj.converged_to)
        assert rep.verdict != Verdict.UNSTABLE


def test_conservation_bound():
    rng = np.random.default_rng(107)
    for _ in range(10):
        G = random_connected_graph(rng, n_max=8)
        x0 = rng.uniform(-2, 2, G.n)
        t_end = 20.0
        traj = integrate(G, SIN, x0, t_end=t_end)
        assert traj.conserved_drift <= 1e-8 * t_end * np.max(np.abs(x0))


def test_validation():
    G = complete_graph(3)
    with pytest.raises(ValidationError):
        integrate(G, SIN, np.zeros(3), t_end=-1.0)
    with pytest.raises(ValidationError):
        integrate(G, SIN, np.zeros(5))


def test_step_underflow_maps_to_error(monkeypatch):
    def fake_dopri5(*args, **kwargs):
        return np.array([0.0]), np.zeros((1, 3)), -1
    monkeypatch.setattr(simulate_mod, "_dopri5", fake_dopri5)
    with pytest.raises(StepUnderflowError):
        simulate_mod.integrate(complete_graph(3), SIN, np.zeros(3))


def test_energy_rise_aborts(monkeypatch):
    G = path_graph(2)
    # fabricate a "trajectory" that climbs uphill in energy
    states = np.array([[0.0, 0.5], [0.0, 1.5]])
    def fake_dopri5(*args, **kwargs):
        return np.array([0.0, 1.0]), states, 0
    monkeypatch.setattr(simulate_mod, "_dopri5", fake_dopri5)
    with pytest.raises(NumericalError):
        simulate_mod.integrate(G, SIN, np.array([0.0, 0.5]))


def test_basin_stable_origin():
    G = path_graph(4)
    p = equilibrium_point(G, SIN, np.zeros(4))
    rep = basin_sample(G, SIN, p, radius=0.1, trials=20, seed=3)
    assert rep.return_fraction == 1.0
    assert rep.max_excursion < 0.2
    assert rep.evidence == "empirical evidence"


def test_basin_unstable_circle_point():
    G = complete_graph(4)
    x = np.array([0.0, 0.9, math.pi, math.pi + 0.9])
    p = equilibrium_point(G, SIN, x)
    rep = basin_sample(G, SIN, p, radius=0.05, trials=10, seed=5, t_end=40.0)
    assert rep.max_excursion > 10 * rep.radius


def test_step_budget_still_ends_a_basin_probe(monkeypatch):
    # running out of step attempts is stiffness, not escape: under x - x^3
    # the trials at y = 1 that blow up reach the budget before they underflow
    monkeypatch.setattr(simulate_mod, "ODE_MAX_STEPS", 10)
    G = path_graph(2)
    f = make_polynomial([1.0, -1.0])
    p = equilibrium_point(G, f, np.array([0.0, 1.0]))
    with pytest.raises(NumericalError, match="10 step attempts"):
        basin_sample(G, f, p, radius=0.1, trials=5, seed=1729, t_end=50.0)


def test_basin_drift_along_stable_component():
    # reversed sine on K4: the circle is now an attracting normally
    # hyperbolic family; perturbed runs come back to the component while
    # sliding along it
    f = make_sine_combination({1: -1.0})
    G = complete_graph(4)
    p = equilibrium_point(G, f, np.array([0.0, 0.9, math.pi, math.pi + 0.9]))
    curve = trace_curve(G, f, p, max_steps=300)
    rep = basin_sample(G, f, p, radius=0.1, trials=10, seed=7, t_end=60.0,
                       component=curve.points)
    assert rep.return_fraction >= 0.9
    rep_no_component = basin_sample(G, f, p, radius=0.1, trials=10, seed=7,
                                    t_end=60.0)
    # distances to p alone are larger: trajectories drift along the component
    assert min(rep_no_component.final_distances) >= min(rep.final_distances) - 1e-12
