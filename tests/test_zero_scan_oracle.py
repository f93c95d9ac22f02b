"""The zero scan against known roots and against an mpmath oracle.

The roots of x p(x^2) with seeded coefficients come from mpmath's polyroots
at 60 digits; every positive one must be among the prediction's witnesses
and every witness must be one of them.
"""

import math
import random

import mpmath
import numpy as np
import pytest

from oddcoupling import (
    build_graph,
    make_polynomial,
    make_sine_combination,
    predict_equilibria_class,
)
from oddcoupling.coupling import SIGN_MIXED
from oddcoupling.equilibria import EquilibriaClass

EDGE = build_graph([(0, 1)])


def from_roots(roots):
    """x (x^2 - r_1^2) ... (x^2 - r_k^2)."""
    return make_polynomial(np.polynomial.polynomial.polyfromroots([r * r for r in roots]))


@pytest.mark.parametrize("roots", [
    # three roots in one cell of the old grid, which listed one of each
    (1.0, 1.0005, 1.001),
    (2.0, 2.002, 2.004),
    (0.5, 0.5004, 0.5008),
    (1.0, 1.001, 1.002),
])
def test_three_close_roots_are_three_witnesses(roots):
    f = from_roots(roots)
    rep = predict_equilibria_class(EDGE, f)
    assert rep.kind == EquilibriaClass.NO_CONCLUSION
    assert np.allclose(rep.nonzero_roots, roots, rtol=1e-9, atol=0.0)
    assert all(r.sign_change for r in f.positive_zeros.roots)


@pytest.mark.parametrize("root", [1e-7, 1e-10])
def test_a_tiny_root_is_a_witness(root):
    # x^3 - root^2 x: the old scan started at 1e-9 and dropped roots below 1e-6
    f = make_polynomial([-root * root, 1.0])
    rep = predict_equilibria_class(EDGE, f)
    assert rep.kind == EquilibriaClass.NO_CONCLUSION
    assert np.allclose(rep.nonzero_roots, [root], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("f, want", [
    # x (x^2 - 1)^3 and (4/3) sin^3 x: a triple root, where |f| stays below
    # its rounding floor over some 1e-5 either side
    (from_roots([1.0, 1.0, 1.0]), [1.0]),
    (make_sine_combination({1: 1.0, 3: -1.0 / 3.0}), [math.pi]),
], ids=["poly", "sine"])
def test_a_triple_root_is_one_sign_change(f, want):
    zs = f.positive_zeros
    assert np.allclose(zs.values(), want, rtol=1e-5, atol=0.0)
    assert zs.roots[0].sign_change
    assert f.sign_on_positives == SIGN_MIXED


def test_the_origin_does_not_leak_into_a_sine_window():
    # (4/3) sin^3 x vanishes to third order at 0 and at 2 pi; the window ends
    # short of both by the Taylor bound, so pi is the one witness
    rep = predict_equilibria_class(EDGE, make_sine_combination({1: 1.0, 3: -1.0 / 3.0}))
    assert len(rep.nonzero_roots) == 1


def test_roots_below_an_overflowing_window_top_are_kept():
    # x - x^3 + 1e-250 x^9: the Cauchy bound puts the window's top at 2e125,
    # where f overflows; those cells split down to an octave before the scan
    # gives them up, so the roots at 1 and at 1e250^(1/6) stay witnesses
    f = make_polynomial([1.0, -1.0, 0.0, 0.0, 1e-250])
    with np.errstate(over="ignore", invalid="ignore"):
        rep = predict_equilibria_class(EDGE, f)
        assert f.sign_on_positives == SIGN_MIXED
    assert rep.kind == EquilibriaClass.NO_CONCLUSION and not rep.global_convergence
    assert np.allclose(rep.nonzero_roots, [1.0, 1e250 ** (1 / 6)], rtol=1e-9, atol=0.0)


def test_a_sign_change_where_the_bound_on_f2_overflows_is_kept():
    # -2.1e307 x + 2e307 x^3: the bound on |f''| overflows on every cell about
    # the root sqrt(1.05), whose terms are near the largest float; the sign
    # change of such a cell's ends is still bisected
    f = make_polynomial([-2.1e307, 2e307])
    with np.errstate(over="ignore", invalid="ignore"):
        zs = f.positive_zeros
    assert np.allclose(zs.values(), [math.sqrt(1.05)], rtol=1e-9, atol=0.0)
    assert zs.roots[0].sign_change


@pytest.mark.parametrize("coeffs, want", [
    # x^3 - 1e-300 x: f'(0) = -1e-300, and x f'(x) vanishes at 5.8e-151, where
    # it underflows; the lowest coefficient of f' gives its sign next to 0
    ([-1e-300, 1.0], False),
    # x + 2e307 x^3: the f' of x f'(x) = x + 6e307 x^3 overflows unless scaled
    ([1.0, 2e307], True),
], ids=["negative_slope_at_0", "huge_cubic"])
def test_increasing_at_the_ends_of_the_float_range(coeffs, want):
    f = make_polynomial(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        assert predict_equilibria_class(EDGE, f).global_convergence is want


def oracle_roots(coeffs):
    """The positive roots of sum_k c_k x^(2k+1) at 60 digits."""
    with mpmath.workdps(60):
        # polyroots takes the highest power first; roots of p(u), u = x^2
        us = mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)], maxsteps=400,
                              extraprec=400)
        return sorted(float(mpmath.sqrt(u.real)) for u in us
                      if abs(u.imag) <= mpmath.mpf(10) ** -40 * (1 + abs(u)) and u.real > 0)


def seeded_polynomials(count=150, seed=11):
    rng = random.Random(seed)
    for _ in range(count):
        yield [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 2.0)
               for _ in range(rng.randint(2, 5))]


@pytest.mark.parametrize("coeffs", list(seeded_polynomials()))
def test_witnesses_match_the_oracle(coeffs):
    f = make_polynomial(coeffs)
    witnesses = predict_equilibria_class(EDGE, f).nonzero_roots
    want = oracle_roots(f.coeffs)
    # every positive root is a witness, and every witness a root
    assert len(witnesses) == len(want)
    assert np.allclose(witnesses, want, rtol=1e-9, atol=0.0)
