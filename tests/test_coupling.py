import importlib.util
import math
import os
import re
import subprocess
import sys
import textwrap
from functools import partial
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
from scipy.integrate import quad

from oddcoupling import (
    coupling_from_dict,
    make_polynomial,
    make_sine_combination,
    make_sine_series,
    zeros_in,
)
from oddcoupling.coupling import SIGN_MIXED, SIGN_NONNEG, SIGN_NONPOS
from oddcoupling.errors import AllZeroError, ValidationError

from helpers import LegacyOddPolynomial

ALL_FAMILIES = [
    make_polynomial([-1.0, 1.0]),                  # x^3 - x
    make_polynomial([1.0, 0.5, -0.25]),
    make_sine_combination({1: 1.0}),
    make_sine_combination({1: 1.0, 3: -1.0}),
    make_sine_series(math.pi, {1: 1.0}),
    make_sine_series(1.7, {1: 0.8, 3: -0.3}),
]
EVALUATIONS = ("__call__", "deriv", "deriv2", "primitive")


def test_polynomial_examples():
    f = make_polynomial([-1.0, 1.0])
    assert float(f(1.0)) == 0.0
    assert float(f(2.0)) == 6.0
    assert float(f.deriv(0.0)) == -1.0
    lin = make_polynomial([1.0])
    assert lin.increasing
    # f'' of a linear f is x * 0, which is -0.0 at negative x
    assert np.signbit(lin.deriv2(np.array([-1.0, -0.0, 0.0, 1.0]))).tolist() == [
        True, True, False, False]
    with pytest.raises(AllZeroError):
        make_polynomial([])
    with pytest.raises(AllZeroError):
        make_polynomial([0.0])


def test_sine_combination_examples():
    f = make_sine_combination({1: 1.0})
    assert float(f(math.pi / 2)) == pytest.approx(1.0)
    assert f.periodic == pytest.approx(2 * math.pi)
    g = make_sine_combination({2: 1.0})
    assert g.periodic == pytest.approx(math.pi)
    assert g.antiperiod is None
    with pytest.raises(AllZeroError):
        make_sine_combination({1: 0.0})
    with pytest.raises(ValidationError):
        make_sine_combination({0: 1.0})


@pytest.mark.parametrize("make, message", [
    # the Cauchy root bound was inf, and sign_on_positives raised LinAlgError
    (partial(make_polynomial, [1.0, 2.2250738585e-313]),
     "odd_poly leading coefficient 2.2250738585e-313 is too small"),
    # primitive(3.0) was inf: the term a (1 - cos x) reaches 2a
    (partial(make_sine_combination, {1: 1e308}),
     "sine_sum amplitude 1e+308 of harmonic 1 overflows the primitive"),
    # 2a is finite, and 2a / w with w = pi / P is not
    (partial(make_sine_series, 1e150, {1: 1e160}),
     "sine_series amplitude 1e+160 of harmonic 1 overflows the primitive"),
    # each term is in range, and the f'' amplitudes sum past it: deriv2 was
    # inf on a quarter of a period
    (partial(make_sine_combination, {1: 8.9e307, 2: 4.4e307}),
     "sine_sum amplitudes {1: 8.9e+307, 2: 4.4e+307} sum past the float range"),
])
def test_parameters_past_the_root_bound_or_primitive_are_refused(make, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        make()


def test_sine_series_validation():
    with pytest.raises(ValidationError):
        make_sine_series(math.pi, {2: 1.0})
    with pytest.raises(ValidationError):
        make_sine_series(-1.0, {1: 1.0})
    for P in (math.inf, math.nan, 1e-320):
        with pytest.raises(ValidationError):
            make_sine_series(P, {1: 1.0})


def test_oddness_all_families():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-12, 12, size=1000)
    for f in ALL_FAMILIES:
        left = np.asarray(f(-xs))
        right = -np.asarray(f(xs))
        assert np.all(np.abs(left - right) <= 2 * np.finfo(float).eps * np.abs(right) + 1e-300)


def test_sine_series_antiperiodicity():
    rng = np.random.default_rng(9)
    xs = rng.uniform(-10, 10, size=1000)
    for f in [make_sine_series(math.pi, {1: 1.0}), make_sine_series(1.7, {1: 0.8, 3: -0.3})]:
        P = f.antiperiod
        vals = np.abs(np.asarray(f(P + xs)) + np.asarray(f(xs)))
        assert np.max(vals) < 1e-12


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(13)
    h = 1e-5
    for f in ALL_FAMILIES:
        xs = rng.uniform(-4, 4, size=100)
        fd = (np.asarray(f(xs + h)) - np.asarray(f(xs - h))) / (2 * h)
        assert np.max(np.abs(np.asarray(f.deriv(xs)) - fd)) < 1e-7


def test_second_derivative_matches_central_difference():
    rng = np.random.default_rng(14)
    h = 1e-4
    for f in ALL_FAMILIES:
        xs = rng.uniform(-3, 3, size=50)
        fd = (np.asarray(f.deriv(xs + h)) - np.asarray(f.deriv(xs - h))) / (2 * h)
        assert np.max(np.abs(np.asarray(f.deriv2(xs)) - fd)) < 1e-5


def test_primitive_examples():
    f = make_sine_combination({1: 1.0})
    assert float(f.primitive(math.pi / 2)) == pytest.approx(1.0)  # 1 - cos
    assert float(f.primitive(0.0)) == 0.0
    p = make_polynomial([-1.0, 1.0])
    assert float(p.primitive(0.0)) == 0.0


def test_primitive_matches_quadrature():
    rng = np.random.default_rng(17)
    for f in ALL_FAMILIES:
        for x in rng.uniform(-10, 10, size=8):
            integral, _ = quad(lambda t: float(f(t)), 0.0, x, limit=200)
            assert abs(float(f.primitive(x)) - integral) < 1e-8


def test_zeros_cubic():
    f = make_polynomial([-1.0, 1.0])
    zs = zeros_in(f, (-2.0, 2.0))
    assert np.allclose(zs.values(), [-1.0, 0.0, 1.0], atol=1e-9)
    assert all(r.sign_change for r in zs.roots)


def test_zeros_sine():
    f = make_sine_combination({1: 1.0})
    zs = zeros_in(f, (0.0, 7.0))
    assert np.allclose(zs.values(), [0.0, math.pi, 2 * math.pi], atol=1e-9)


def test_zeros_pure_cubic_sign_change():
    f = make_polynomial([0.0, 1.0])
    zs = zeros_in(f, (-1.0, 1.0))
    assert np.allclose(zs.values(), [0.0], atol=1e-12)
    assert zs.roots[0].sign_change


def test_zeros_tangential():
    # x (x^2-1)^2 = x^5 - 2 x^3 + x touches zero at +-1
    f = make_polynomial([1.0, -2.0, 1.0])
    zs = zeros_in(f, (-2.0, 2.0))
    assert np.allclose(zs.values(), [-1.0, 0.0, 1.0], atol=1e-6)
    flags = {round(r.value): r.sign_change for r in zs.roots}
    assert flags[0] is True
    assert flags[1] is False and flags[-1] is False


@pytest.mark.parametrize("f, want", [
    (make_polynomial([1.0, -2.0, 1.0]), [1.0]),                        # x (x^2 - 1)^2
    (make_sine_combination({1: 1.0, 3: 1.0}), [0.5 * math.pi, math.pi, 1.5 * math.pi]),
    # sin 3x (1 + 2 cos 2x): triple roots at pi / 3, 2 pi / 3, 4 pi / 3 and 5 pi / 3
    (make_sine_combination({1: 1.0, 3: 1.0, 5: 1.0}),
     [k * math.pi / 3 for k in range(1, 6)]),
], ids=["double", "sin_x_cos2_x", "triple"])
def test_each_root_listed_once(f, want):
    # a tangential root was listed once as a grid point and once as the
    # bisected zero of f', up to 7.5e-10 apart
    zs = f.positive_zeros
    assert np.allclose(zs.values(), want, rtol=0.0, atol=1e-6)


def test_classify_flags():
    assert make_polynomial([1.0, 1.0]).increasing                             # x + x^3
    cubic = make_polynomial([0.0, 1.0])                                       # x^3
    assert cubic.increasing and cubic.sign_on_positives == SIGN_NONNEG
    down = make_polynomial([0.0, -1.0])                                       # -x^3
    assert down.sign_on_positives == SIGN_NONPOS and not down.increasing
    mixed = make_polynomial([-1.0, 1.0])                                      # x^3 - x
    assert mixed.sign_on_positives == SIGN_MIXED and not mixed.increasing
    sine = make_sine_combination({1: 1.0})
    assert sine.sign_on_positives == SIGN_MIXED and not sine.increasing
    assert sine.periodic == pytest.approx(2 * math.pi)


@pytest.mark.parametrize("f", [
    make_sine_combination({1: 1e-6, 8192: 1.0}),  # least f' about -8192
    make_sine_combination({3: 1.0, 12288: 0.01}),  # least f' about -125.9
    make_sine_series(1.7, {1: 0.8, 3: -0.3}),
], ids=["k8192", "k12288", "series"])
def test_periodic_couplings_are_never_increasing(f):
    # f' has mean zero over a period, so it dips below zero somewhere; a
    # 4097-point grid over one period met harmonics 8192 and 12288 only at
    # their peaks and read both sums increasing
    xs = np.linspace(0.0, f.periodic, 100_003)
    assert f.deriv(xs).min() < 0.0
    assert f.increasing is False


@pytest.mark.parametrize("coeffs, flags", [
    ([1.0, -1.0], (False, SIGN_MIXED)),        # x - x^3
    ([1.0, 1.0], (True, SIGN_NONNEG)),         # x + x^3
    ([-1.0, -1.0], (False, SIGN_NONPOS)),      # -x - x^3
    ([1.0, -2.0, 1.0], (False, SIGN_NONNEG)),  # x (x^2 - 1)^2, a double root at 1
])
def test_polynomial_flags_ignore_scale(coeffs, flags):
    # an absolute 1e-13 read 1e-15 (x - x^3) as increasing and nonneg, and
    # 1e-14 (x - x^3) as nonpos
    for k in sorted({*range(-300, 301, 10), -15, -14}):
        f = make_polynomial([10.0 ** k * c for c in coeffs])
        assert (f.increasing, f.sign_on_positives) == flags, k


def test_zero_scan_past_its_cap_ends_at_once():
    # harmonic 10^5 asks for a scan of 6.4 million cells over one period; in a
    # subprocess, so that a scan that runs on fails the test
    src = Path(importlib.util.find_spec("oddcoupling").origin).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = textwrap.dedent("""
        import time
        from oddcoupling import build_graph, make_sine_combination, predict_equilibria_class
        from oddcoupling.errors import SearchBudgetExceededError
        f = make_sine_combination({1: 1.0, 100000: 1e-3})
        for flags in (lambda: f.sign_on_positives,
                      lambda: predict_equilibria_class(build_graph([(0, 1)]), f)):
            start = time.perf_counter()
            try:
                flags()
            except SearchBudgetExceededError:
                print(time.perf_counter() - start)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    elapsed = [float(t) for t in proc.stdout.split()]
    assert len(elapsed) == 2 and max(elapsed) < 1.0, elapsed


def test_serialization_round_trip():
    xs = np.linspace(-3, 3, 20)
    for f in ALL_FAMILIES:
        g = coupling_from_dict(f.to_dict())
        assert g.to_dict() == f.to_dict()
        assert repr(g) == repr(f)
        assert g.periodic == f.periodic
        assert g.antiperiod == f.antiperiod
        for name in EVALUATIONS:
            assert np.array_equal(getattr(f, name)(xs), getattr(g, name)(xs))


def old_sine_sum(terms, x):
    """f, f', f'' and the primitive of sum_k a sin(k x), as the sine_sum
    family computed them on its own."""
    out = [np.zeros_like(x) for _ in range(4)]
    for k, a in terms:
        out[0] += a * np.sin(k * x)
        out[1] += a * k * np.cos(k * x)
        out[2] -= a * k * k * np.sin(k * x)
        out[3] += a * (1.0 - np.cos(k * x)) / k
    return out


def old_sine_series(P, terms, x):
    """The same for sum_m a sin(m pi x / P), as the sine_series family
    computed them on its own, with its frequency m pi / P."""
    out = [np.zeros_like(x) for _ in range(4)]
    for m, a in terms:
        w = m * math.pi / P
        out[0] += a * np.sin(w * x)
        out[1] += a * w * np.cos(w * x)
        out[2] -= a * w ** 2 * np.sin(w * x)
        out[3] += a * (1.0 - np.cos(w * x)) / w
    return out


def old_odd_poly(coeffs, x):
    """The same for sum_k c_k x^(2k+1), with the Horner tables the odd_poly
    family built anew on every call."""
    def horner(cs, u):
        if len(cs) < 2:
            return np.full_like(u, cs[0] if cs else 0.0)
        acc = cs[-1] * u + cs[-2]
        for c in reversed(cs[:-2]):
            acc = acc * u + c
        return acc

    u = x * x
    d = [(2 * k + 1) * c for k, c in enumerate(coeffs)]
    d2 = [(2 * k + 1) * (2 * k) * c for k, c in enumerate(coeffs)][1:]
    p = [c / (2 * k + 2) for k, c in enumerate(coeffs)]
    return [x * horner(coeffs, u), horner(d, u), x * horner(d2, u), u * horner(p, u)]


def polynomials_in_range(coeffs):
    """[make_polynomial(coeffs)], or [] when a leading coefficient so small
    that some c_k / c_lead overflows makes the constructor refuse it."""
    lead = [c for c in coeffs if c][-1]
    if all(math.isfinite(c / lead) for c in coeffs):
        return [make_polynomial(coeffs)]
    with pytest.raises(ValidationError, match="leading coefficient"):
        make_polynomial(coeffs)
    return []


def same_bits(new, old):
    # bytes tell -0.0 from 0.0, which np.array_equal does not
    assert np.shape(new) == np.shape(old)
    assert np.array_equal(np.signbit(new), np.signbit(old))
    assert np.asarray(new).tobytes() == np.asarray(old).tobytes()


amplitudes = st.floats(-1e3, 1e3).filter(lambda a: a != 0.0)
points = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi / 2]),
                   st.floats(-50.0, 50.0), st.floats(-1e12, 1e12))


# odd_poly coefficients: signed zeros below a nonzero leading coefficient
poly_coeffs = st.tuples(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), amplitudes),
                                 max_size=4), amplitudes).map(lambda t: t[0] + [t[1]])


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(
    coeffs=poly_coeffs,
    sum_terms=st.dictionaries(st.integers(1, 40), amplitudes, min_size=1, max_size=6),
    series_terms=st.dictionaries(st.integers(0, 20).map(lambda j: 2 * j + 1), amplitudes,
                                 min_size=1, max_size=6),
    P=st.one_of(st.just(math.pi), st.floats(1e-3, 1e3)),
    xs=st.lists(points, min_size=1, max_size=8),
    interval=st.tuples(st.floats(-20.0, 0.0), st.floats(0.1, 20.0)),
)
def test_sine_families_keep_their_old_bits(coeffs, sum_terms, series_terms, P, xs, interval):
    a, b = interval
    for f, old, scan in [
            *[(f, partial(old_odd_poly, coeffs), 64 * (2 * len(coeffs) + 1))
              for f in polynomials_in_range(coeffs)],
            (make_sine_combination(sum_terms), partial(old_sine_sum, sorted(sum_terms.items())),
             int(32 * max(sum_terms) * (b - a) / math.pi) + 32),
            (make_sine_series(P, series_terms),
             partial(old_sine_series, P, sorted(series_terms.items())),
             int(32 * max(series_terms) * (b - a) / P) + 32)]:
        for x in (np.array(xs), np.array(xs[0])):
            for name, want in zip(EVALUATIONS, old(x)):
                same_bits(getattr(f, name)(x), want)
        assert f.scan_resolution(a, b) == max(256, scan)


# signed zeros, subnormals, infinities, nan, and values whose powers overflow
SPECIAL_POINTS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf, math.nan,
                  0.7, -1.3, 1e80, -1e200]


@pytest.mark.parametrize("coeffs", [
    [2.0],
    [-1.0, 1.0],
    [1.0, -0.0, 0.5],
    [0.0, 1.0, -2.0, 0.25],
    [0.3, -1.1, -0.0, 2.5, -0.7],
    [5e-324, 1.0],
    [1e300, -1e-300, 3.0],
    # monic: those ending in 1.0 skip the product u * 1.0; [1.0] does not
    [1.0],
    [1.0, 1.0],
    [0.5, -2.0, 1.0],
    [0.3, 0.0, -1.1, 1.0],
])
def test_odd_poly_keeps_the_legacy_bits_and_types(coeffs):
    f = make_polynomial(coeffs)
    old = LegacyOddPolynomial(f.coeffs)
    xs = np.array(SPECIAL_POINTS)
    arrays = [xs, xs.reshape(3, 4), xs[::-2], *map(np.array, SPECIAL_POINTS)]
    with np.errstate(all="ignore"):
        for x in [*arrays, list(SPECIAL_POINTS), *SPECIAL_POINTS]:
            for name in EVALUATIONS:
                new, want = getattr(f, name)(x), getattr(old, name)(x)
                assert type(new) is type(want), (name, x)
                same_bits(new, want)
        # the field's evaluator takes float64 arrays as they are, and never
        # hands one back
        for x in arrays:
            new, want = f._evaluate(x), old(x)
            assert type(new) is type(want)
            assert new is not x and not np.shares_memory(new, x)
            same_bits(new, want)


def test_zero_scan_ignores_scale():
    # against an absolute tolerance, every grid point of a tiny f was a root
    assert len(zeros_in(make_polynomial([1e-15, -1e-15]), (1e-9, 3.0)).roots) == 1
    for interval in [(1e-9, 3.0), (-2.0, 2.0), (-3.1, 2.7)]:
        want = zeros_in(make_polynomial([1.0, -1.0]), interval).roots
        for k in range(-200, 201):
            c = 10.0 ** k
            assert zeros_in(make_polynomial([c, -c]), interval).roots == want, k


def old_flags(f):
    """(increasing, sign_on_positives) as one module-level function derived
    them for every family before each family held its own."""
    def real_roots(full):
        coeffs = np.trim_zeros(full, "b")
        if coeffs.size <= 1:
            return np.array([])
        roots = np.polynomial.polynomial.polyroots(coeffs)
        return np.sort(roots[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))].real)

    def term_scale(x):
        if f.periodic is None:
            return abs(x) * np.polynomial.polynomial.polyval(x * x, np.abs(f.coeffs))
        ws = [k if f.family == "sine_sum" else k * math.pi / f.P for k, _ in f.terms]
        return sum(abs(a) * abs(np.sin(w * x)) for w, (_, a) in zip(ws, f.terms))

    if f.periodic is None:
        d = np.zeros(2 * len(f.coeffs) - 1)
        d[0::2] = [(2 * k + 1) * c for k, c in enumerate(f.coeffs)]
        roots = real_roots(d)
        lo = roots.min() - 1.0 if roots.size else -1.0
        hi = roots.max() + 1.0 if roots.size else 1.0
        probes = [lo, hi] + [0.5 * (roots[i] + roots[i + 1]) for i in range(len(roots) - 1)]
        vals = [float(f.deriv(x)) for x in probes]
        increasing = min(vals) > -1e-13 and max(vals) > 0.0
        full = np.zeros(2 * len(f.coeffs))
        full[1::2] = f.coeffs
        pos_roots = [r for r in real_roots(full) if r > 1e-12]
        hi = (max(pos_roots) if pos_roots else 0.0) + 1.0 + f.cauchy_root_bound()
        grid = sorted(set(pos_roots) | {hi})
        probes = [0.5 * min(grid)] + [0.5 * (grid[i] + grid[i + 1])
                                      for i in range(len(grid) - 1)] + [hi]
    else:
        period, bound2 = f.periodic, sum(abs(c) for _, c in f._d2)  # the bound on |f''|
        xs = np.linspace(0.0, period, 4097)
        h = xs[1] - xs[0]
        increasing = False
        for _ in range(12):
            m = float(np.min(np.asarray(f.deriv(xs))))
            if m < -1e-13 or m - bound2 * h * h / 8.0 > 0.0:
                increasing = m >= -1e-13
                break
            h *= 0.5
            xs = np.linspace(0.0, period, 2 * (xs.size - 1) + 1)
        pts = [0.0] + zeros_in(f, (1e-9, period - 1e-9)).values() + [period]
        probes = [0.5 * (pts[i] + pts[i + 1]) for i in range(len(pts) - 1)]
    # a probe has a sign when it clears 1e-13 times the sum of the absolute
    # terms of f there (an absolute 1e-13 read 1e-175 sin x as nonneg)
    signs = {np.sign(v) for v, s in ((float(f(x)), term_scale(x)) for x in probes)
             if abs(v) > 1e-13 * s or np.isinf(v)}
    sign = SIGN_NONNEG if signs <= {1.0} else SIGN_NONPOS if signs <= {-1.0} else SIGN_MIXED
    return increasing, sign


def outcome(flags):
    try:
        return flags()
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError


small = st.one_of(st.integers(-2, 2).map(float), st.floats(-3.0, 3.0))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(
    coeffs=st.lists(small, min_size=1, max_size=5).filter(lambda cs: any(cs)),
    sum_terms=st.dictionaries(st.integers(1, 8), small.filter(bool), min_size=1, max_size=3),
    series_terms=st.dictionaries(st.integers(0, 4).map(lambda j: 2 * j + 1), small.filter(bool),
                                 min_size=1, max_size=3),
    P=st.one_of(st.just(math.pi), st.floats(0.2, 5.0)),
)
@hypothesis.example(coeffs=[1.0, 1.0], sum_terms={1: 1.0}, series_terms={1: 1.0}, P=1.0)
@hypothesis.example(coeffs=[1.0, -2.0, 1.0], sum_terms={2: -1.0}, series_terms={3: 2.0}, P=2.0)
@hypothesis.example(coeffs=[0.0, -1.0], sum_terms={1: 1.0, 3: 0.5}, series_terms={1: 1.0}, P=1.0)
@hypothesis.example(coeffs=[1.0, 5e-324], sum_terms={1: 1.0}, series_terms={1: 1.0}, P=1.0)
def test_flags_match_the_old_classify(coeffs, sum_terms, series_terms, P):
    # a subnormal leading coefficient, which made the root finder's companion
    # matrix infinite, is refused by the constructor
    for f in (*polynomials_in_range(coeffs), make_sine_combination(sum_terms),
              make_sine_series(P, series_terms)):
        # a tiny leading coefficient puts the probes where f overflows
        with np.errstate(over="ignore", invalid="ignore"):
            assert (outcome(lambda: (f.increasing, f.sign_on_positives))
                    == outcome(lambda: old_flags(f)))


def test_tracer_counts_each_sine_call_once():
    # perfbench's tracer wraps each coupling class's own __dict__ entry, so
    # SineSeries must hold the shared methods itself to be counted
    import oddcoupling.cli  # noqa: F401  -- the tracer wraps cli functions too
    from oddcoupling import coupling

    spec = importlib.util.spec_from_file_location(
        "tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    classes = [getattr(coupling, name) for name in tracer_mod.COUPLING_CLASSES]
    originals = {(cls, m): cls.__dict__[m] for cls in classes
                 for m in tracer_mod.COUPLING_METHODS}
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for f in (make_sine_combination({1: 1.0, 3: -0.5}),
                  make_sine_series(1.7, {1: 0.8, 3: -0.3})):
            for name in tracer_mod.COUPLING_METHODS:
                before = tracer.calls["coupling"]
                getattr(f, name)(np.linspace(-1.0, 1.0, 5))
                assert tracer.calls["coupling"] == before + 1
    finally:
        tracer.uninstall()
    for (cls, m), orig in originals.items():
        assert cls.__dict__[m] is orig
