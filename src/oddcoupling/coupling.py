"""Odd analytic coupling functions from three closed families.

The families are odd polynomials, integer-harmonic sine combinations, and
anti-periodic sine series with a free half-period P. Restricting to closed
families keeps the derivative and the primitive exact, which the stability
and energy machinery rely on. Oddness holds by construction: polynomials are
evaluated as x * p(x^2) and the sine bases are odd termwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .defaults import ROOT_MAX_BISECT, ROOT_TOL, SCAN_GRID_CAP
from .errors import AllZeroError, SearchBudgetExceededError, ValidationError

SIGN_NONNEG = "nonneg"
SIGN_NONPOS = "nonpos"
SIGN_MIXED = "mixed"


@dataclass(frozen=True)
class Root:
    value: float
    sign_change: bool


@dataclass(frozen=True)
class ZeroSet:
    """Real roots of f in a bounded interval, each bracketed by a certified
    sign change or flagged as tangential."""

    interval: tuple[float, float]
    roots: tuple[Root, ...]

    def values(self) -> list[float]:
        return [r.value for r in self.roots]


class CouplingFunction:
    """Base class; subclasses provide exact eval / deriv / primitive.

    Derived flags, the properties the equilibrium theory conditions on:
      periodic          -- period, or None
      antiperiod        -- P with f(P + x) = -f(x), or None
      finite_fibers     -- every value has finitely many preimages
      increasing        -- f' >= 0 with isolated zeros (global convergence)
      sign_on_positives -- SIGN_NONNEG, SIGN_NONPOS or SIGN_MIXED on (0, inf)
    """

    periodic: float | None = None
    antiperiod: float | None = None
    finite_fibers: bool = False

    def __call__(self, x):
        raise NotImplementedError

    def _evaluate(self, x):
        """f at a float64 array, which it need not convert: the evaluator
        that the vector field binds."""
        raise NotImplementedError

    def deriv(self, x):
        raise NotImplementedError

    def deriv2(self, x):
        raise NotImplementedError

    def primitive(self, x):
        """Primitive g with g(0) = 0 and g' = f. Energies built from g are
        only defined up to a constant; compare differences, not values."""
        raise NotImplementedError

    def scan_resolution(self, a: float, b: float) -> int:
        """Suggested grid size for root isolation on [a, b]."""
        raise NotImplementedError

    def _scan_grid(self, a: float, b: float, n: int) -> np.ndarray:
        """The points at which zeros_in samples f and f' on [a, b], n cells."""
        return np.linspace(a, b, n + 1)

    def _sign_floor(self, x):
        """What |f(x)| must pass to have a sign: a multiple of _term_scale(x)."""
        return 1e-13 * self._term_scale(x)

    def _zero_window(self) -> tuple[float, float]:
        """An interval past 0 whose roots hold every sign change of f on (0, inf)."""
        raise NotImplementedError

    @cached_property
    def positive_zeros(self) -> ZeroSet:
        """The roots of f in the family's window, scanned once per coupling:
        the prediction's witnesses and the breaks of sign_on_positives."""
        return zeros_in(self, self._zero_window())

    @cached_property
    def sign_on_positives(self) -> str:
        # f keeps its sign between roots and past the window: probe midpoints and
        # roots (a pair read as one dips there) against _sign_floor
        zs = self.positive_zeros
        pts = np.array([0.0, *zs.values(), zs.interval[1]])
        probes = np.concatenate([0.5 * (pts[:-1] + pts[1:]), pts[1:-1]])
        signs = _clear_signs(self(probes), self._sign_floor(probes))
        if signs <= {1.0}:
            return SIGN_NONNEG
        if signs <= {-1.0}:
            return SIGN_NONPOS
        return SIGN_MIXED

    def to_dict(self) -> dict:
        raise NotImplementedError


class OddPolynomial(CouplingFunction):
    """f(x) = sum_k c_k x^(2k+1), stored by the odd-power coefficients c_k.

    The coefficients of f / x, f', f'' / x and the primitive / x^2, each a
    polynomial in x^2, are tabulated once by the constructor.
    """

    finite_fibers = True

    def __init__(self, coeffs):
        coeffs = [float(c) for c in coeffs]
        if not all(math.isfinite(c) for c in coeffs):
            raise ValidationError(f"odd polynomial coefficients {coeffs} must be finite")
        while coeffs and coeffs[-1] == 0.0:
            coeffs.pop()
        if not coeffs or all(c == 0.0 for c in coeffs):
            raise AllZeroError("odd polynomial needs at least one nonzero coefficient")
        # the Cauchy root bound, which brackets every root, needs each c_k / c_lead
        if not all(math.isfinite(c / coeffs[-1]) for c in coeffs):
            raise ValidationError(f"odd_poly leading coefficient {coeffs[-1]!r} is too small: "
                                  "a ratio c_k / c_lead overflows")
        self.coeffs = tuple(coeffs)
        self._d = tuple((2 * k + 1) * c for k, c in enumerate(coeffs))
        self._d2 = tuple((2 * k + 1) * (2 * k) * c for k, c in enumerate(coeffs))[1:]
        self._p = tuple(c / (2 * k + 2) for k, c in enumerate(coeffs))
        for k, derived in enumerate(zip(self._d, (0.0, *self._d2), self._p)):
            if not all(map(math.isfinite, derived)):
                raise ValidationError(f"odd_poly coefficient {coeffs[k]!r} of x^{2 * k + 1} "
                                      "overflows f' or f''")
        # f's Horner table, highest power first: c_K, then c_(K-1) ... c_1,
        # then c_0, as np.float64, which numpy multiplies faster than a float
        c = [np.float64(c) for c in reversed(coeffs)]
        self._lead, self._mid, self._c0 = c[0], tuple(c[1:-1]), c[-1]
        # u * 1.0 == u for every float, so a leading 1.0 is not multiplied in
        self._monic = len(coeffs) > 1 and coeffs[-1] == 1.0

    def __call__(self, x):
        return self._evaluate(np.asarray(x, dtype=float))

    def _evaluate(self, x):
        """f at a float64 array x, unconverted: x p(x^2) in _horner's order
        of operations, in one frame, and never x itself."""
        if len(self.coeffs) == 1:
            return x * self._c0
        u = x * x
        mid = self._mid
        if not self._monic:
            acc = u * self._lead
        elif mid:
            # a new array, so that acc *= u does not square u in place
            acc = u + mid[0]
            acc *= u
            mid = mid[1:]
        else:
            acc = u
        for c in mid:
            acc += c
            acc *= u
        acc += self._c0
        acc *= x
        return acc

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        return _horner(self._d, x * x)

    def deriv2(self, x):
        x = np.asarray(x, dtype=float)
        return x * _horner(self._d2, x * x)

    def primitive(self, x):
        x = np.asarray(x, dtype=float)
        u = x * x
        return u * _horner(self._p, u)

    def cauchy_root_bound(self) -> float:
        lead = self.coeffs[-1]
        return 1.0 + max(abs(c / lead) for c in self.coeffs)

    def scan_resolution(self, a, b):
        return max(256, 64 * (2 * len(self.coeffs) + 1))

    @cached_property
    def increasing(self) -> bool:
        # increasing iff f' >= 0 everywhere with isolated zeros: sample f'
        # strictly between consecutive real roots of f' and beyond the extremes;
        # f' = sum_k d_k x^(2k), whose roots come from its companion matrix
        full = np.zeros(2 * len(self._d) - 1)
        full[::2] = self._d
        roots = np.polynomial.polynomial.polyroots(full)
        roots = np.sort(roots[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))].real)
        lo = roots.min() - 1.0 if roots.size else -1.0
        hi = roots.max() + 1.0 if roots.size else 1.0
        probes = np.array([lo, hi, *(0.5 * (roots[:-1] + roots[1:]))])
        return _clear_signs(self.deriv(probes),
                            1e-13 * _horner(np.abs(self._d), probes * probes)) == {1.0}

    def _term_scale(self, x):
        return np.abs(x) * _horner(np.abs(self.coeffs), x * x)

    def _sign_floor(self, x):
        # over twice the rounding error of _evaluate, (3K + 1) eps / 2 times
        # _term_scale at degree K in x^2 (Higham, Accuracy and Stability, 5.3)
        return 4 * len(self.coeffs) * np.finfo(float).eps * self._term_scale(x)

    def _scan_grid(self, a, b, n):
        # roots far below b share a uniform cell: past 0, add n cells uniform in log x
        xs = np.linspace(a, b, n + 1)
        return np.union1d(xs, np.geomspace(a, b, n + 1)) if a > 0 else xs

    def _zero_window(self):
        # no root lies past the Cauchy bound
        return 1e-9, self.cauchy_root_bound() + 1.0

    def to_dict(self):
        return {"family": "odd_poly", "coeffs": list(self.coeffs)}

    def __repr__(self):
        return f"OddPolynomial(coeffs={self.coeffs})"


def _horner(coeffs, u):
    """sum_k coeffs[k] u^k; zeros like u when there are no coefficients."""
    if len(coeffs) < 2:
        return np.full_like(u, coeffs[0] if coeffs else 0.0)
    # u * c, not c * u, skips numpy's reflected-scalar path
    acc = u * coeffs[-1]
    acc += coeffs[-2]
    for c in reversed(coeffs[:-2]):
        acc *= u
        acc += c
    return acc


def _clear_signs(vals, floors) -> set[float]:
    """Signs of the values past their floors, each a multiple of the sum of
    the absolute terms the value was summed from, so c f and f agree for
    every c > 0."""
    return set(np.sign(vals[(np.abs(vals) > floors) | np.isinf(vals)]).tolist())


def _clean_terms(terms) -> tuple[tuple[int, float], ...]:
    cleaned = []
    for k, a in dict(terms).items():
        k = int(k)
        a = float(a)
        if k < 1:
            raise ValidationError(f"harmonic index {k} must be a positive integer")
        if not math.isfinite(a):
            raise ValidationError(f"amplitude {a!r} of harmonic {k} must be finite")
        if a != 0.0:
            cleaned.append((k, a))
    if not cleaned:
        raise AllZeroError("sine combination needs at least one nonzero amplitude")
    return tuple(sorted(cleaned))


def _term_sum(table, trig, x):
    """sum of c trig(w x) over the (w, c) table, elementwise in x."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for w, c in table:
        out += c * trig(w * x)
    return out


class SineCombination(CouplingFunction):
    """f(x) = sum_k b_k sin(k x); period 2*pi / gcd of the harmonics.

    Both sine families evaluate here, from per-term tables made once by
    their constructors. sin(k x) is sin(k pi x / P) with P = pi.
    """

    P = math.pi
    family = "sine_sum"
    # a nonconstant periodic f has an f' of mean zero, so f' < 0 somewhere
    increasing = False

    def __init__(self, terms):
        self.terms = _clean_terms(terms)
        ks = [k for k, _ in self.terms]
        g = math.gcd(*ks) if len(ks) > 1 else ks[0]
        self.periodic = 2.0 * math.pi / g
        self.antiperiod = math.pi if all(k % 2 == 1 for k in ks) else None
        # the integer k is the frequency itself: k * pi / pi is not k for all k
        self._tabulate(ks, [a * k * k for k, a in self.terms])

    def _tabulate(self, ws, curvatures):
        """Tables (w, a), (w, a*w) and (w, -a*w*w) for f, f' and f''; each
        family rounds its own frequencies and f'' factors."""
        self._sin = tuple(zip(ws, (a for _, a in self.terms)))
        self._cos = tuple((w, a * w) for w, a in self._sin)
        self._d2 = tuple(zip(ws, (-c for c in curvatures)))
        for (k, a), (w, aw), (_, c) in zip(self.terms, self._cos, self._d2):
            if not (math.isfinite(aw) and math.isfinite(c)):
                raise ValidationError(f"{self.family} amplitude {a!r} of harmonic {k} "
                                      "overflows f' or f''")
            # the primitive's term a (1 - cos wx) / w reaches 2a and 2a / w
            if not math.isfinite(2.0 * a / w):
                raise ValidationError(f"{self.family} amplitude {a!r} of harmonic {k} "
                                      "overflows the primitive")
        # terms each in range can still sum past it; these sums bound |f|,
        # |f'|, |f''| and the primitive
        sums = [sum(abs(c) for _, c in table) for table in (self._sin, self._cos, self._d2)]
        sums.append(sum(2.0 * abs(a) / w for w, a in self._sin))
        if not all(map(math.isfinite, sums)):
            raise ValidationError(f"{self.family} amplitudes {dict(self.terms)} sum past "
                                  "the float range in f, f', f'' or the primitive")

    def __call__(self, x):
        return _term_sum(self._sin, np.sin, x)

    _evaluate = __call__

    def deriv(self, x):
        return _term_sum(self._cos, np.cos, x)

    def deriv2(self, x):
        return _term_sum(self._d2, np.sin, x)

    def primitive(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for w, a in self._sin:
            out += a * (1.0 - np.cos(w * x)) / w
        return out

    def scan_resolution(self, a, b):
        kmax = max(k for k, _ in self.terms)
        return max(256, int(32 * kmax * (b - a) / self.P) + 32)

    def _term_scale(self, x):
        return _term_sum([(w, abs(a)) for w, a in self._sin], lambda t: np.abs(np.sin(t)), x)

    def _zero_window(self):
        # one period holds every sign f takes
        return 1e-9, self.periodic - 1e-9

    def to_dict(self):
        return {"family": self.family, "terms": {str(k): a for k, a in self.terms}}

    def __repr__(self):
        return f"SineCombination(terms={dict(self.terms)})"


class SineSeries(SineCombination):
    """f(x) = sum over odd m of a_m sin(m pi x / P); satisfies f(P+x) = -f(x)."""

    # own __dict__ entries: perfbench's tracer wraps cls.__dict__[meth] per class
    __call__, deriv, deriv2, primitive = (SineCombination.__call__, SineCombination.deriv,
                                          SineCombination.deriv2, SineCombination.primitive)
    family = "sine_series"

    def __init__(self, half_period: float, terms):
        if not (half_period > 0 and math.isfinite(half_period)):
            raise ValidationError("half-period P must be positive and finite")
        self.P = float(half_period)
        self.terms = _clean_terms(terms)
        for m, _ in self.terms:
            if m % 2 == 0:
                raise ValidationError(f"sine series admits odd harmonics only, got {m}")
        self.periodic = 2.0 * self.P
        self.antiperiod = self.P
        ws = [m * math.pi / self.P for m, _ in self.terms]
        if not all(0.0 < w * w < math.inf for w in ws):
            raise ValidationError(f"half-period P = {self.P!r} puts m pi / P out of range")
        self._tabulate(ws, [a * w ** 2 for w, (_, a) in zip(ws, self.terms)])

    def to_dict(self):
        return {"family": self.family, "P": self.P,
                "terms": {str(m): a for m, a in self.terms}}

    def __repr__(self):
        return f"SineSeries(P={self.P}, terms={dict(self.terms)})"


def make_polynomial(odd_coefficients) -> OddPolynomial:
    """Coupling f(x) = sum_k c_k x^(2k+1) from the odd-power coefficients."""
    return OddPolynomial(odd_coefficients)


def make_sine_combination(amplitudes) -> SineCombination:
    """Coupling f(x) = sum_k b_k sin(k x) from an integer->amplitude map."""
    return SineCombination(amplitudes)


def make_sine_series(half_period: float, amplitudes) -> SineSeries:
    """Anti-periodic coupling sum_{m odd} a_m sin(m pi x / P)."""
    return SineSeries(half_period, amplitudes)


def coupling_from_dict(data: dict) -> CouplingFunction:
    family = data.get("family") if isinstance(data, dict) else None
    try:
        if family == "odd_poly":
            return make_polynomial(data["coeffs"])
        if family == "sine_sum":
            return make_sine_combination({int(k): v for k, v in data["terms"].items()})
        if family == "sine_series":
            return make_sine_series(data["P"],
                                    {int(k): v for k, v in data["terms"].items()})
    except KeyError as exc:
        raise ValidationError(f"{family} coupling JSON needs a {exc} field") from exc
    raise ValidationError(f"unknown coupling family {family!r}")


def _bisect(fun, lo, hi, flo):
    """Shrink a sign-change bracket; returns the midpoint root."""
    for _ in range(ROOT_MAX_BISECT):
        if hi - lo < ROOT_TOL:
            break
        mid = 0.5 * (lo + hi)
        fm = float(fun(mid))
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def zeros_in(f: CouplingFunction, interval) -> ZeroSet:
    """All real roots of f in a bounded interval.

    Sign-change roots are isolated by bracketing on the family's grid and
    refined by bisection; tangential roots (no sign change) are recovered as
    extrema of f, i.e. sign-change roots of f', at which f vanishes, or which
    split a close pair when f has the sign opposite to both cell ends (three
    roots in one cell can be missed). f vanishes at x when |f(x)| is at most
    ROOT_TOL times _term_scale(x), the sum of the absolute terms of f there,
    so c f and f have the same roots for every c > 0; ROOT_TOL is also the
    bisection width in x. Finds with f vanishing between them are one root.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b)) or not b > a:
        raise ValidationError(f"need a bounded interval, got {interval!r}")
    n_grid = f.scan_resolution(a, b)
    if n_grid > SCAN_GRID_CAP:
        raise SearchBudgetExceededError(f"the zero scan of {f!r} on [{a!r}, {b!r}] needs "
                                        f"{n_grid} grid cells, past SCAN_GRID_CAP {SCAN_GRID_CAP}")
    xs = f._scan_grid(a, b, n_grid)
    fs = np.asarray(f(xs))

    # roots sitting (numerically) on grid points
    found = xs[_vanishes(f, xs)].tolist()

    # strict sign changes, from the signs: a product of tiny values underflows
    for i in np.nonzero(_sign_changes(fs))[0]:
        found.append(_bisect(f, float(xs[i]), float(xs[i + 1]), float(fs[i])))

    # tangential roots and close pairs, from the zeros of f'
    dfs = np.asarray(f.deriv(xs))
    extrema = set()
    for i in np.nonzero(_sign_changes(dfs))[0]:
        lo, hi = float(xs[i]), float(xs[i + 1])
        xstar = _bisect(f.deriv, lo, hi, float(dfs[i]))
        fstar = float(f(xstar))
        if _vanishes(f, xstar):
            found.append(xstar)
            extrema.add(xstar)
        elif np.sign(fs[i]) == np.sign(fs[i + 1]) == -np.sign(fstar):
            found += [_bisect(f, lo, xstar, float(fs[i])), _bisect(f, xstar, hi, fstar)]

    # dedup, then decide the sign-change flag from nearby samples; a root
    # found twice keeps its zero of f', the bottom of a close pair's dip
    sep = max(10 * ROOT_TOL, (b - a) * 1e-12)
    merged: list[float] = []
    for r in sorted(found):
        if not merged or (r - merged[-1] > sep and not _vanishes(f, 0.5 * (r + merged[-1]))):
            merged.append(r)
        elif r in extrema:
            merged[-1] = r
    near = np.array(merged)
    # a quarter of the grid cell that holds each root, to either side
    cell = np.diff(xs)[np.clip(np.searchsorted(xs, near) - 1, 0, xs.size - 2)]
    delta = np.maximum(cell / 4, 1e-7)
    flips = np.sign(f(near - delta)) * np.sign(f(near + delta)) < 0
    return ZeroSet(interval=(a, b), roots=tuple(map(Root, merged, flips.tolist())))


def _vanishes(f: CouplingFunction, x):
    """|f(x)| <= ROOT_TOL times the sum of the absolute terms of f at x, and
    finite: where f overflows, so does that sum."""
    v = np.abs(f(x))
    return np.isfinite(v) & (v <= ROOT_TOL * f._term_scale(x))


def _sign_changes(vals) -> np.ndarray:
    """Whether each pair of consecutive values has opposite strict signs."""
    signs = np.sign(vals)
    return signs[:-1] * signs[1:] < 0
