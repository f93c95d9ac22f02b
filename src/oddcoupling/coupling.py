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

from .defaults import ROOT_TOL, SCAN_GRID_CAP
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

    def _deriv2_bound(self, hi):
        """A bound on |f''| over [0, hi], elementwise in an array hi."""
        raise NotImplementedError

    def _sign_floor(self, x):
        """What |f(x)| must pass to have a sign: a multiple of _term_scale(x)."""
        return 1e-13 * self._term_scale(x)

    def _zero_window(self) -> tuple[float, float]:
        """(L, U): f has no root in (0, L), and the roots in [L, U] hold every
        sign change of f on (0, inf), except, for a polynomial, the roots at
        which its lowest term is subnormal: L lies above them."""
        raise NotImplementedError

    @cached_property
    def positive_zeros(self) -> ZeroSet:
        """The roots of f in the family's window, scanned once per coupling:
        the prediction's witnesses and the breaks of sign_on_positives."""
        return zeros_in(self, self._zero_window())

    @cached_property
    def sign_on_positives(self) -> str:
        # f keeps its sign between the roots and the window's ends: probe their
        # geometric means, in range where f overflows past its largest root, and
        # the roots (a pair read as one dips there) against the scale-free floor
        zs = self.positive_zeros
        pts = np.array([zs.interval[0], *zs.values(), zs.interval[1]])
        probes = np.concatenate([np.sqrt(pts[:-1] * pts[1:]), pts[1:-1]])
        vals = self(probes)
        signs = set(np.sign(vals[(np.abs(vals) > self._sign_floor(probes)) | np.isinf(vals)]))
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

    @cached_property
    def increasing(self) -> bool:
        # f' is even and x f'(x) = sum_k d_k x^(2k+1) has its sign on (0, inf):
        # f' >= 0, with isolated zeros, exactly when f' > 0 next to 0, where the
        # lowest d_k rules, and that odd polynomial is nonneg. Scaled by 2^-s
        # <= 1 / (2K + 1), exactly, its tables lie in the range checked for f's
        s = (2 * len(self._d) - 1).bit_length()
        slope = OddPolynomial([math.ldexp(d, -s) for d in self._d])
        return next(d for d in self._d if d) > 0 and slope.sign_on_positives == SIGN_NONNEG

    def _term_scale(self, x):
        return np.abs(x) * _horner(np.abs(self.coeffs), x * x)

    def _sign_floor(self, x):
        # over twice the rounding error of _evaluate, (3K + 1) eps / 2 times
        # _term_scale at degree K in x^2 (Higham, Accuracy and Stability, 5.3)
        return 4 * len(self.coeffs) * np.finfo(float).eps * self._term_scale(x)

    def _deriv2_bound(self, hi):
        # f'' = x sum_k d2_k x^(2k), whose absolute terms grow with x
        return hi * _horner([abs(c) for c in self._d2], hi * hi)

    def _zero_window(self):
        # f / x = p(x^2): with the lowest power of x divided out, the Cauchy
        # bounds of p and of its reverse hold every positive root u = x^2,
        # |c_j| / (|c_j| + max_(k>j) |c_k|) <= u <= 1 + max_k |c_k / c_lead|
        c = [abs(c) for c in self.coeffs]
        j = next(k for k, ck in enumerate(c) if ck)
        low = max(math.sqrt(c[j] / (c[j] + max(c[j + 1:], default=0.0))),
                  # below this the lowest term is subnormal, short of the
                  # relative precision a root needs
                  (np.finfo(float).tiny / c[j]) ** (1.0 / (2 * j + 1)))
        high = math.sqrt(self.cauchy_root_bound())
        # a root on a bound, as rounding can put it, lies inside the scan
        return 0.5 * min(low, high), 2.0 * high

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
    (w, c), *rest = table
    # the first term t, plus 0.0: a sum from zero, 0.0 + t, rounds alike and
    # turns -0.0 into 0.0. A 0-d x gives a 0-d array, not a numpy scalar
    out = np.asarray(c * trig(w * x))
    out += 0.0
    for w, c in rest:
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
        self._bound1, self._bound2 = sums[1], sums[2]

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

    def _deriv2_bound(self, hi):
        return self._bound2

    def _term_scale(self, x):
        return _term_sum([(w, abs(a)) for w, a in self._sin], lambda t: np.abs(np.sin(t)), x)

    def _sign_floor(self, x):
        # the rounding of each argument w x moves sin(w x) by up to eps |w x|,
        # which the term sum misses where the terms vanish, as at x = pi
        return super()._sign_floor(x) + np.finfo(float).eps * self._bound1 * np.abs(x)

    def _zero_window(self):
        # one period T holds every sign. In y = w_max x, f = sum over j of
        # t_j y^(2j+1) / (2j+1)!, t_j = (-1)^j sum a v^(2j+1), v = w / w_max.
        # Past the first t_j clear of the floor, the Lagrange remainders sum to
        # at most sum |a| (v y)^(2j+3) / (2j+3)!, so no root has y^2 below
        # |t_j| (2j+2)(2j+3) / sum |a| v^(2j+3), nor, as f(T - x) = -f(x), above T less it
        wmax = max(w for w, _ in self._sin)
        terms = [(w / wmax, a) for w, a in self._sin]
        for j in range(len(terms)):
            t = sum(a * v ** (2 * j + 1) for v, a in terms)
            if abs(t) > 1e-13 * sum(abs(a) * v ** (2 * j + 1) for v, a in terms):
                break
        rest = sum(abs(a) * v ** (2 * j + 3) for v, a in terms)
        low = 0.5 * math.sqrt(abs(t) * (2 * j + 2) * (2 * j + 3) / rest) / wmax
        return low, self.periodic - low

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


def zeros_in(f: CouplingFunction, interval) -> ZeroSet:
    """All real roots of f in a bounded interval.

    f is odd: 0 is a root, where f changes sign, the roots below 0 mirror
    those above, and none in (0, L), L the lower end of the family's window,
    is within the scan's reach. So one _scan of |x| over the rest finds them.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b)) or not b > a:
        raise ValidationError(f"need a bounded interval, got {interval!r}")
    lo = max(0.0 if a <= 0.0 <= b else min(abs(a), abs(b)), f._zero_window()[0])
    hi = max(abs(a), abs(b))
    roots = [Root(0.0, True)] if a <= 0.0 <= b else []
    for r in (_scan(f, lo, hi) if hi > lo else []):
        roots += [Root(x, r.sign_change) for x in (-r.value, r.value) if a <= x <= b]
    return ZeroSet(interval=(a, b), roots=tuple(sorted(roots, key=lambda r: r.value)))


def _scan(f: CouplingFunction, lo: float, hi: float) -> list[Root]:
    """The roots of f in [lo, hi], 0 < lo < hi, by exclusion-bisection
    (J.-C. Yakoubsohn, J. Complexity 21, 2005), one level of cells at a time.

    A cell [a, b] splits at its geometric mean m, h = b - m, M2 the family's
    bound on |f''|, until it is settled:
      excluded -- |f(m)| > _sign_floor(m) + h |f'(m)| + M2 h^2 / 2: f keeps
                  its sign. A cell where this test overflows splits while it
                  spans over an octave, then counts as monotone: a root in it
                  with no sign change has terms near the largest float;
      monotone -- |f'(m)| > h M2: a root only if its ends differ in sign,
                  and then the half that keeps them apart splits on;
      a leaf   -- narrower than ROOT_TOL b, or within the sign floor all
                  over, as near a triple root; a root if f vanishes at m.
    Finds with f vanishing between neighbours are one root, at the leaf with
    the least |f'|, a sign change if the clear signs either side differ; two
    sign changes are never one. SCAN_GRID_CAP bounds the cells visited.
    """
    a, b = np.array([lo]), np.array([hi])
    fa, fb = f(a), f(b)
    clear = [(a, fa, f._sign_floor(a)), (b, fb, f._sign_floor(b))]
    finds, slopes, visited = [], [], 0  # slope: |f'| at a leaf, inf at a sign change
    while a.size:
        visited += a.size
        if visited > SCAN_GRID_CAP:
            raise SearchBudgetExceededError(
                f"the zero scan of {f!r} on [{lo!r}, {hi!r}] visits over "
                f"SCAN_GRID_CAP {SCAN_GRID_CAP} cells")
        m = np.sqrt(a * b)
        h = b - m
        fm, dm, floor = f(m), np.abs(f.deriv(m)), f._sign_floor(m)
        bound2 = f._deriv2_bound(b)
        spread = h * dm + 0.5 * bound2 * h * h
        clear.append((m, fm, floor))
        tested = np.isfinite(np.abs(fm) + floor + spread)
        excluded = tested & (np.abs(fm) > floor + spread)
        monotone = tested & ~excluded & (dm > h * bound2) | ~tested & (b <= 2 * a)
        bracket = monotone & ((fa < 0) != (fb < 0))
        narrow = b - a <= ROOT_TOL * b
        leaf = tested & ~excluded & ~monotone & (narrow | (np.abs(fm) + spread <= floor))
        root = _vanishes(f, m[leaf]) if leaf.any() else leaf[leaf]
        finds += m[leaf][root].tolist() + m[bracket & narrow].tolist()
        slopes += dm[leaf][root].tolist() + [math.inf] * int(np.sum(bracket & narrow))
        split = ~(excluded | monotone | leaf) | (bracket & ~narrow)
        lower = bracket & ((fa < 0) != (fm < 0))
        left, right = split & ~(bracket & ~lower), split & ~lower
        a, b = np.concatenate((a[left], m[right])), np.concatenate((m[left], b[right]))
        fa, fb = np.concatenate((fa[left], fm[right])), np.concatenate((fm[left], fb[right]))

    xs, vals, floors = (np.concatenate(col) for col in zip(*clear))
    sure = np.abs(vals) > floors  # where f has a clear sign
    order = np.argsort(xs[sure])
    xs, signs = xs[sure][order], np.sign(vals[sure])[order]
    order = np.argsort(finds)
    finds, slopes = np.array(finds)[order], np.array(slopes)[order]
    signed = np.isinf(slopes)
    apart = ~_vanishes(f, 0.5 * (finds[:-1] + finds[1:])) | (signed[:-1] & signed[1:])
    roots = []
    clusters = np.split(np.arange(finds.size), np.flatnonzero(apart) + 1) if finds.size else []
    for cluster in clusters:
        i = np.searchsorted(xs, finds[cluster[0]])
        j = np.searchsorted(xs, finds[cluster[-1]], side="right")
        flip = signed[cluster].all() or (0 < i and j < xs.size and signs[i - 1] != signs[j])
        roots.append(Root(float(finds[cluster[np.argmin(slopes[cluster])]]), bool(flip)))
    return roots


def _vanishes(f: CouplingFunction, x):
    """|f(x)| finite and at most ROOT_TOL times the sum of the absolute terms
    of f at x, plus twice the sign floor, which outweighs that sum where the
    terms vanish (a sine at pi) and which |f| may reach at a leaf."""
    v = np.abs(f(x))
    return np.isfinite(v) & (v <= ROOT_TOL * f._term_scale(x) + 2 * f._sign_floor(x))
