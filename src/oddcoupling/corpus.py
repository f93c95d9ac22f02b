"""Named example scenarios with machine-checkable expectations.

Each entry bundles a graph, a coupling, and a scenario function that runs the
relevant machinery and returns one pass/fail record per expectation. The
expectations encode the known phase portraits of these systems (counts of
isolated stable points and saddles, closed curves, manifold dimensions,
covering lifts) so the whole corpus doubles as an end-to-end regression
suite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import continuation, coverings, equilibria, homology, stability
from .coupling import CouplingFunction, make_polynomial, make_sine_combination, make_sine_series
from .defaults import DEFAULT_SEED
from .errors import UnknownExampleError
from .graphs import Graph, build_graph


# ---------------------------------------------------------------------------
# graph builders
# ---------------------------------------------------------------------------

def complete_graph(n: int) -> Graph:
    return build_graph([(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    return build_graph([(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph([(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Hub 0 with n-1 leaves."""
    return build_graph([(0, i) for i in range(1, n)])


def book_graph(pages: int) -> Graph:
    """Triangles sharing the spine edge (0, 1); page vertices are 2..pages+1."""
    edges = [(0, 1)]
    for k in range(2, pages + 2):
        edges += [(0, k), (1, k)]
    return build_graph(edges)


def theta_graph() -> Graph:
    """Two degree-3 vertices joined by three internally disjoint 2-paths."""
    return build_graph([(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])


def bowtie_graph() -> Graph:
    """Two triangles glued at vertex 0."""
    return build_graph([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])


def ladder_graph(cells: int) -> Graph:
    """2 x (cells+1) grid: a chain of quadrilaterals."""
    k = cells + 1
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(k + i, k + i + 1) for i in range(k - 1)]
    edges += [(i, k + i) for i in range(k)]
    return build_graph(edges)


def wheel_graph(rim: int) -> Graph:
    """Hub 0 joined to every vertex of a rim cycle of the given length."""
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return build_graph(edges)


def two_cycles_shared_edge() -> Graph:
    """A triangle and a quadrilateral sharing the edge (0, 1)."""
    return build_graph([(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 1)])


# 7-vertex generalized covering of K3: asymmetric, non-regular, non-bipartite,
# non-Eulerian; fibers {0,1,4} -> 0, {2,3} -> 1, {5,6} -> 2
COVER7_EDGES = [(0, 1), (0, 3), (0, 5), (1, 2), (1, 6), (2, 6),
                (3, 4), (3, 5), (3, 6), (4, 6), (5, 6)]
COVER7_PHI = (0, 0, 1, 1, 0, 2, 2)


def cover7_graph() -> Graph:
    return build_graph(COVER7_EDGES)


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    check: str
    description: str
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExampleReport:
    name: str
    description: str
    checks: tuple[CheckResult, ...]
    observed_max_dim: int | None
    bound_report: homology.DimensionBoundReport | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "observed_max_dim": self.observed_max_dim,
            "bounds": self.bound_report.to_dict() if self.bound_report else None,
        }


@dataclass(frozen=True)
class CorpusExample:
    name: str
    description: str
    build: Callable[[], tuple[Graph, CouplingFunction]]
    scenario: Callable[[Graph, CouplingFunction], ExampleReport]


def _report(name, prefix, desc, checks, observed_dim, G, f):
    """The scenario's report: its checks, closed by the check that the
    observed dimension is within every applicable homology bound."""
    rep = homology.dimension_bounds(G, f)
    checks.append(CheckResult(
        f"{prefix}-bound-compliance", "largest observed manifold dimension is within "
        "every applicable homology bound", observed_dim <= rep.min_applicable(),
        {"observed": observed_dim, **rep.to_dict()}))
    return ExampleReport(name, desc, tuple(checks), observed_dim, rep)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _scenario_k4_sin(G, f):
    desc = ("complete graph on 4 vertices with sine coupling: one stable point, "
            "four isolated saddles, and closed curves of unstable equilibria")
    atlas = equilibria.multistart_atlas(G, f, n_starts=2000, seed=DEFAULT_SEED,
                                        box_radius=math.pi + 0.3)
    stable_isolated = []
    saddles = []
    curve_seeds = []
    for p in atlas.points:
        d, rep = stability.classify_with_kernel(G, f, p)
        if d == 0 and rep.verdict == stability.Verdict.LINEARLY_STABLE:
            stable_isolated.append(p)
        elif d == 0 and rep.verdict == stability.Verdict.UNSTABLE:
            saddles.append(p)
        elif d == 1:
            curve_seeds.append(p)

    checks = [
        CheckResult("k4-sin-stable", "at least one isolated linearly stable point",
                    len(stable_isolated) >= 1, {"count": len(stable_isolated)}),
        CheckResult("k4-sin-saddles", "at least four isolated points with a "
                    "negative Hessian eigenvalue",
                    len(saddles) >= 4, {"count": len(saddles)}),
    ]

    closed_unstable = False
    curve_len = 0
    if curve_seeds:
        sample = continuation.trace_curve(G, f, curve_seeds[0], max_steps=800)
        curve_len = len(sample.points)
        verdicts = {stability.classify(G, f, q, local_dim=1).verdict
                    for q in sample.points}
        closed_unstable = sample.closed and verdicts == {stability.Verdict.UNSTABLE}
    checks.append(CheckResult(
        "k4-sin-circle", "a one-dimensional closed curve whose points are all unstable",
        closed_unstable, {"curve_points": curve_len, "seeds": len(curve_seeds)}))

    return _report("k4-sin", "k4-sin", desc, checks, 1 if curve_seeds else 0, G, f)


def _scenario_c3_cubic(G, f):
    desc = ("3-cycle with cubic coupling x^3 - x: a closed curve of stable "
            "equilibria plus an isolated unstable point")
    p0 = equilibria.equilibrium_point(G, f, np.array([0.0, 1.0, 0.0]))
    sample = continuation.trace_curve(G, f, p0, max_steps=600)
    all_stable = all(
        stability.classify(G, f, q, local_dim=1).verdict
        == stability.Verdict.STABLE_NORMALLY_HYPERBOLIC
        for q in sample.points)
    checks = [
        CheckResult("c3-cubic-closed", "tracing from a constructed point returns "
                    "to the start", sample.closed,
                    {"points": len(sample.points),
                     "singular_flags": list(sample.singular_flags)}),
        CheckResult("c3-cubic-stable-curve", "every sampled curve point is "
                    "normally hyperbolic stable", all_stable, {}),
    ]
    atlas = equilibria.multistart_atlas(G, f, n_starts=500, seed=DEFAULT_SEED,
                                        box_radius=2.0)
    most_negative = min(
        (stability.classify(G, f, p).min_eigenvalue for p in atlas.points),
        default=0.0)
    checks.append(CheckResult(
        "c3-cubic-unstable-point", "multistart finds an equilibrium with a "
        "Hessian eigenvalue below -0.1", most_negative < -0.1,
        {"min_eigenvalue": most_negative, "atlas_size": len(atlas.points)}))
    return _report("c3-cubic", "c3-cubic", desc, checks, 1, G, f)


def book_family_point(pages: int) -> np.ndarray:
    """Spine at (0, pi); page states on the sum-of-sines-zero surface, away
    from the symmetric self-intersections."""
    base = [0.5, -0.8, 0.9, -1.2]
    vals = base[: pages - 1]
    last = -math.asin(sum(math.sin(v) for v in vals))
    return np.array([0.0, math.pi] + vals + [last])


def _scenario_book(pages):
    def run(G, f):
        desc = (f"triangular book with {pages} pages and anti-periodic sine "
                f"coupling: the page states move on a {pages - 1}-dimensional "
                f"manifold of equilibria")
        x = book_family_point(pages)
        p = equilibria.equilibrium_point(G, f, x)
        info = continuation.local_dimension(G, f, p)
        rep = homology.dimension_bounds(G, f)
        checks = [
            CheckResult(f"book{pages}-residual", "constructed point is an equilibrium",
                        p.accepted(), {"residual": p.residual}),
            CheckResult(f"book{pages}-dim", f"local manifold dimension equals {pages - 1}",
                        info.d == pages - 1, {"local_dim": info.d, "gap": list(info.gap)}),
            CheckResult(f"book{pages}-homology",
                        f"cycle space has dimension {pages} and the chain bound "
                        f"gives {pages - 1}",
                        rep.dim_H1 == pages and rep.cc == 2
                        and rep.chain_bound == pages - 1 and rep.applicable_chain_bound,
                        rep.to_dict()),
        ]
        return ExampleReport(f"book{pages}-sin", desc, tuple(checks), info.d, rep)
    return run


def _scenario_k4_bifurcation(G, f):
    desc = ("complete graph on 4 vertices with sin x - sin 3x coupling: the "
            "curve (0, t, pi, pi+t) changes stability along itself; an extra "
            "eigenvalue vanishes at the self-intersection t = pi")
    ts = sorted(set(np.arange(0.0, 2 * math.pi, 0.02)) | {math.pi, 2 * math.pi})
    labels = []
    zero_mults = []
    all_equilibria = True
    at_pi = None
    for t in ts:
        x = np.array([0.0, t, math.pi, math.pi + t])
        p = equilibria.equilibrium_point(G, f, x)
        if not p.accepted():
            all_equilibria = False
        d, rep = stability.classify_with_kernel(G, f, p)
        zero_mults.append(rep.zero_multiplicity)
        if rep.verdict == stability.Verdict.UNSTABLE:
            labels.append("U")
        elif rep.verdict == stability.Verdict.STABLE_NORMALLY_HYPERBOLIC:
            labels.append("S")
        else:
            labels.append("?")
        if t == math.pi:
            at_pi = rep
    generic = int(np.bincount(zero_mults).argmax())
    transitions = sum(1 for a, b in zip(labels, labels[1:])
                      if {a, b} == {"U", "S"})
    idx_pi = ts.index(math.pi)
    neighbor_label = labels[idx_pi - 1]
    checks = [
        CheckResult("k4-sin3-equilibria", "every point of the sweep is an equilibrium",
                    all_equilibria, {"samples": len(ts)}),
        CheckResult("k4-sin3-alternation", "stability alternates along the curve "
                    "at least twice", transitions >= 2 and "?" not in labels,
                    {"transitions": transitions}),
        CheckResult("k4-sin3-degeneracy", "at t = pi the zero multiplicity exceeds "
                    "its generic value by exactly one with the verdict class "
                    "unchanged",
                    at_pi is not None
                    and at_pi.zero_multiplicity == generic + 1
                    and labels[idx_pi] == neighbor_label,
                    {"generic_zero_multiplicity": generic,
                     "at_pi": at_pi.to_dict() if at_pi else None}),
    ]
    return _report("k4-sin3", "k4-sin3", desc, checks, 1, G, f)


def cover7_target() -> Graph:
    return complete_graph(3)


def k3_curve_point(f: CouplingFunction, lam: float) -> np.ndarray:
    """Equilibrium (0, x1, x1+x2) of the triangle from the three real
    preimages of lam under f = x - x^3 (their sum vanishes)."""
    roots = np.sort(np.roots([-1.0, 0.0, 1.0, -lam]).real)
    return np.array([0.0, roots[0], roots[0] + roots[1]])


def _scenario_cover7(G, f):
    desc = ("asymmetric 7-vertex generalized covering of the triangle: the "
            "curve of triangle equilibria for x - x^3 lifts to a curve on the "
            "covering graph")
    H = cover7_target()
    ok, degrees = coverings.is_generalized_covering(COVER7_PHI, G, H)
    phi = coverings.VertexMap(COVER7_PHI, degrees)
    auts = coverings.automorphisms(G)
    checks = [
        CheckResult("cover7-valid", "the labelling is a generalized covering map",
                    ok, {"fiber_degrees": list(degrees or ())}),
        CheckResult("cover7-asymmetric", "the covering graph has no nontrivial "
                    "automorphism", len(auts) == 1 and auts.complete,
                    {"automorphisms": len(auts)}),
    ]
    lam_values = np.linspace(-0.3, 0.3, 20)
    worst = 0.0
    lifted_points = []
    for lam in lam_values:
        yp = equilibria.equilibrium_point(H, f, k3_curve_point(f, lam))
        lifted = coverings.lift_equilibrium(phi, yp, G, H, f)
        worst = max(worst, lifted.residual)
        lifted_points.append(lifted)
    checks.append(CheckResult(
        "cover7-lift", "triangle equilibria lift with residual below 1e-9",
        worst <= 1e-9, {"worst_residual": worst, "lambda_count": len(lam_values)}))
    info = continuation.local_dimension(G, f, lifted_points[len(lifted_points) // 2])
    checks.append(CheckResult(
        "cover7-lifted-dim", "a generic lifted point sits on a manifold of "
        "dimension at least 1", info.d >= 1, {"local_dim": info.d}))
    return _report("cover7-cubic", "cover7", desc, checks, info.d, G, f)


def theta_family_point() -> np.ndarray:
    x1, x2 = 0.5, -0.8
    x3 = math.asin(-(math.sin(x1) + math.sin(x2)))
    return np.array([0.0, math.pi, x1, x2, x3])


def _scenario_theta(G, f):
    desc = ("two degree-3 vertices joined by three 2-paths, sine coupling: "
            "pinning the hubs at 0 and pi leaves a 2-dimensional surface of "
            "equilibria")
    p = equilibria.equilibrium_point(G, f, theta_family_point())
    info = continuation.local_dimension(G, f, p)
    cloud = continuation.sample_manifold(G, f, p, budget=60)
    residuals_ok = all(q.accepted() for q in cloud.points)
    dims_ok = all(d == 2 for d in cloud.local_dim)
    checks = [
        CheckResult("theta-dim", "constructed point has local dimension 2",
                    info.d == 2, {"local_dim": info.d}),
        CheckResult("theta-cloud", "breadth-first sampling fills a patch of "
                    "equilibria of constant dimension 2",
                    len(cloud.points) >= 30 and residuals_ok and dims_ok,
                    {"points": len(cloud.points),
                     "singular_flags": list(cloud.singular_flags)}),
    ]
    return _report("theta-sin", "theta", desc, checks, 2, G, f)


def _scenario_bowtie(G, f):
    desc = ("two triangles glued at a vertex, cubic coupling: equilibria and "
            "stability decompose block by block")
    pts = equilibria.zero_pattern_equilibria(G, f, 1.0)
    agree = 0
    for p in pts:
        d, direct = stability.classify_with_kernel(G, f, p)
        blocks = stability.block_stability(G, f, p.x)
        if direct.verdict == blocks.combined_verdict:
            agree += 1
    checks = [
        CheckResult("bowtie-blocks", "direct verdict equals the conjunction of "
                    "block verdicts on every zero-pattern equilibrium",
                    agree == len(pts), {"agree": agree, "total": len(pts)}),
    ]
    # one curve point per triangle: a 2-dimensional product family
    arc = k3_curve_point(make_polynomial([1.0, -1.0]), 0.0)
    x = np.zeros(5)
    x[[0, 1, 2]] = arc
    x[[3, 4]] = arc[1:]
    p = equilibria.equilibrium_point(G, f, x)
    d, direct = stability.classify_with_kernel(G, f, p)
    blocks = stability.block_stability(G, f, p.x)
    checks.append(CheckResult(
        "bowtie-product-dim", "gluing one curve point per triangle gives a "
        "2-dimensional family with matching block verdict",
        p.accepted() and d == 2 and direct.verdict == blocks.combined_verdict,
        {"local_dim": d, "direct": direct.verdict.value,
         "combined": blocks.combined_verdict.value}))
    return _report("bowtie-cubic", "bowtie", desc, checks, d, G, f)


def _scenario_bounds_only(name, desc, expect):
    def run(G, f):
        rep = homology.dimension_bounds(G, f)
        ok = all(getattr(rep, key) == val for key, val in expect.items())
        checks = (CheckResult(f"{name}-homology", "cycle structure matches the "
                              "hand-computed values", ok,
                              {"expected": expect, **rep.to_dict()}),)
        return ExampleReport(name, desc, checks, None, rep)
    return run


def _scenario_zero_pattern(name, z):
    def run(G, f):
        desc = ("binary splitting of a connected graph across a nonzero root "
                "of the coupling: exactly 2^(n-1) equilibria")
        pts = equilibria.zero_pattern_equilibria(G, f, z)
        expected = 2 ** (G.n - 1)
        residual_ok = all(p.residual <= 1e-12 for p in pts)
        distinct = all(
            not equilibria.points_equivalent(G, f, pts[i], pts[j])
            for i in range(len(pts)) for j in range(i + 1, len(pts)))
        checks = (
            CheckResult(f"{name}-count", f"exactly {expected} equilibria",
                        len(pts) == expected, {"count": len(pts)}),
            CheckResult(f"{name}-residuals", "all residuals at roundoff level",
                        residual_ok,
                        {"max_residual": max(p.residual for p in pts)}),
            CheckResult(f"{name}-distinct", "pairwise non-equivalent up to "
                        "symmetry", distinct, {}),
        )
        rep = homology.dimension_bounds(G, f)
        return ExampleReport(name, desc, checks, None, rep)
    return run


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _sin() -> CouplingFunction:
    return make_sine_combination({1: 1.0})


def _sin_series() -> CouplingFunction:
    return make_sine_series(math.pi, {1: 1.0})


def _cubic_down() -> CouplingFunction:
    return make_polynomial([-1.0, 1.0])   # x^3 - x


def _cubic_up() -> CouplingFunction:
    return make_polynomial([1.0, -1.0])   # x - x^3


REGISTRY: dict[str, CorpusExample] = {}


def _register(name, description, build, scenario):
    REGISTRY[name] = CorpusExample(name, description, build, scenario)


_register("k4-sin", "K4 with sine coupling",
          lambda: (complete_graph(4), _sin()), _scenario_k4_sin)
_register("c3-cubic", "3-cycle with x^3 - x",
          lambda: (cycle_graph(3), _cubic_down()), _scenario_c3_cubic)
for _p in (2, 3, 5):
    _register(f"book{_p}-sin", f"triangular book with {_p} pages, "
              "anti-periodic sine coupling",
              (lambda p: (lambda: (book_graph(p), _sin_series())))(_p),
              _scenario_book(_p))
_register("k4-sin3", "K4 with sin x - sin 3x",
          lambda: (complete_graph(4), make_sine_combination({1: 1.0, 3: -1.0})),
          _scenario_k4_bifurcation)
_register("cover7-cubic", "7-vertex generalized covering of K3 with x - x^3",
          lambda: (cover7_graph(), _cubic_up()), _scenario_cover7)
_register("theta-sin", "theta graph (three parallel 2-paths) with sine",
          lambda: (theta_graph(), _sin()), _scenario_theta)
_register("bowtie-cubic", "two vertex-glued triangles with x^3 - x",
          lambda: (bowtie_graph(), _cubic_down()), _scenario_bowtie)
_register("snake3-cubic", "chain of three quadrilaterals with x^3 - x",
          lambda: (ladder_graph(3), _cubic_down()),
          _scenario_bounds_only("snake3-cubic",
                                "a chain of quadrilaterals pins the dimension "
                                "bound at 1 regardless of length",
                                {"dim_H1": 3, "cc": 3, "chain_bound": 1}))
_register("wheel6-sin", "wheel (hub plus 6-cycle) with sine",
          lambda: (wheel_graph(6), _sin()),
          _scenario_bounds_only("wheel6-sin",
                                "the wheel's rim triangles chain without "
                                "wrapping, bounding the dimension by 2",
                                {"dim_H1": 6, "cc": 5, "chain_bound": 2}))
_register("two-cycles-sin", "triangle and square sharing one edge, sine",
          lambda: (two_cycles_shared_edge(), _sin()),
          _scenario_bounds_only("two-cycles-sin",
                                "two cycles meeting in one edge form a chain "
                                "of length 2, bounding the dimension by 1",
                                {"dim_H1": 2, "cc": 2, "chain_bound": 1}))
_register("p3-sin", "3-vertex path with sine, root pi",
          lambda: (path_graph(3), _sin()), _scenario_zero_pattern("p3-sin", math.pi))
_register("star4-sin", "4-vertex star with sine, root pi",
          lambda: (star_graph(4), _sin()), _scenario_zero_pattern("star4-sin", math.pi))
_register("c5-sin", "5-cycle with sine, root pi",
          lambda: (cycle_graph(5), _sin()), _scenario_zero_pattern("c5-sin", math.pi))


def load_corpus_example(name: str) -> tuple[Graph, CouplingFunction, CorpusExample]:
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownExampleError(f"unknown example {name!r}; known: {known}")
    entry = REGISTRY[name]
    G, f = entry.build()
    return G, f, entry


def run_example(name: str) -> ExampleReport:
    G, f, entry = load_corpus_example(name)
    return entry.scenario(G, f)


def run_all() -> list[ExampleReport]:
    return [run_example(name) for name in REGISTRY]


def vertex_glued_graphs() -> list[tuple[str, Graph]]:
    """Connected graphs with at least two blocks, used by the block-stability
    equivalence checks."""
    tri_square = build_graph([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 0)])
    book_tail = build_graph([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (1, 4), (4, 5), (5, 1)])
    three_tris = build_graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2),
                              (4, 5), (5, 6), (6, 4)])
    return [
        ("bowtie", bowtie_graph()),
        ("triangle-square", tri_square),
        ("book2-triangle", book_tail),
        ("triangle-chain", three_tris),
    ]
