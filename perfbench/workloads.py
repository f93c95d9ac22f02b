"""Seeded inputs and the fixed operation list of every workload.

A workload is built from one ``numpy`` generator seeded with the run's seed.
Its operations are whole user-level jobs (an atlas, a curve, a trajectory, a
bounds report), driven through ``oddcoupling.cli.run`` with the arguments of
the matching ``ocl`` command, or through the library where no command exists.
Every run repeats the same list, so counts of attempted and failed operations
are whole multiples of one round.

Input files and reports go under ``perfbench/out/work/<workload>``, addressed
by paths relative to the checkout root: the paths are echoed into the CLI
reports, so they must not change between runs or commits.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("atlas", "manifolds", "trajectories", "bounds")
OUT_DIR = Path("perfbench") / "out"

# sizes of one round; README.md explains the choice
K4_STARTS = 2000
K4_BOX = math.pi + 0.3
LADDER_ATLAS_CELLS = 8
LADDER_ATLAS_STARTS = 1000
# a manifolds round takes about 3 s, so that a run holds four and reports
# their median: two rounds of one run were seen to differ by 39%
C3_CURVES = 4
K4_CURVES = 4
BOOK_SURFACES = 3
BOOK_BUDGET = 1000
# the graph sets most of a trajectory's cost, so the 100 trajectories of the
# AC-09 batch get 100 graphs, with sizes 2 to 8 in turn: a round's work then
# varies little with the seed
AC09_GRAPHS = 100
AC09_MAX_N = 8
AC09_T_END = 400.0
BASIN_TRIALS = 30
BASIN_RADIUS = 0.1
BASIN_T_END = 50.0
BOUNDS_LADDERS = range(10, 17)
BOUNDS_WHEELS = range(6, 13)
BUDGET_LADDER_CELLS = 17
BUDGET_LADDER_SECONDS = 0.25

SIN = {"family": "sine_sum", "terms": {"1": 1.0}}
SIN3 = {"family": "sine_sum", "terms": {"1": 1.0, "3": -1.0}}
CUBIC_DOWN = {"family": "odd_poly", "coeffs": [-1.0, 1.0]}   # x^3 - x
CUBIC_UP = {"family": "odd_poly", "coeffs": [1.0, 1.0]}      # x + x^3
SERIES = {"family": "sine_series", "P": math.pi, "terms": {"1": 1.0}}


@dataclass
class Op:
    """One operation of a round.

    ``run`` does the timed work and returns what the checks need. ``reports``
    lists the CLI report files the operation writes (digested and compared
    between rounds); ``files`` lists other outputs compared between rounds.
    An operation fails when ``run`` raises or returns ``failed=True``.
    """

    name: str
    run: Callable[[], dict]
    reports: tuple[str, ...] = ()
    files: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op] = field(default_factory=list)
    inputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# graphs and files
# ---------------------------------------------------------------------------

def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def ladder_edges(cells):
    k = cells + 1
    return ([(i, i + 1) for i in range(k - 1)]
            + [(k + i, k + i + 1) for i in range(k - 1)]
            + [(i, k + i) for i in range(k)])


def wheel_edges(rim):
    return ([(0, i) for i in range(1, rim + 1)]
            + [(i, i % rim + 1) for i in range(1, rim + 1)])


def book_edges(pages):
    edges = [(0, 1)]
    for k in range(2, pages + 2):
        edges += [(0, k), (1, k)]
    return edges


def shuffle_edges(rng, edges):
    """The same graph with its edges in random order and orientation. Vertex
    labels stay: they set the cycle search's order, and with it its cost."""
    flipped = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    return [flipped[i] for i in rng.permutation(len(flipped))]


def random_connected_edges(rng, n, extra_max=5):
    """Random spanning tree on n vertices plus extra edges, as in the AC-09
    acceptance test."""
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    seen = {frozenset(e) for e in edges}
    for _ in range(int(rng.integers(0, extra_max + 1))):
        u, v = (int(w) for w in rng.choice(n, size=2, replace=False))
        if frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
    return edges


def point_arg(x) -> str:
    """Exact decimal form of a state, for ``--point=`` (a leading minus sign
    would otherwise read as an option)."""
    return ",".join(repr(float(v)) for v in x)


class Files:
    """Writes a workload's input files under one relative directory, and
    clears the outputs of earlier runs so that no check reads a stale one."""

    def __init__(self, workload: str):
        self.root = OUT_DIR / "work" / workload
        for sub in ("reports", "csv"):
            shutil.rmtree(self.root / sub, ignore_errors=True)
        for sub in ("inputs", "reports", "csv"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    def graph(self, name, n, edges) -> str:
        return self._write(name, {"n": n, "edges": [list(e) for e in edges]})

    def coupling(self, name, spec) -> str:
        return self._write(name, spec)

    def _write(self, name, obj) -> str:
        path = self.root / "inputs" / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def report(self, name) -> str:
        return str(self.root / "reports" / f"{name}.json")

    def csv(self, name) -> str:
        return str(self.root / "csv" / f"{name}.csv")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def cli_op(name, argv, out, files=()) -> Op:
    from oddcoupling.cli import run as cli_run

    def run():
        code = cli_run(argv + ["--out", out])
        return {"failed": code != 0, "exit_code": code}
    return Op(name, run, reports=(out,), files=tuple(files))


def build(name: str, seed: int) -> Workload:
    """The workload's operations, with its input files written."""
    wl = Workload(name, seed)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    BUILDERS[name](wl, rng, Files(name))
    return wl


def _build_atlas(wl, rng, files):
    k4 = files.graph("k4", 4, complete_edges(4))
    sin = files.coupling("sin", SIN)
    n_lad = 2 * (LADDER_ATLAS_CELLS + 1)
    lad_edges = shuffle_edges(rng, ladder_edges(LADDER_ATLAS_CELLS))
    lad = files.graph("ladder", n_lad, lad_edges)
    up = files.coupling("up", CUBIC_UP)
    s1, s2 = (int(s) for s in rng.integers(0, 2**31, size=2))
    wl.inputs = {"k4": {"n": 4, "edges": complete_edges(4), "starts": K4_STARTS},
                 "ladder": {"n": n_lad, "edges": lad_edges,
                            "starts": LADDER_ATLAS_STARTS}}
    wl.ops = [
        cli_op("solve-k4-sin", ["solve", "--graph", k4, "--coupling", sin,
                                "--starts", str(K4_STARTS), "--seed", str(s1),
                                "--box", repr(K4_BOX)], files.report("solve-k4")),
        cli_op("solve-ladder-up", ["solve", "--graph", lad, "--coupling", up,
                                   "--starts", str(LADDER_ATLAS_STARTS),
                                   "--seed", str(s2)], files.report("solve-ladder")),
    ]


def c3_curve_point(rng) -> np.ndarray:
    """A point of the closed curve of the 3-cycle under x^3 - x: the edge
    differences are the three real roots of y^3 - y = lam, which sum to 0."""
    lam = rng.uniform(-0.3, 0.3)
    r = np.sort(np.roots([1.0, 0.0, -1.0, -lam]).real)
    return np.array([0.0, r[0], r[0] + r[1]]) + rng.uniform(-1.0, 1.0)


def k4_sin3_point(rng) -> np.ndarray:
    """A point (0, t, pi, pi + t) of the K4 curve under sin x - sin 3x.

    The trace stops at the self-intersections t = 0 and t = pi, and the
    verdict changes near t = 0.7, 1.35, 1.8 and pi - 0.65. Starting in
    [0.8, pi - 0.8], the arc traced towards either end crosses a change, so
    it holds stable and unstable points whichever way the trace goes."""
    t = rng.uniform(0.8, math.pi - 0.8) + math.pi * int(rng.integers(0, 2))
    return np.array([0.0, t, math.pi, math.pi + t]) + rng.uniform(-1.0, 1.0)


def book_page_point(rng, pages=5) -> np.ndarray:
    """Spine at (0, pi), page states with sum of sines 0, generic: no two page
    values equal or symmetric, so the page manifold has dimension pages - 1."""
    while True:
        vals = rng.uniform(-1.2, 1.2, size=pages - 1)
        s = float(np.sum(np.sin(vals)))
        if abs(s) > 0.9:
            continue
        pages_x = np.append(vals, -math.asin(s))
        pair_gap = min(min(abs(a - b), abs(a + b), abs(math.pi - abs(a - b)))
                       for i, a in enumerate(pages_x) for b in pages_x[i + 1:])
        if pair_gap > 0.15 and np.min(np.abs(pages_x)) > 0.1:
            return np.concatenate([[0.0, math.pi], pages_x])


def _build_manifolds(wl, rng, files):
    c3 = files.graph("c3", 3, cycle_edges(3))
    cubic = files.coupling("cubic", CUBIC_DOWN)
    k4 = files.graph("k4", 4, complete_edges(4))
    sin3 = files.coupling("sin3", SIN3)
    book = files.graph("book5", 7, book_edges(5))
    series = files.coupling("series", SERIES)
    specs = ([("c3", c3, cubic, c3_curve_point(rng), "curve") for _ in range(C3_CURVES)]
             + [("k4", k4, sin3, k4_sin3_point(rng), "curve") for _ in range(K4_CURVES)]
             + [("book5", book, series, book_page_point(rng), "surface")
                for _ in range(BOOK_SURFACES)])
    graphs = {"c3": (3, cycle_edges(3), CUBIC_DOWN), "k4": (4, complete_edges(4), SIN3),
              "book5": (7, book_edges(5), SERIES)}
    wl.inputs = {"graphs": graphs, "samples": []}
    for i, (kind, gpath, cpath, x0, mode) in enumerate(specs):
        out = files.report(f"continue-{i:02d}-{kind}")
        argv = ["continue", "--graph", gpath, "--coupling", cpath,
                f"--point={point_arg(x0)}", "--mode", mode]
        argv += ["--max-steps", "800"] if mode == "curve" else ["--budget", str(BOOK_BUDGET)]
        wl.inputs["samples"].append(kind)
        wl.ops.append(_continue_op(f"continue-{i:02d}-{kind}", argv, out, gpath, cpath))


def _continue_op(name, argv, out, gpath, cpath) -> Op:
    """Trace or sample through the CLI, then give every sampled point its
    stability verdict through the library, as a user of both would."""
    from oddcoupling import cli, equilibria, stability

    def run():
        code = cli.run(argv + ["--out", out])
        if code != 0:
            return {"failed": True, "exit_code": code}
        sample = json.loads(Path(out).read_text())["sample"]
        G, f = cli.load_graph(gpath), cli.load_coupling(cpath)
        verdicts = []
        for pt in sample["points"]:
            p = equilibria.equilibrium_point(G, f, pt["x"])
            d = pt["local_dim"]
            verdicts.append(stability.classify(G, f, p, local_dim=d or None).verdict.value)
        return {"failed": False, "verdicts": verdicts}
    return Op(name, run, reports=(out,))


def _build_trajectories(wl, rng, files):
    up = files.coupling("up", CUBIC_UP)
    trajs = []
    for g in range(AC09_GRAPHS):
        n = 2 + g % (AC09_MAX_N - 1)
        edges = random_connected_edges(rng, n)
        gpath = files.graph(f"g{g:03d}", n, edges)
        x0 = rng.uniform(-2.0, 2.0, size=n)
        name = f"simulate-{g:03d}"
        trajs.append({"n": n, "edges": edges, "x0": x0,
                      "report": files.report(name), "csv": files.csv(name)})
        wl.ops.append(cli_op(
            name, ["simulate", "--graph", gpath, "--coupling", up,
                   f"--x0={point_arg(x0)}", "--t-end", repr(AC09_T_END),
                   "--csv", files.csv(name)],
            files.report(name), files=(files.csv(name),)))
    k4 = files.graph("k4", 4, complete_edges(4))
    sin = files.coupling("sin", SIN)
    c3 = files.graph("c3", 3, cycle_edges(3))
    cubic = files.coupling("cubic", CUBIC_DOWN)
    basins = {}
    for key, gpath, cpath, n in (("k4-sin-stable", k4, sin, 4),
                                 ("c3-cubic-unstable", c3, cubic, 3)):
        name = f"basin-{key}"
        basins[key] = files.report(name)
        wl.ops.append(cli_op(
            name, ["basin", "--graph", gpath, "--coupling", cpath,
                   f"--point={point_arg(np.zeros(n))}", "--radius", repr(BASIN_RADIUS),
                   "--trials", str(BASIN_TRIALS), "--t-end", repr(BASIN_T_END),
                   "--seed", str(int(rng.integers(0, 2**31)))],
            files.report(name)))
    wl.inputs = {"trajectories": trajs, "basins": basins, "t_end": AC09_T_END}


def _build_bounds(wl, rng, files):
    sin = files.coupling("sin", SIN)
    graphs = []
    for family, sizes, make, n_of in (
            ("ladder", BOUNDS_LADDERS, ladder_edges, lambda k: 2 * (k + 1)),
            ("wheel", BOUNDS_WHEELS, wheel_edges, lambda r: r + 1)):
        for size in sizes:
            n = n_of(size)
            edges = shuffle_edges(rng, make(size))
            name = f"bounds-{family}{size}"
            graphs.append({"family": family, "size": size, "n": n, "edges": edges,
                           "report": files.report(name)})
            wl.ops.append(cli_op(name, ["bounds", "--graph", files.graph(name, n, edges),
                                        "--coupling", sin], files.report(name)))
    n = 2 * (BUDGET_LADDER_CELLS + 1)
    edges = shuffle_edges(rng, ladder_edges(BUDGET_LADDER_CELLS))
    wl.inputs = {"graphs": graphs,
                 "budget_ladder": {"size": BUDGET_LADDER_CELLS, "n": n, "edges": edges}}
    wl.ops.append(_budget_bounds_op(f"bounds-ladder{BUDGET_LADDER_CELLS}-budget", n, edges))


def _budget_bounds_op(name, n, edges) -> Op:
    """``ocl bounds`` has no time budget, so this graph goes through the
    library; the operation fails while the chain search cannot finish."""
    from oddcoupling import build_graph, homology, make_sine_combination
    G = build_graph(edges, n=n)
    f = make_sine_combination({1: 1.0})

    def run():
        # looked up at call time, so that the per-layer tracer sees the call
        rep = homology.dimension_bounds(G, f, time_budget=BUDGET_LADDER_SECONDS)
        return {"failed": not rep.cc_exact, "cc": rep.cc}
    return Op(name, run)


BUILDERS = {"atlas": _build_atlas, "manifolds": _build_manifolds,
            "trajectories": _build_trajectories, "bounds": _build_bounds}
