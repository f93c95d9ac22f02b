"""The command-line contract, driven by a seeded generator.

Every generated run of ``cli.run`` ends with exit 0, 2 (invalid input,
argparse's usage errors among them) or 3 (numerical failure), and no
exception escapes. The cases cover every analysis command and ``cover
check``/``find``/``lift`` on graphs of 0-6 vertices, all three coupling
families with values refused at load, and points of the wrong length, with
non-finite values or read from ``@file``. Each run is in process, under a
time guard, so that a hang fails its case instead of stalling the suite.
"""

import json
import math
import random
import signal
import time
from contextlib import contextmanager

import pytest

from oddcoupling import cli as cli_module
from oddcoupling.cli import run

SEED = 2026
CASES = 1200
GUARD_S = 10


def graph_data(rng):
    """A graph JSON value: edgeless, complete, disconnected, random, or
    refused at load."""
    n = rng.randint(0, 6)
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    kind = "invalid" if rare(rng) else rng.choice(["edgeless", "complete", "complete",
                                                   "disconnected", "random", "random"])
    if kind == "edgeless":
        return {"n": n, "edges": []}
    if kind == "complete":
        return {"n": n, "edges": pairs}
    if kind == "disconnected":
        k = n // 2
        return {"n": n, "edges": [[j, j + 1] for j in range(k - 1)]
                + [[j, j + 1] for j in range(k, n - 1)]}
    if kind == "random":
        return {"n": n, "edges": [e for e in pairs if rng.random() < 0.5]}
    return rng.choice([{"n": 2, "edges": [[0, 0]]}, {"n": 2, "edges": [[0, 1], [1, 0]]},
                       {"n": 2, "edges": [[0, 2]]}, {"n": 3, "edges": [[0, -1]]},
                       {"n": -1, "edges": []}, {"edge": []}, {"n": 2, "edges": [["a", 1]]},
                       {"n": 2, "edges": [[0.5, 1]]}, [[0, 1]]])


def rare(rng):
    return rng.random() < 0.05


def amplitude(rng):
    if rare(rng):
        return rng.choice([0.0, 1e-300, 1e300, math.inf, math.nan])
    return rng.choice([rng.uniform(-3.0, 3.0), float(rng.randint(-2, 2) or 1), 1.0])


def coupling_data(rng):
    """A coupling JSON value from one of the three families, some refused."""
    family = "invalid" if rare(rng) else rng.choice(["odd_poly", "sine_sum", "sine_series"])
    count = 0 if rare(rng) else rng.randint(1, 3)
    if family == "odd_poly":
        return {"family": family, "coeffs": [amplitude(rng) for _ in range(count + 1)]}
    if family == "sine_sum":
        return {"family": family, "terms": {str(rng.randint(-1, 8) if rare(rng) else
                                                rng.randint(1, 8)): amplitude(rng)
                                            for _ in range(count)}}
    if family == "sine_series":
        return {"family": family,
                "P": rng.choice([0.0, -1.0, math.inf]) if rare(rng) else rng.uniform(0.2, 5.0),
                "terms": {str(2 * rng.randint(0, 3) + (rare(rng) and 1) + 1): amplitude(rng)
                          for _ in range(count)}}
    return rng.choice([{"family": "odd_poly"}, {"family": "cosine", "terms": {}},
                       {"family": "sine_sum", "terms": {"x": 1.0}}, [1.0]])


def point_text(rng, n, files):
    """A point for an n-vertex graph, to follow '=' since it may start with
    '-': mostly the right length, some of the wrong one, some non-finite,
    some read from a file, which alone can hold an empty point. Coordinates
    are often 0 and roots of the couplings, which make equilibria."""
    length = max(0, n + rng.choice([-1, 1])) if rare(rng) else n
    values = [rng.choice([0.0, 0.0, 1.0, math.pi, rng.uniform(-2.0, 2.0)])
              for _ in range(length)]
    if values and rare(rng):
        values[rng.randrange(length)] = rng.choice([math.nan, math.inf, 1e200])
    if not values or rng.random() < 0.2:
        name = files.write(rng.choice([{"x": values}, [True] * length]) if rare(rng) else values)
        return "@" + name
    return ",".join(map(repr, values))


def option(rng, good):
    """A value for a numeric option: mostly ``good``, sometimes one that
    argparse or the command refuses."""
    return rng.choice(["0", "-1", "nan", "inf", "x"]) if rare(rng) else str(good)


class Files:
    """Input files written into one directory, each under a new name."""

    def __init__(self, root):
        self.root, self.count = root, 0

    def write(self, data) -> str:
        self.count += 1
        name = f"in{self.count}.json"
        (self.root / name).write_text(json.dumps(data))
        return name


# points on curves or surfaces of equilibria, where continuation has a kernel
# direction to follow; a random coupling and point seldom give one
CUBIC = {"family": "odd_poly", "coeffs": [-1.0, 1.0]}
MANIFOLDS = [
    ({"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}, CUBIC, [0.0, 1.0, 0.0]),
    ({"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]},
     {"family": "sine_sum", "terms": {"1": 1.0}}, [0.0, math.pi / 2, math.pi, 1.5 * math.pi]),
    ({"n": 6, "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]}, CUBIC,
     [0.0, 1.0, 0.0, 0.0, 1.0, 0.0]),
]


def case_argv(rng, files):
    """One command line and the files it reads."""
    G, f = graph_data(rng), coupling_data(rng)
    n = G.get("n", 0) if isinstance(G, dict) and isinstance(G.get("n"), int) else 2
    on_manifold, point = rng.random() < 0.15, None
    if on_manifold:
        G, f, point = rng.choice(MANIFOLDS)
        n, shift = G["n"], rng.uniform(-2.0, 2.0)
        point = ",".join(repr(v + shift) for v in point)
    g_name, f_name = files.write(G), files.write(f)
    common = ["--graph", g_name, "--coupling", f_name, "--out", "report.json"]
    command = rng.choice(["continue", "stability"] if on_manifold else
                         ["bounds", "solve", "continue", "stability", "simulate", "basin",
                          "blocks", "cover"])
    if command == "bounds":
        return ["bounds", *common, "--cap", option(rng, rng.randint(1, 50))]
    if command == "solve":
        return ["solve", *common, "--starts", option(rng, rng.randint(1, 12)),
                "--max-iter", option(rng, rng.randint(1, 30)),
                "--box", option(rng, rng.uniform(0.1, 4.0)), "--seed", str(rng.randint(0, 9))]
    if command == "continue":
        mode = rng.choice(["curve", "surface"])
        limit = option(rng, rng.randint(1, 12))
        csv = ["--csv", "points.csv"] if rng.random() < 0.3 else []
        return ["continue", *common, "--point=" + (point or point_text(rng, n, files)),
                "--mode", mode, "--step", option(rng, 0.1),
                "--max-steps" if mode == "curve" else "--budget", limit, *csv]
    if command == "stability":
        return ["stability", *common, "--point=" + (point or point_text(rng, n, files)),
                *(["--local-dim", option(rng, rng.randint(1, 3))] if rng.random() < 0.3 else [])]
    if command == "simulate":
        return ["simulate", *common, "--x0=" + point_text(rng, n, files),
                "--t-end", option(rng, rng.uniform(0.1, 2.0))]
    if command == "basin":
        return ["basin", *common, "--point=" + point_text(rng, n, files),
                "--trials", option(rng, rng.randint(1, 3)), "--t-end", option(rng, 1.0)]
    if command == "blocks":
        extra = rng.choice([[], ["--coupling", f_name, "--point=" + point_text(rng, n, files)]])
        if rare(rng):
            extra = rng.choice([["--coupling", f_name], ["--t-zero", "1e-6"]])
        return ["blocks", "--graph", g_name, "--out", "report.json", *extra]
    H = graph_data(rng)
    h = H.get("n", 0) if isinstance(H, dict) and isinstance(H.get("n"), int) else 2
    target = ["--graph", g_name, "--target", files.write(H), "--out", "report.json"]
    sub = rng.choice(["check", "find", "lift"])
    if sub == "find":
        return ["cover", "find", *target, "--cap", option(rng, rng.randint(1, 20))]
    phi = [rng.randint(-1, max(h, 1)) if rng.random() < 0.1 else rng.randrange(max(h, 1))
           for _ in range(n if rng.random() < 0.9 else n + 1)]
    phi_text = ",".join(map(str, phi)) if rng.random() < 0.8 else "@" + files.write(phi)
    if sub == "check":
        return ["cover", "check", *target, "--phi=" + phi_text]
    return ["cover", "lift", *target, "--phi=" + phi_text, "--coupling", f_name,
            "--point=" + point_text(rng, h, files)]


class Hang(BaseException):
    """Raised by the time guard: a BaseException, which no ``except
    Exception`` clause in the program can take for a refused input (a
    TimeoutError is an OSError, which ``cli.run`` turns into exit 2)."""


@contextmanager
def time_guard(seconds):
    def expire(signum, frame):
        raise Hang(f"no exit within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def exit_code(i, argv, root, seconds=GUARD_S) -> int:
    """The exit code of one case; a case that raises or hangs fails."""
    try:
        with time_guard(seconds):
            return run(argv)
    except SystemExit as exc:  # argparse refuses a flag value with exit 2
        return exc.code
    except (Exception, Hang) as exc:
        inputs = {name: (root / name).read_text()
                  for name in (a.split("=")[-1].lstrip("@") for a in argv)
                  if name.startswith("in")}
        raise AssertionError(f"case {i}: {argv} {inputs} raised {exc!r}") from exc


def test_the_time_guard_fails_a_hung_case(tmp_path, monkeypatch):
    # the guard's exception passes through cli.run's own handlers, which
    # would take a TimeoutError for an unwritable file and exit 2
    def sleeping(args):
        time.sleep(5.0)

    monkeypatch.setitem(cli_module._HANDLERS, "bounds", sleeping)
    argv = ["bounds", "--graph", "g.json", "--coupling", "f.json"]
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="Hang"):
        exit_code(0, argv, tmp_path, seconds=0.05)
    assert time.perf_counter() - start < 2.0


def test_every_generated_run_ends_with_an_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng, files = random.Random(SEED), Files(tmp_path)
    ended = set()
    for i in range(CASES):
        argv = case_argv(rng, files)
        code = exit_code(i, argv, tmp_path)
        assert code in (0, 2, 3), (i, argv, code)
        ended.add((" ".join(argv[:2]) if argv[0] == "cover" else argv[0], code))
        capsys.readouterr()
    # every command writes a report somewhere in the run, and each ending occurs
    assert {command for command, code in ended if code == 0} == {
        "bounds", "solve", "continue", "stability", "simulate", "basin", "blocks",
        "cover check", "cover find", "cover lift"}
    assert {code for _, code in ended} == {0, 2, 3}
