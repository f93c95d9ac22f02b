"""Correctness checks computed apart from the program.

Every check recomputes what it tests from the edge list with plain numpy (or
``networkx`` for the cycle counts), or tests a property the method must have;
none compares against stored output. Each check comes with a corruption of
the real output that it must reject, so every run also shows that its checks
can fail. Checks run outside the timed span.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from workloads import BOOK_BUDGET

EQ_TOL = 1e-9        # residual acceptance scale of the program's documentation
ZERO_TOL = 1e-7      # zero-eigenvalue bucket scale
MONO_TOL = 1e-7      # allowed energy rise between samples, relative to 1 + |E0|
STABLE = "stable_normally_hyperbolic"
UNSTABLE = "unstable"


class CheckFailed(AssertionError):
    pass


def require(ok, msg):
    if not ok:
        raise CheckFailed(msg)


@dataclass
class Check:
    name: str
    run: Callable[[dict], None]
    corrupt: Callable[[dict], None]   # mutates a deep copy of the data


def run_checks(checks, data) -> list[dict]:
    """Run every check on the data, then every check on its own corruption.

    A check passes when it accepts the real output; its self-test passes when
    it rejects the corrupted copy."""
    results = []
    for chk in checks:
        res = {"check": chk.name}
        try:
            chk.run(data)
            res["passed"] = True
        except CheckFailed as exc:
            res["passed"], res["detail"] = False, str(exc)
        bad = copy.deepcopy(data)
        chk.corrupt(bad)
        try:
            chk.run(bad)
            res["self_test"] = False
        except CheckFailed:
            res["self_test"] = True
        results.append(res)
    return results


# ---------------------------------------------------------------------------
# independent numerics
# ---------------------------------------------------------------------------

def incidence(n, edges) -> np.ndarray:
    B = np.zeros((n, len(edges)))
    for e, (u, v) in enumerate(edges):
        B[u, e], B[v, e] = -1.0, 1.0
    return B


def coupling(spec):
    """(f, f', primitive) of a coupling given as its JSON dict."""
    fam = spec["family"]
    if fam == "odd_poly":
        c = spec["coeffs"]
        return (lambda y: sum(a * y ** (2 * k + 1) for k, a in enumerate(c)),
                lambda y: sum((2 * k + 1) * a * y ** (2 * k) for k, a in enumerate(c)),
                lambda y: sum(a * y ** (2 * k + 2) / (2 * k + 2) for k, a in enumerate(c)))
    if fam == "sine_sum":
        w = {int(k): (float(k), a) for k, a in spec["terms"].items()}
    else:
        w = {int(k): (int(k) * math.pi / spec["P"], a) for k, a in spec["terms"].items()}
    return (lambda y: sum(a * np.sin(om * y) for om, a in w.values()),
            lambda y: sum(a * om * np.cos(om * y) for om, a in w.values()),
            lambda y: sum(a * (1 - np.cos(om * y)) / om for om, a in w.values()))


def residuals(B, f, X) -> np.ndarray:
    X = np.atleast_2d(X)
    return np.linalg.norm(f(X @ B) @ B.T, axis=1)


def eq_tol(X) -> np.ndarray:
    return EQ_TOL * (1.0 + np.max(np.abs(np.atleast_2d(X)), axis=1))


def spectra(B, fp, X) -> np.ndarray:
    """Hessian spectra B diag(f'(B^T x)) B^T, one row per point."""
    W = fp(np.atleast_2d(X) @ B)
    H = np.einsum("ie,ke,pe->pik", B, B, W)
    return np.linalg.eigvalsh(H)


def zero_counts(evals):
    thr = ZERO_TOL * np.maximum(1.0, np.max(np.abs(evals), axis=1))
    return np.sum(np.abs(evals) <= thr[:, None], axis=1), thr


def verdicts(evals, c, dims) -> list[str]:
    zm, thr = zero_counts(evals)
    out = []
    for lam, z, t, d in zip(evals[:, 0], zm, thr, dims):
        if lam < -t:
            out.append(UNSTABLE)
        elif z == c:
            out.append("linearly_stable_up_to_symmetry")
        elif d >= 1 and z == c + d:
            out.append(STABLE)
        else:
            out.append("degenerate")
    return out


def load_report(path) -> dict:
    return json.loads(Path(path).read_text())


def n_components(n, edges) -> int:
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v
    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)})


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------

def collect_atlas(wl) -> dict:
    from workloads import CUBIC_UP, SIN
    data = {}
    for key, spec, op in (("k4", SIN, wl.ops[0]), ("ladder", CUBIC_UP, wl.ops[1])):
        rep = load_report(op.reports[0])["atlas"]
        data[key] = {**wl.inputs[key], "spec": spec, "n_starts": rep["n_starts"],
                     "points": np.array([p["x"] for p in rep["points"]])}
    return data


def _atlas_residuals(data):
    for key in ("k4", "ladder"):
        a = data[key]
        f = coupling(a["spec"])[0]
        r = residuals(incidence(a["n"], a["edges"]), f, a["points"])
        bad = int(np.sum(r > 10 * eq_tol(a["points"])))
        require(bad == 0, f"{key}: {bad} kept points are not equilibria")
        require(a["n_starts"] == a["starts"], f"{key}: ran {a['n_starts']} starts")


def _atlas_distinct(data):
    X = data["k4"]["points"]
    period = 2 * math.pi
    for i in range(len(X) - 1):
        D = X[i + 1:] - X[i]
        D -= D[:, :1]                       # translations
        D -= period * np.round(D / period)  # 2 pi shifts of single vertices
        j = int(np.argmin(np.max(np.abs(D), axis=1)))
        require(np.max(np.abs(D[j])) > 1e-7,
                f"k4 points {i} and {i + 1 + j} are equivalent")


def _k4_classes(a):
    B = incidence(a["n"], a["edges"])
    ev = spectra(B, coupling(a["spec"])[1], a["points"])
    zm, thr = zero_counts(ev)
    isolated = zm == 1
    return isolated & (ev[:, 0] >= -thr), isolated & (ev[:, 0] < -thr)


def _atlas_spectrum(data):
    stable, saddles = _k4_classes(data["k4"])
    require(stable.sum() >= 1 and saddles.sum() >= 4,
            f"k4: {stable.sum()} isolated stable points, {saddles.sum()} saddles")


def _ladder_consensus(data):
    X = data["ladder"]["points"]
    require(len(X) == 1, f"ladder: {len(X)} classes kept, expected 1")
    spread = float(np.max(np.abs(X[0] - X[0].mean())))
    require(spread <= 1e-6, f"ladder: kept point is not consensus ({spread:.2e})")


def _drop_stable(data):
    stable, _ = _k4_classes(data["k4"])
    data["k4"]["points"] = data["k4"]["points"][~stable]


def _shifted_copy(data):
    X = data["k4"]["points"]
    twin = X[0] + 0.7
    twin[1] += 2 * math.pi
    data["k4"]["points"] = np.vstack([X, twin])


def _perturb_first(key):
    def corrupt(data):
        data[key]["points"][0, -1] += 1e-3
    return corrupt


def _ladder_second_point(data):
    X = data["ladder"]["points"]
    data["ladder"]["points"] = np.vstack([X, X[:1] + np.eye(X.shape[1])[0]])


ATLAS = [
    Check("atlas-residuals", _atlas_residuals, _perturb_first("k4")),
    Check("atlas-k4-distinct", _atlas_distinct, _shifted_copy),
    Check("atlas-k4-spectrum", _atlas_spectrum, _drop_stable),
    Check("atlas-ladder-consensus", _ladder_consensus, _ladder_second_point),
]


# ---------------------------------------------------------------------------
# manifolds
# ---------------------------------------------------------------------------

def collect_manifolds(wl, outputs) -> dict:
    samples = []
    for kind, op, out in zip(wl.inputs["samples"], wl.ops, outputs):
        n, edges, spec = wl.inputs["graphs"][kind]
        s = load_report(op.reports[0])["sample"]
        samples.append({"kind": kind, "n": n, "edges": edges, "spec": spec,
                        "points": np.array([p["x"] for p in s["points"]]),
                        "local_dim": [p["local_dim"] for p in s["points"]],
                        "closed": s["closed"], "step": s["step"],
                        "verdicts": out["verdicts"]})
    return {"samples": samples}


def _sample_spectra(s):
    return spectra(incidence(s["n"], s["edges"]), coupling(s["spec"])[1], s["points"])


def _manifold_residuals(data):
    for i, s in enumerate(data["samples"]):
        r = residuals(incidence(s["n"], s["edges"]), coupling(s["spec"])[0], s["points"])
        bad = int(np.sum(r > 10 * eq_tol(s["points"])))
        require(bad == 0, f"sample {i}: {bad} points are not equilibria")


def _zero_multiplicity(data):
    for i, s in enumerate(data["samples"]):
        zm, _ = zero_counts(_sample_spectra(s))
        c = n_components(s["n"], s["edges"])
        bad = int(np.sum(zm != c + np.array(s["local_dim"])))
        require(bad == 0, f"sample {i}: {bad} points with zero multiplicity != c + d")


def _verdicts(data):
    for i, s in enumerate(data["samples"]):
        mine = verdicts(_sample_spectra(s), n_components(s["n"], s["edges"]), s["local_dim"])
        bad = sum(a != b for a, b in zip(mine, s["verdicts"]))
        require(bad == 0 and len(mine) == len(s["verdicts"]),
                f"sample {i}: {bad} verdicts differ from the recomputed ones")


def _c3_closed_stable(data):
    for i, s in enumerate(data["samples"]):
        if s["kind"] != "c3":
            continue
        B = incidence(s["n"], s["edges"])
        gap = float(np.linalg.norm((s["points"][-1] - s["points"][0]) @ B))
        require(s["closed"] and gap < 0.5 * s["step"] and len(s["points"]) > 3,
                f"sample {i}: c3 curve does not close (gap {gap:.3e})")
        ev = _sample_spectra(s)
        _, thr = zero_counts(ev)
        require(set(s["verdicts"]) == {STABLE} and np.all(ev[:, 0] >= -thr),
                f"sample {i}: c3 curve is not stable throughout")


def _k4_both(data):
    for i, s in enumerate(data["samples"]):
        if s["kind"] != "k4":
            continue
        ev = _sample_spectra(s)
        _, thr = zero_counts(ev)
        neg = ev[:, 0] < -thr
        require(neg.any() and (~neg).any() and {STABLE, UNSTABLE} <= set(s["verdicts"]),
                f"sample {i}: k4 sin x - sin 3x curve lacks stable or unstable points")


def _book_dimension(data):
    for i, s in enumerate(data["samples"]):
        if s["kind"] != "book5":
            continue
        require(len(s["points"]) == BOOK_BUDGET and s["local_dim"][0] == 4
                and np.mean(np.array(s["local_dim"]) == 4) > 0.9,
                f"sample {i}: book5 page manifold is not 4-dimensional")


def _first_of(kind, fn):
    def corrupt(data):
        fn(next(s for s in data["samples"] if s["kind"] == kind))
    return corrupt


def _flip_verdict(s):
    s["verdicts"][1] = UNSTABLE if s["verdicts"][1] != UNSTABLE else STABLE


def _all_unstable(s):
    s["verdicts"] = [UNSTABLE] * len(s["verdicts"])


def _open_curve(s):
    s["points"] = s["points"][: len(s["points"]) // 2]
    s["closed"] = False


def _bump_dims(s):
    s["local_dim"] = [d - 1 for d in s["local_dim"]]


def _nudge_point(s):
    s["points"][len(s["points"]) // 2, 0] += 1e-3


MANIFOLDS = [
    Check("manifolds-residuals", _manifold_residuals, _first_of("book5", _nudge_point)),
    Check("manifolds-zero-multiplicity", _zero_multiplicity, _first_of("book5", _bump_dims)),
    Check("manifolds-verdicts", _verdicts, _first_of("k4", _flip_verdict)),
    Check("manifolds-c3-closed-stable", _c3_closed_stable, _first_of("c3", _open_curve)),
    Check("manifolds-k4-both-verdicts", _k4_both, _first_of("k4", _all_unstable)),
    Check("manifolds-book5-dimension", _book_dimension, _first_of("book5", _bump_dims)),
]


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def collect_trajectories(wl) -> dict:
    from workloads import CUBIC_UP
    trajs = []
    for t in wl.inputs["trajectories"]:
        table = np.loadtxt(t["csv"], delimiter=",", skiprows=1, ndmin=2)
        rep = load_report(t["report"])
        trajs.append({"n": t["n"], "edges": t["edges"], "x0": t["x0"],
                      "times": table[:, 0], "states": table[:, 1:1 + t["n"]],
                      "converged": rep["converged"],
                      "final_state": np.array(rep["final_state"])})
    basins = {k: load_report(p)["report"]["return_fraction"]
              for k, p in wl.inputs["basins"].items()}
    return {"trajectories": trajs, "basins": basins, "spec": CUBIC_UP,
            "t_end": wl.inputs["t_end"]}


def _conservation(data):
    for i, t in enumerate(data["trajectories"]):
        drift = np.abs(t["states"].sum(axis=1) - t["x0"].sum())
        bound = 1e-8 * data["t_end"] * float(np.max(np.abs(t["x0"])))
        require(np.array_equal(t["states"][0], t["x0"]) and drift.max() <= bound,
                f"trajectory {i}: component sum drifts by {drift.max():.3e}")


def _energy_monotone(data):
    g = coupling(data["spec"])[2]
    for i, t in enumerate(data["trajectories"]):
        E = g(t["states"] @ incidence(t["n"], t["edges"])).sum(axis=1)
        rise = float(np.max(np.diff(E), initial=0.0))
        require(rise <= MONO_TOL * (1 + abs(E[0])),
                f"trajectory {i}: energy rises by {rise:.3e}")


def _consensus(data):
    for i, t in enumerate(data["trajectories"]):
        end = t["final_state"]
        require(t["converged"] and np.array_equal(end, t["states"][-1])
                and np.max(np.abs(end - end.mean())) <= 1e-6,
                f"trajectory {i}: endpoint is not consensus")
        require(t["times"][-1] <= data["t_end"], f"trajectory {i}: ran past t_end")


def _basins(data):
    b = data["basins"]
    require(b["k4-sin-stable"] == 1.0 and b["c3-cubic-unstable"] == 0.0,
            f"basin return fractions {b}")


def _kick_state(data):
    data["trajectories"][0]["states"][1, 0] += 1e-3


def _reheat(data):
    t = data["trajectories"][0]
    t["states"][-2] = t["x0"]    # same component sum, higher energy


def _move_end(data):
    data["trajectories"][0]["final_state"][0] += 1e-3


def _leak_basin(data):
    data["basins"]["k4-sin-stable"] = 0.95


TRAJECTORIES = [
    Check("trajectories-conservation", _conservation, _kick_state),
    Check("trajectories-energy-monotone", _energy_monotone, _reheat),
    Check("trajectories-consensus", _consensus, _move_end),
    Check("trajectories-basin-fractions", _basins, _leak_basin),
]


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def collect_bounds(wl, outputs) -> dict:
    from oddcoupling import build_graph, enumerate_cycles
    graphs = []
    for g in wl.inputs["graphs"]:
        rep = load_report(g["report"])["report"]
        graphs.append({**g, "report": rep,
                       "cycles": len(enumerate_cycles(build_graph(g["edges"], n=g["n"])))})
    return {"graphs": graphs, "budget": outputs[-1],
            "budget_size": wl.inputs["budget_ladder"]["size"]}


def _nx_graph(g):
    import networkx as nx
    G = nx.Graph()
    G.add_nodes_from(range(g["n"]))
    G.add_edges_from(g["edges"])
    return G


def _dim_h1(data):
    import networkx as nx
    for g in data["graphs"]:
        G = _nx_graph(g)
        dim = G.number_of_edges() - G.number_of_nodes() + nx.number_connected_components(G)
        require(g["report"]["dim_H1"] == dim,
                f"{g['family']}{g['size']}: dim_H1 {g['report']['dim_H1']}, networkx {dim}")


def _cycle_count(data):
    import networkx as nx
    for g in data["graphs"]:
        cycles = sum(1 for _ in nx.simple_cycles(_nx_graph(g)))
        require(g["cycles"] == cycles,
                f"{g['family']}{g['size']}: {g['cycles']} simple cycles, networkx {cycles}")


def _chain(data):
    for g in data["graphs"]:
        rep = g["report"]
        cc = g["size"] if g["family"] == "ladder" else g["size"] - 1
        require(rep["cc_exact"] and rep["cc"] == cc
                and rep["bounds"]["chain_bound"] == rep["dim_H1"] - cc + 1,
                f"{g['family']}{g['size']}: cc {rep['cc']}, expected {cc}")


def _bump_first(*keys):
    def corrupt(data):
        target = data["graphs"][0]
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] += 1
    return corrupt


def _budget_ladder_ran(data):
    """The budgeted search must return a report, not raise."""
    b = data["budget"]
    require("error" not in b, f"ladder{data['budget_size']}: {b.get('error')}")


def _budget_ladder(data):
    """An inexact cc is a lower bound, so it lies in [1, cells]; once the
    chain search finishes within its budget, cc must equal the cell count."""
    b, size = data["budget"], data["budget_size"]
    require(b.get("cc") == size if not b["failed"] else 1 <= b.get("cc", 0) <= size,
            f"ladder{size}: cc {b.get('cc')}, exact {not b['failed']}")


def _crashed(data):
    data["budget"] = {"failed": True, "error": "RuntimeError: corrupted"}


def _exact_but_wrong(data):
    data["budget"] = {"failed": False, "cc": data["budget_size"] + 1}


BOUNDS = [
    Check("bounds-dim-h1", _dim_h1, _bump_first("report", "dim_H1")),
    Check("bounds-cycle-count", _cycle_count, _bump_first("cycles")),
    Check("bounds-cycle-chain", _chain, _bump_first("report", "cc")),
    Check("bounds-budget-ladder-ran", _budget_ladder_ran, _crashed),
    Check("bounds-budget-ladder-cc", _budget_ladder, _exact_but_wrong),
]


def _rounds_identical(data):
    first = data["rounds"][0]
    require(all(r == first for r in data["rounds"]),
            "a round wrote reports that differ from the first round's")


def _one_digest_changed(data):
    """A further round whose first report differs: the check must reject it
    even when the run had a single round."""
    changed = dict(data["rounds"][0])
    path = next(iter(changed))
    changed[path] = "0" * 64
    data["rounds"].append(changed)


ROUNDS_IDENTICAL = Check("rounds-byte-identical", _rounds_identical, _one_digest_changed)


def checks_for(wl, outputs):
    """(checks, data) of a workload, from the last round's outputs."""
    if wl.name == "atlas":
        return ATLAS, collect_atlas(wl)
    if wl.name == "manifolds":
        return MANIFOLDS, collect_manifolds(wl, outputs)
    if wl.name == "trajectories":
        return TRAJECTORIES, collect_trajectories(wl)
    return BOUNDS, collect_bounds(wl, outputs)
