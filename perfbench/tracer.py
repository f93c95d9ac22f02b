"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each ``oddcoupling``
module (and the coupling classes' evaluation methods) with timing and
counting wrappers, in every module namespace that holds them, and
``uninstall`` puts the originals back. The program's files are not touched.

Each wrapped call adds to a per-key count and time; calls of the coarse
layers also leave a span (name, start, end, parent) for the trace file.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, function, record a span) for timed module functions
TIMED = [
    ("equilibria", "multistart_atlas", True),
    ("equilibria", "newton_solve", False),
    ("stability", "classify", False),
    ("continuation", "trace_curve", True),
    ("continuation", "sample_manifold", True),
    ("continuation", "local_dimension", False),
    ("simulate", "integrate", True),
    ("simulate", "solve_ivp", False),
    ("simulate", "basin_sample", True),
    ("homology", "dimension_bounds", True),
    ("homology", "cycle_chain_number", False),
    ("homology", "_enumerate_up_to", False),
    ("cli", "load_graph", False),
    ("cli", "load_coupling", False),
    ("jsonio", "dumps", False),
]
# counted only: called so often that a clock read per call would dominate
COUNTED = [("equilibria", "points_equivalent"), ("stability", "hessian")]
COUPLING_CLASSES = ("OddPolynomial", "SineCombination", "SineSeries")
COUPLING_METHODS = ("__call__", "deriv", "deriv2", "primitive")

# (name, unit, better) of every per-layer metric, as listed in BENCHMARK.json
PER_LAYER = [
    ("equilibria.newton_calls", "count", "lower"),
    ("equilibria.newton_failed", "count", "lower"),
    ("equilibria.newton_s", "s", "lower"),
    ("equilibria.dedup_s", "s", "lower"),
    ("equilibria.dedup_compares", "count", "lower"),
    ("equilibria.kept", "count", "higher"),
    ("coupling.calls", "count", "lower"),
    ("coupling.s", "s", "lower"),
    ("coupling.values_per_call", "count/call", "higher"),
    ("stability.hessians", "count", "lower"),
    ("stability.hessians_per_point", "count/point", "lower"),
    ("stability.classify_s", "s", "lower"),
    ("continuation.points", "count", "higher"),
    ("continuation.trace_s", "s", "lower"),
    ("continuation.sample_s", "s", "lower"),
    ("continuation.local_dimension_s", "s", "lower"),
    ("continuation.ms_per_point", "ms", "lower"),
    ("simulate.integrate_s", "s", "lower"),
    ("simulate.solver_s", "s", "lower"),
    ("simulate.rhs_evals", "count", "lower"),
    ("simulate.samples", "count", "lower"),
    ("simulate.post_s", "s", "lower"),
    ("simulate.polish_calls", "count", "lower"),
    ("simulate.basin_s", "s", "lower"),
    ("homology.cycles", "count", "higher"),
    ("homology.enumerate_s", "s", "lower"),
    ("homology.chain_s", "s", "lower"),
    ("homology.exact", "count", "higher"),
    ("cli.load_s", "s", "lower"),
    ("jsonio.dumps_s", "s", "lower"),
    ("jsonio.report_bytes", "B", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.secs = defaultdict(float)
        self.stack: list[str] = []
        self.spans: list[dict] = []
        self._open_spans: list[int] = []
        self.extra = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        import oddcoupling
        from oddcoupling import coupling
        mods = {name: mod for name, mod in sys.modules.items()
                if name.startswith("oddcoupling.")}
        mods["oddcoupling"] = oddcoupling
        for modname, fname, span in TIMED:
            # a layer renamed away reads 0 rather than stopping the run
            orig = getattr(mods[f"oddcoupling.{modname}"], fname, None)
            if orig is not None:
                self._replace(mods, orig, self._timed(f"{modname}.{fname}", span))
        for modname, fname in COUNTED:
            self._replace(mods, getattr(mods[f"oddcoupling.{modname}"], fname),
                          self._counted(f"{modname}.{fname}"))
        for cls_name in COUPLING_CLASSES:
            cls = getattr(coupling, cls_name)
            for meth in COUPLING_METHODS:
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._coupling(orig))

    def _replace(self, mods, orig, make):
        wrapper = make(orig)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- wrappers -----------------------------------------------------------

    def _timed(self, key, span):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = self._open(key) if span else None
                self.stack.append(key)
                t0 = perf_counter()
                ok = False
                try:
                    out = fn(*args, **kwargs)
                    ok = True
                    return out
                finally:
                    t1 = perf_counter()
                    self.stack.pop()
                    self.calls[key] += 1
                    self.secs[key] += t1 - t0
                    if ok:
                        self._observe(key, out, t1 - t0)
                    else:
                        self.extra[f"{key}.raised"] += 1
                    if span:
                        self._close(sid)
            return wrapper
        return make

    def _open(self, name) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "parent": self._open_spans[-1]
                           if self._open_spans else None, "start": perf_counter()})
        self._open_spans.append(sid)
        return sid

    def _close(self, sid):
        self._open_spans.pop()
        self.spans[sid]["end"] = perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        """A span around one of the benchmark's own operations."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _counted(self, key):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _coupling(self, fn):
        @functools.wraps(fn)
        def wrapper(obj, x, *args, **kwargs):
            t0 = perf_counter()
            out = fn(obj, x, *args, **kwargs)
            self.secs["coupling"] += perf_counter() - t0
            self.calls["coupling"] += 1
            self.extra["coupling.values"] += np.size(x)
            return out
        return wrapper

    def _observe(self, key, out, dt):
        """Counts read from a call's result, and time attributed to the
        enclosing layer."""
        inside = set(self.stack)
        if key == "equilibria.newton_solve":
            if "equilibria.multistart_atlas" in inside:
                self.secs["atlas.newton"] += dt
            if "simulate.integrate" in inside:
                self.extra["polish"] += 1
        elif key == "equilibria.multistart_atlas":
            self.extra["kept"] += len(out.points)
        elif key in ("continuation.trace_curve", "continuation.sample_manifold"):
            self.extra["points"] += len(out.points)
        elif key == "simulate.solve_ivp":
            self.extra["rhs_evals"] += int(out.nfev)
        elif key == "simulate.integrate":
            self.extra["samples"] += len(out.times)
        elif key == "homology._enumerate_up_to":
            self.extra["cycles"] += len(out[0])
        elif key == "homology.dimension_bounds":
            self.extra["exact"] += int(out.cc_exact)
        elif key == "jsonio.dumps":
            self.extra["report_bytes"] += len(out.encode())

    # -- results ------------------------------------------------------------

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Per-round layer figures, named as in BENCHMARK.json."""
        c, s, x = self.calls, self.secs, self.extra
        newton_failed = x["equilibria.newton_solve.raised"]
        points = x["points"]
        hessians = c["stability.hessian"]
        pe = s["continuation.trace_curve"] + s["continuation.sample_manifold"]
        raw = {
            "equilibria.newton_calls": c["equilibria.newton_solve"],
            "equilibria.newton_failed": newton_failed,
            "equilibria.newton_s": s["equilibria.newton_solve"],
            "equilibria.dedup_s": s["equilibria.multistart_atlas"] - s["atlas.newton"],
            "equilibria.dedup_compares": c["equilibria.points_equivalent"],
            "equilibria.kept": x["kept"],
            "coupling.calls": c["coupling"],
            "coupling.s": s["coupling"],
            "stability.hessians": hessians,
            "stability.classify_s": s["stability.classify"],
            "continuation.points": points,
            "continuation.trace_s": s["continuation.trace_curve"],
            "continuation.sample_s": s["continuation.sample_manifold"],
            "continuation.local_dimension_s": s["continuation.local_dimension"],
            "simulate.integrate_s": s["simulate.integrate"],
            "simulate.solver_s": s["simulate.solve_ivp"],
            "simulate.rhs_evals": x["rhs_evals"],
            "simulate.samples": x["samples"],
            "simulate.post_s": s["simulate.integrate"] - s["simulate.solve_ivp"],
            "simulate.polish_calls": x["polish"],
            "simulate.basin_s": s["simulate.basin_sample"],
            "homology.cycles": x["cycles"],
            "homology.enumerate_s": s["homology._enumerate_up_to"],
            "homology.chain_s": (s["homology.cycle_chain_number"]
                                 - s["homology._enumerate_up_to"]),
            "homology.exact": x["exact"],
            "cli.load_s": s["cli.load_graph"] + s["cli.load_coupling"],
            "jsonio.dumps_s": s["jsonio.dumps"],
            "jsonio.report_bytes": x["report_bytes"],
        }
        out = {k: v / rounds for k, v in raw.items()}
        out["coupling.values_per_call"] = (x["coupling.values"] / c["coupling"]
                                           if c["coupling"] else 0.0)
        out["stability.hessians_per_point"] = hessians / points if points else 0.0
        out["continuation.ms_per_point"] = 1000.0 * pe / points if points else 0.0
        return out
