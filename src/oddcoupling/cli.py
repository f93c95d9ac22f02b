"""Command-line interface.

Subcommands: bounds, solve, continue, stability, simulate, basin, cover,
blocks, corpus. Reports are deterministic JSON (fixed seed, fixed float
formatting); CSV is emitted only for plot-bound tabular data.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, continuation, corpus, coverings, equilibria, homology, jsonio
from . import simulate as simulate_mod
from . import stability as stability_mod
from .coupling import CouplingFunction, coupling_from_dict
from .defaults import (
    CONTINUATION_STEP,
    DEFAULT_SEED,
    EQ_TOL_SCALE,
    ODE_ATOL,
    ODE_RTOL,
    ODE_T_END,
    ZERO_TOL_SCALE,
)
from .errors import NumericalError, ValidationError
from .graphs import Graph, graph_from_dict, graph_to_dict, incidence_rank, parse_edge_list


@dataclass
class RunConfig:
    """Everything that determines a run's output, echoed into every report."""

    command: str
    graph_source: str | None = None
    coupling_source: str | None = None
    seed: int = DEFAULT_SEED
    eq_tol_scale: float = EQ_TOL_SCALE
    zero_tol_scale: float = ZERO_TOL_SCALE
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "graph": self.graph_source,
            "coupling": self.coupling_source,
            "seed": self.seed,
            # always 1: the program is serial, and the key keeps the report layout
            "threads": 1,
            "eq_tol_scale": self.eq_tol_scale,
            "zero_tol_scale": self.zero_tol_scale,
            **self.extras,
        }


def read_input(path: str, parse=json.loads):
    """``parse`` of a file's text; a file that cannot be read or parsed is invalid input."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ArithmeticError, AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"invalid input file {path}: {exc}") from exc


def load_graph(path: str) -> Graph:
    def parse(text):
        if path.endswith(".json") or text.lstrip().startswith("{"):
            return graph_from_dict(json.loads(text))
        return parse_edge_list(text)
    return read_input(path, parse)


def load_coupling(path: str) -> CouplingFunction:
    return read_input(path, lambda text: coupling_from_dict(json.loads(text)))


def parse_values(text: str, cast, what: str) -> list:
    """Comma-separated values, or the JSON list in the file named after '@'."""
    vals = read_input(text[1:]) if text.startswith("@") else text.split(",")
    try:
        return [cast(v) for v in vals]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} {text!r}: {exc}") from exc


def parse_point(text: str, n: int) -> np.ndarray:
    x = np.array(parse_values(text, float, "point"), dtype=float)
    if x.shape != (n,):
        raise ValidationError(f"point has length {x.size}, graph has {n} vertices")
    return x


def emit(report: dict, out: str | None) -> None:
    text = jsonio.dumps(report)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def positive_float(text: str) -> float:
    v = float(text)
    if not (v > 0 and math.isfinite(v)):
        raise argparse.ArgumentTypeError(f"{text!r} must be positive and finite")
    return v


def positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be a positive integer")
    return v


def non_negative_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be a non-negative integer")
    return v


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--graph", required=True, help="graph JSON or edge-list file")
    p.add_argument("--coupling", required=True, help="coupling JSON file")
    p.add_argument("--out", help="write the JSON report here (default stdout)")


def _add_t_zero(p: argparse.ArgumentParser):
    p.add_argument("--t-zero", type=positive_float, default=ZERO_TOL_SCALE,
                   help="zero-eigenvalue scale (default %(default)g)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ocl",
        description="equilibrium geometry and stability for graph dynamical "
                    "systems with odd analytic coupling")
    ap.add_argument("--version", action="version", version=f"ocl {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="homology dimension bounds")
    _add_common(p)
    p.add_argument("--t-rank", type=positive_float, default=None,
                   help="singular-value cutoff override for the incidence rank")
    p.add_argument("--cap", type=positive_int, default=10_000, help="simple-cycle cap")

    p = sub.add_parser("solve", help="multistart equilibrium atlas")
    _add_common(p)
    p.add_argument("--starts", type=positive_int, default=500)
    p.add_argument("--seed", type=non_negative_int, default=DEFAULT_SEED)
    p.add_argument("--box", type=positive_float, default=3.5,
                   help="start box half-width")
    p.add_argument("--max-iter", type=positive_int, default=80)

    p = sub.add_parser("continue", help="trace or sample a manifold of equilibria")
    _add_common(p)
    _add_t_zero(p)
    p.add_argument("--point", required=True, help="start point: 'a,b,...' or @file")
    p.add_argument("--mode", choices=("curve", "surface"), default="curve")
    p.add_argument("--step", type=positive_float, default=CONTINUATION_STEP)
    p.add_argument("--direction", type=int, help="curve: kernel direction (default 0)")
    p.add_argument("--max-steps", type=positive_int, help="curve: step budget (default 400)")
    p.add_argument("--budget", type=positive_int, help="surface: point budget (default 400)")
    p.add_argument("--csv", help="write per-point CSV here")
    p.add_argument("--spectrum-csv", help="write eigenvalues along the sample here")

    p = sub.add_parser("stability", help="classify an equilibrium")
    _add_common(p)
    p.add_argument("--t-eq", type=positive_float, default=EQ_TOL_SCALE,
                   help="equilibrium residual scale (default %(default)g)")
    _add_t_zero(p)
    p.add_argument("--point", required=True)
    p.add_argument("--local-dim", type=positive_int, default=None,
                   help="verified manifold dimension at the point, if known")

    p = sub.add_parser("simulate", help="integrate the flow")
    _add_common(p)
    p.add_argument("--x0", required=True, help="initial state: 'a,b,...' or @file")
    p.add_argument("--t-end", type=positive_float, default=ODE_T_END)
    p.add_argument("--rtol", type=positive_float, default=ODE_RTOL)
    p.add_argument("--atol", type=positive_float, default=ODE_ATOL)
    p.add_argument("--csv", help="write the trajectory CSV here")

    p = sub.add_parser("basin", help="empirical stability probe")
    _add_common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--radius", type=positive_float, default=0.1)
    p.add_argument("--trials", type=positive_int, default=20)
    p.add_argument("--seed", type=non_negative_int, default=DEFAULT_SEED)
    p.add_argument("--t-end", type=positive_float, default=50.0)

    p = sub.add_parser("cover", help="covering maps between two graphs")
    cover_sub = p.add_subparsers(dest="cover_command", required=True)
    for name in ("check", "find", "lift"):
        q = cover_sub.add_parser(name)
        q.add_argument("--graph", required=True, help="covering graph G")
        q.add_argument("--target", required=True, help="covered graph H")
        q.add_argument("--out")
        if name != "find":
            q.add_argument("--phi", required=True,
                           help="vertex map: 'h0,h1,...' or @file")
        else:
            q.add_argument("--cap", type=positive_int, default=10_000)
        if name == "lift":
            q.add_argument("--coupling", required=True)
            q.add_argument("--point", required=True,
                           help="equilibrium on the target graph")

    p = sub.add_parser("blocks", help="block decomposition, optionally with stability")
    p.add_argument("--graph", required=True)
    p.add_argument("--coupling")
    p.add_argument("--point")
    p.add_argument("--out")
    _add_t_zero(p)

    p = sub.add_parser("corpus", help="bundled example scenarios")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list")
    q = corpus_sub.add_parser("run")
    q.add_argument("name")
    q.add_argument("--out")
    corpus_sub.add_parser("run-all").add_argument("--out")

    return ap


def _cmd_bounds(args) -> int:
    G = load_graph(args.graph)
    f = load_coupling(args.coupling)
    rep = homology.dimension_bounds(G, f, cap=args.cap)
    config = RunConfig("bounds", args.graph, args.coupling,
                       extras={"cap": args.cap, "t_rank": args.t_rank})
    emit({"config": config.to_dict(), "graph": graph_to_dict(G),
          "incidence_rank": incidence_rank(G, tol=args.t_rank),
          "report": rep.to_dict()}, args.out)
    return 0


def _cmd_solve(args) -> int:
    G = load_graph(args.graph)
    f = load_coupling(args.coupling)
    atlas = equilibria.multistart_atlas(
        G, f, n_starts=args.starts, seed=args.seed, box_radius=args.box,
        max_iter=args.max_iter)
    config = RunConfig("solve", args.graph, args.coupling, seed=args.seed,
                       extras={"starts": args.starts, "box": args.box})
    emit({"config": config.to_dict(), "atlas": atlas.to_dict()}, args.out)
    return 0


def _cmd_continue(args) -> int:
    if args.mode == "curve":
        run_mode = continuation.trace_curve
        other = {"--budget": args.budget}
        kwargs = {"direction_index": args.direction, "max_steps": args.max_steps}
    else:
        run_mode = continuation.sample_manifold
        other = {"--direction": args.direction, "--max-steps": args.max_steps}
        kwargs = {"budget": args.budget}
    given = [flag for flag, value in other.items() if value is not None]
    if given:
        raise ValidationError(f"{', '.join(given)}: not a --mode {args.mode} flag")
    G = load_graph(args.graph)
    f = load_coupling(args.coupling)
    p0 = equilibria.equilibrium_point(G, f, parse_point(args.point, G.n))
    sample = run_mode(G, f, p0, step=args.step, zero_scale=args.t_zero,
                      **{k: v for k, v in kwargs.items() if v is not None})
    if args.csv:
        rows = [[i] + list(p.x) + [d, int(i in sample.singular_flags)]
                for i, (p, d) in enumerate(zip(sample.points, sample.local_dim))]
        write_csv(args.csv, ["index"] + [f"x{v}" for v in range(G.n)]
                  + ["local_dim", "singular"], rows)
    if args.spectrum_csv:
        rows = [[i] + list(stability_mod.Spectrum.at(G, f, p.x).values)
                for i, p in enumerate(sample.points)]
        write_csv(args.spectrum_csv,
                  ["index"] + [f"lambda{j}" for j in range(G.n)], rows)
    config = RunConfig("continue", args.graph, args.coupling,
                       zero_tol_scale=args.t_zero,
                       extras={"mode": args.mode, "step": args.step})
    emit({"config": config.to_dict(), "sample": sample.to_dict()}, args.out)
    return 0


def _cmd_stability(args) -> int:
    G = load_graph(args.graph)
    f = load_coupling(args.coupling)
    x = parse_point(args.point, G.n)
    p = equilibria.equilibrium_point(G, f, x)
    if not p.accepted(args.t_eq):
        raise ValidationError(f"residual {p.residual:.3e}: not an equilibrium "
                              f"at the requested tolerance")
    rep = stability_mod.classify(G, f, p, local_dim=args.local_dim,
                                 zero_scale=args.t_zero)
    membership = equilibria.membership_tests(G, f, p)
    config = RunConfig("stability", args.graph, args.coupling,
                       eq_tol_scale=args.t_eq, zero_tol_scale=args.t_zero,
                       extras={"local_dim": args.local_dim})
    emit({"config": config.to_dict(), "report": rep.to_dict(),
          "membership": membership.to_dict()}, args.out)
    return 0


def _cmd_simulate(args) -> int:
    G = load_graph(args.graph)
    f = load_coupling(args.coupling)
    x0 = parse_point(args.x0, G.n)
    traj = simulate_mod.integrate(G, f, x0, t_end=args.t_end,
                                  rtol=args.rtol, atol=args.atol)
    if args.csv:
        rows = [[t] + list(x) + [e]
                for t, x, e in zip(traj.times, traj.states, traj.energies)]
        write_csv(args.csv, ["t"] + [f"x{v}" for v in range(G.n)] + ["energy"], rows)
    config = RunConfig("simulate", args.graph, args.coupling,
                       extras={"t_end": args.t_end, "rtol": args.rtol,
                               "atol": args.atol})
    report = {
        "config": config.to_dict(),
        "samples": len(traj.times),
        "t_final": float(traj.times[-1]),
        "conserved_drift": traj.conserved_drift,
        "energy_initial": float(traj.energies[0]),
        "energy_final": float(traj.energies[-1]),
        "converged": traj.converged,
        "final_state": list(traj.final_state()),
    }
    if traj.converged_to is not None:
        report["converged_to"] = {
            "x": list(traj.converged_to.x),
            "residual": traj.converged_to.residual,
        }
    emit(report, args.out)
    return 0


def _cmd_basin(args) -> int:
    G = load_graph(args.graph)
    f = load_coupling(args.coupling)
    x = parse_point(args.point, G.n)
    p = equilibria.equilibrium_point(G, f, x)
    rep = simulate_mod.basin_sample(G, f, p, radius=args.radius,
                                    trials=args.trials, seed=args.seed,
                                    t_end=args.t_end)
    config = RunConfig("basin", args.graph, args.coupling, seed=args.seed,
                       extras={"radius": args.radius, "trials": args.trials})
    emit({"config": config.to_dict(), "report": rep.to_dict()}, args.out)
    return 0


def _cmd_cover(args) -> int:
    G = load_graph(args.graph)
    H = load_graph(args.target)
    if args.cover_command == "check":
        phi = parse_values(args.phi, int, "--phi")
        plain = coverings.is_covering(phi, G, H)
        ok, degrees = coverings.is_generalized_covering(phi, G, H)
        report = {
            "phi": list(phi),
            "is_covering": plain,
            "is_generalized_covering": ok,
        }
        if ok:
            report["fiber_degrees"] = list(degrees)
            report["external_equitable"] = len(set(degrees)) == 1
        emit(report, args.out)
        return 0
    if args.cover_command == "find":
        maps = coverings.find_generalized_coverings(G, H, cap=args.cap)
        emit({"count": len(maps), "maps": [m.to_dict() for m in maps]}, args.out)
        return 0
    # lift
    f = load_coupling(args.coupling)
    phi = coverings.validated_vertex_map(parse_values(args.phi, int, "--phi"), G, H)
    y = parse_point(args.point, H.n)
    y_point = equilibria.equilibrium_point(H, f, y)
    lifted = coverings.lift_equilibrium(phi, y_point, G, H, f)
    emit({
        "phi": phi.to_dict(),
        "target_point": {"x": list(y_point.x), "residual": y_point.residual},
        "lifted": {"x": list(lifted.x), "residual": lifted.residual},
    }, args.out)
    return 0


def _cmd_blocks(args) -> int:
    from .graphs import block_decomposition
    if bool(args.coupling) != bool(args.point):
        raise ValidationError("blocks takes --coupling and --point together")
    G = load_graph(args.graph)
    decomp = block_decomposition(G)
    report: dict = {
        "graph": graph_to_dict(G),
        "blocks": [list(b) for b in decomp.blocks],
        "block_edges": [list(e) for e in decomp.block_edges],
        "cut_vertices": list(decomp.cut_vertices),
    }
    if args.point:
        f = load_coupling(args.coupling)
        x = parse_point(args.point, G.n)
        rep = stability_mod.block_stability(G, f, x, zero_scale=args.t_zero)
        report["stability"] = rep.to_dict()
    emit(report, args.out)
    return 0


def _cmd_corpus(args) -> int:
    if args.corpus_command == "list":
        for name in sorted(corpus.REGISTRY):
            print(f"{name:18s} {corpus.REGISTRY[name].description}")
        return 0
    if args.corpus_command == "run":
        reports = [corpus.run_example(args.name)]
    else:
        reports = corpus.run_all()
    failures = 0
    for rep in reports:
        for check in rep.checks:
            status = "PASS" if check.passed else "FAIL"
            failures += 0 if check.passed else 1
            print(f"[{status}] {rep.name:16s} {check.check:28s} {check.description}")
    if args.out:
        emit({"reports": [r.to_dict() for r in reports]}, args.out)
    print(f"{sum(len(r.checks) for r in reports)} checks, {failures} failures")
    return 0 if failures == 0 else 3


_HANDLERS = {
    "bounds": _cmd_bounds,
    "solve": _cmd_solve,
    "continue": _cmd_continue,
    "stability": _cmd_stability,
    "simulate": _cmd_simulate,
    "basin": _cmd_basin,
    "cover": _cmd_cover,
    "blocks": _cmd_blocks,
    "corpus": _cmd_corpus,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # overflow and NaN are caught by explicit finiteness checks and
        # LinAlgError, which decide the exit code; numpy's warnings would
        # only print before the message. A warnings filter costs nothing
        # until a warning fires; np.errstate adds to every ufunc call, and
        # the integrator makes millions of them.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return _HANDLERS[args.command](args)
    except (ValidationError, OSError) as exc:  # OSError: an unwritable output file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
