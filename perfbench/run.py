"""Benchmark of the oddcoupling toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the workload's inputs from the seed,
repeats its fixed list of operations in whole rounds until S seconds have
passed, checks the outputs, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (median per round);
with ``--trace 1`` the program runs under the per-layer tracer and the
metrics are the per-layer ones. Full results and the trace are written under
``perfbench/out/``. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3   # before the rounds, and as many again after them
PROBE_TIMEOUT = 60


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def prepare() -> None:
    """Work from the checkout root and import the program from its sources."""
    if not (ROOT / "src" / "oddcoupling" / "__init__.py").is_file():
        die(f"no oddcoupling sources under {ROOT / 'src'}; run from a full checkout")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))


def import_program() -> None:
    import oddcoupling.cli  # noqa: F401
    if Path(oddcoupling.__file__).resolve().parents[1] != ROOT / "src":
        die(f"imported oddcoupling from {oddcoupling.__file__}, not from this checkout")


def setup_probe(workload: str, seed: int) -> dict:
    """One fresh interpreter, timed from its start to the first operation
    being ready: interpreter start, importing the program, building the
    inputs."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        total = perf_counter() - t0
        proc.wait(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line:
        die(f"set-up probe exited with {proc.returncode}")
    return {"setup_s": total, **json.loads(line)}


def summarise_setup(probes) -> dict:
    """Medians over the probes, which are split between the start and the end
    of the run so that one slow phase of the machine moves fewer of them."""
    return {"setup_s": statistics.median(p["setup_s"] for p in probes),
            "import_s": statistics.median(p["import_s"] for p in probes),
            "inputs_s": statistics.median(p["inputs_s"] for p in probes),
            "probes_s": [p["setup_s"] for p in probes]}


def digest_files(paths) -> dict[str, str]:
    return {p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in paths if Path(p).exists()}


def run_round(wl, tracer) -> dict:
    """One pass over the operation list. Only the operations are timed; the
    digests taken between them are not."""
    wall = cpu = 0.0
    outputs, failed, op_s, digests = [], 0, {}, {}
    for op in wl.ops:
        with tracer.span(op.name) if tracer else contextlib.nullcontext():
            t0, c0 = perf_counter(), process_time()
            try:
                out = op.run()
            except (Exception, SystemExit) as exc:  # an operation that crashes has failed
                out = {"failed": True, "error": f"{type(exc).__name__}: {exc}"}
            dt, dc = perf_counter() - t0, process_time() - c0
        wall, cpu = wall + dt, cpu + dc
        op_s[op.name] = dt
        if out.get("failed"):
            failed += 1
            if "error" in out:
                print(f"perfbench: {op.name}: {out['error']}", file=sys.stderr)
        outputs.append(out)
        digests.update(digest_files(op.reports + op.files))
    return {"wall_s": wall, "cpu_s": cpu, "failed": failed, "op_s": op_s,
            "outputs": outputs, "digests": digests}


def verify(wl, rounds) -> list[dict]:
    import checks
    results = checks.run_checks([checks.ROUNDS_IDENTICAL],
                                {"rounds": [r["digests"] for r in rounds]})
    try:
        suite, data = checks.checks_for(wl, rounds[-1]["outputs"])
        results += checks.run_checks(suite, data)
    except Exception:  # missing or malformed output: the run is not correct
        results.append({"check": "outputs-readable", "passed": False,
                        "detail": traceback.format_exc()})
    return results


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    prepare()

    probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    import_program()
    wl = workloads.build(args.workload, args.seed)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    rounds = []
    start = perf_counter()
    try:
        while not rounds or perf_counter() - start < args.seconds:
            rounds.append(run_round(wl, tracer))
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = verify(wl, rounds)
    # after the checks: a probe rebuilds the inputs and clears the reports
    probes += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setup = summarise_setup(probes)
    correct = all(r["passed"] and r.get("self_test") for r in results)
    for r in results:
        if not (r["passed"] and r.get("self_test")):
            print(f"perfbench: check {r['check']} failed: {r}", file=sys.stderr)

    if tracer:
        from tracer import PER_LAYER
        values = {**tracer.per_layer(len(rounds)), "setup.import_s": setup["import_s"],
                  "setup.inputs_s": setup["inputs_s"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds),
                       "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
        }
    line = {"correct": correct, "attempted": len(rounds) * len(wl.ops),
            "failed": sum(r["failed"] for r in rounds), "metrics": metrics}

    out_dir = Path(workloads.OUT_DIR)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{stem}.json").write_text(json.dumps({
        **line, "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_cpu_s": [r["cpu_s"] for r in rounds],
        "op_s": rounds[0]["op_s"], "setup": setup, "checks": results,
        "cpu_count": os.cpu_count()}, indent=1))
    if tracer:
        (out_dir / f"trace-{stem}.json").write_text(json.dumps({
            "calls": tracer.calls, "seconds": tracer.secs, "counts": tracer.extra,
            "spans": tracer.spans}))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
