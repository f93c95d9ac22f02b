import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oddcoupling
from oddcoupling.cli import load_coupling, load_graph, run, write_csv
from oddcoupling.jsonio import dumps


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "k4.json").write_text(json.dumps(
        {"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}))
    (tmp_path / "book5.json").write_text(json.dumps(
        {"n": 7, "edges": [[0, 1]] + [[0, k] for k in range(2, 7)]
         + [[1, k] for k in range(2, 7)]}))
    (tmp_path / "edge.txt").write_text("# two-body\n0 1\n")
    (tmp_path / "sin.json").write_text(json.dumps(
        {"family": "sine_sum", "terms": {"1": 1.0}}))
    (tmp_path / "cubic.json").write_text(json.dumps(
        {"family": "odd_poly", "coeffs": [-1.0, 1.0]}))
    (tmp_path / "series.json").write_text(json.dumps(
        {"family": "sine_series", "P": math.pi, "terms": {"1": 1.0}}))
    return tmp_path


def test_bounds_book5(workdir):
    out = workdir / "report.json"
    code = run(["bounds", "--graph", str(workdir / "book5.json"),
                "--coupling", str(workdir / "series.json"), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["dim_H1"] == 5
    assert rep["cc"] == 2
    assert rep["bounds"]["chain_bound"] == 4


def test_bounds_text_graph(workdir):
    out = workdir / "r.json"
    code = run(["bounds", "--graph", str(workdir / "edge.txt"),
                "--coupling", str(workdir / "sin.json"), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["report"]["dim_H1"] == 0


def test_solve_deterministic(workdir):
    outs = []
    for name in ("a.json", "b.json"):
        out = workdir / name
        code = run(["solve", "--graph", str(workdir / "k4.json"),
                    "--coupling", str(workdir / "sin.json"),
                    "--starts", "60", "--seed", "7", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    atlas = json.loads(outs[0])["atlas"]
    assert atlas["n_starts"] == 60
    assert atlas["points"]


def test_stability_subcommand(workdir):
    out = workdir / "s.json"
    code = run(["stability", "--graph", str(workdir / "k4.json"),
                "--coupling", str(workdir / "sin.json"),
                "--point", "0,0,0,0", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["report"]["verdict"] == "linearly_stable_up_to_symmetry"
    assert rep["membership"]["passed"] is True


def test_stability_rejects_non_equilibrium(workdir, capsys):
    code = run(["stability", "--graph", str(workdir / "k4.json"),
                "--coupling", str(workdir / "sin.json"),
                "--point", "0,0.5,1.0,2.0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_simulate_with_csv(workdir):
    out = workdir / "t.json"
    csv_path = workdir / "traj.csv"
    code = run(["simulate", "--graph", str(workdir / "k4.json"),
                "--coupling", str(workdir / "sin.json"),
                "--x0", "0.1,0.5,-0.4,0.9", "--t-end", "50",
                "--csv", str(csv_path), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["converged"] is True
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,x0,x1,x2,x3,energy"


def test_continue_curve_with_csv(workdir):
    (workdir / "c3.json").write_text(json.dumps(
        {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    out = workdir / "m.json"
    csv_path = workdir / "curve.csv"
    spec_path = workdir / "spec.csv"
    code = run(["continue", "--graph", str(workdir / "c3.json"),
                "--coupling", str(workdir / "cubic.json"),
                "--point", "0,1,0", "--max-steps", "400",
                "--csv", str(csv_path), "--spectrum-csv", str(spec_path),
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["sample"]
    assert rep["closed"] is True
    assert csv_path.exists() and spec_path.exists()
    lines = spec_path.read_text().splitlines()
    assert lines[0] == "index,lambda0,lambda1,lambda2"
    assert len(lines) == len(rep["points"]) + 1


def _csv_bytes(path, header, rows):
    write_csv(str(path), header, rows)
    return path.read_bytes()


def test_csv_rows_of_floats_equal_numpy_scalar_rows(tmp_path):
    # csv writes a float, np.float64 included, as its repr
    table = np.array([[1e16, 1e-5, -0.0], [0.1, -2.5e-300, 1.0 / 3.0]])
    old = [[v for v in row] for row in table]
    assert all(type(v) is np.float64 for row in old for v in row)
    assert (_csv_bytes(tmp_path / "old.csv", ["a", "b", "c"], old)
            == _csv_bytes(tmp_path / "new.csv", ["a", "b", "c"], table.tolist()))
    assert (tmp_path / "new.csv").read_text().splitlines()[1] == "1e+16,1e-05,-0.0"


def test_simulate_csv_bytes_equal_numpy_scalar_rows(workdir):
    from oddcoupling.simulate import integrate
    x0 = [1e16, -0.0, 1e-5, 0.5]
    csv_path = workdir / "traj.csv"
    code = run(["simulate", "--graph", str(workdir / "k4.json"),
                "--coupling", str(workdir / "sin.json"), "--x0=1e16,-0.0,1e-5,0.5",
                "--t-end", "1", "--csv", str(csv_path), "--out", str(workdir / "t.json")])
    assert code == 0
    G, f = load_graph(str(workdir / "k4.json")), load_coupling(str(workdir / "sin.json"))
    traj = integrate(G, f, np.array(x0), t_end=1.0)
    old = [[t] + list(x) + [e] for t, x, e in zip(traj.times, traj.states, traj.energies)]
    header = ["t", "x0", "x1", "x2", "x3", "energy"]
    assert csv_path.read_bytes() == _csv_bytes(workdir / "old.csv", header, old)
    assert csv_path.read_text().splitlines()[1].startswith("0.0,1e+16,-0.0,1e-05,0.5,")


def test_continue_spectrum_csv_bytes_equal_numpy_scalar_rows(workdir):
    from oddcoupling import equilibrium_point, trace_curve
    from oddcoupling.stability import Spectrum
    (workdir / "c3.json").write_text(json.dumps(
        {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    spec_path = workdir / "spec.csv"
    code = run(["continue", "--graph", str(workdir / "c3.json"),
                "--coupling", str(workdir / "cubic.json"), "--point", "0,1,0",
                "--max-steps", "40", "--spectrum-csv", str(spec_path),
                "--out", str(workdir / "m.json")])
    assert code == 0
    G, f = load_graph(str(workdir / "c3.json")), load_coupling(str(workdir / "cubic.json"))
    sample = trace_curve(G, f, equilibrium_point(G, f, [0.0, 1.0, 0.0]), max_steps=40)
    old = [[i] + list(Spectrum.at(G, f, p.x).values) for i, p in enumerate(sample.points)]
    header = ["index", "lambda0", "lambda1", "lambda2"]
    assert spec_path.read_bytes() == _csv_bytes(workdir / "old.csv", header, old)


def test_basin_subcommand(workdir):
    out = workdir / "b.json"
    code = run(["basin", "--graph", str(workdir / "edge.txt"),
                "--coupling", str(workdir / "sin.json"),
                "--point", "0,0", "--radius", "0.1", "--trials", "5",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["return_fraction"] == 1.0
    assert rep["evidence"] == "empirical evidence"


@pytest.mark.parametrize("coeffs, point", [
    ([1.0, -1.0], "0,1"),   # x - x^3 at its unstable equilibrium y = 1
    ([0.0, -1.0], "0,0"),   # -x^3, whose every perturbation blows up
])
def test_basin_counts_escaping_trials(workdir, coeffs, point):
    # a trajectory that blows up in finite time is a trial that did not
    # return, with a null final distance, not a failed probe
    (workdir / "escape.json").write_text(json.dumps({"family": "odd_poly", "coeffs": coeffs}))
    out = workdir / "b.json"
    code = run(["basin", "--graph", str(workdir / "edge.txt"),
                "--coupling", str(workdir / "escape.json"), f"--point={point}",
                "--radius", "0.1", "--trials", "5", "--t-end", "50", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    finals = rep["final_distances"]
    assert None in finals and rep["return_fraction"] == 0.0
    finished = [d for d in finals if d is not None]
    assert rep["max_excursion"] == (max(finished) if finished else None)


def test_cover_check_and_find_and_lift(workdir):
    (workdir / "hex.json").write_text(json.dumps(
        {"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]}))
    (workdir / "tri.json").write_text(json.dumps(
        {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    out = workdir / "c.json"
    code = run(["cover", "check", "--graph", str(workdir / "hex.json"),
                "--target", str(workdir / "tri.json"),
                "--phi", "0,1,2,0,1,2", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["is_covering"] is True
    assert rep["is_generalized_covering"] is True

    code = run(["cover", "find", "--graph", str(workdir / "hex.json"),
                "--target", str(workdir / "tri.json"), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["count"] >= 6

    code = run(["cover", "lift", "--graph", str(workdir / "hex.json"),
                "--target", str(workdir / "tri.json"),
                "--phi", "0,1,2,0,1,2",
                "--coupling", str(workdir / "sin.json"),
                "--point", f"0,{math.pi},0", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["lifted"]["residual"] <= 1e-9


def test_cover_find_budget_exit_code(workdir, capsys):
    (workdir / "tri.json").write_text(json.dumps(
        {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    code = run(["cover", "find", "--graph", str(workdir / "tri.json"),
                "--target", str(workdir / "tri.json"), "--cap", "2"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_blocks_subcommand(workdir):
    (workdir / "bowtie.json").write_text(json.dumps(
        {"n": 5, "edges": [[0, 1], [1, 2], [2, 0], [0, 3], [3, 4], [4, 0]]}))
    out = workdir / "bl.json"
    code = run(["blocks", "--graph", str(workdir / "bowtie.json"),
                "--coupling", str(workdir / "sin.json"),
                "--point", "0,0,0,0,0", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert len(rep["blocks"]) == 2
    assert rep["cut_vertices"] == [0]
    assert rep["stability"]["combined_verdict"] == "linearly_stable_up_to_symmetry"


def test_blocks_coupling_without_point_exits_2(workdir, capsys):
    code = run(["blocks", "--graph", str(workdir / "k4.json"),
                "--coupling", str(workdir / "sin.json")])
    assert code == 2
    assert "--point" in capsys.readouterr().err


def test_blocks_t_zero_needs_point(workdir, capsys):
    code = run(["blocks", "--graph", str(workdir / "edge.txt"), "--t-zero", "1e-6"])
    assert code == 2
    assert "--t-zero: not a blocks flag without --point" in capsys.readouterr().err
    # with --point it is the scale in force, and the default when absent
    base = ["blocks", "--graph", str(workdir / "edge.txt"),
            "--coupling", str(workdir / "sin.json"), "--point", "0,0"]
    outs = [workdir / "default.json", workdir / "explicit.json"]
    assert run(base + ["--out", str(outs[0])]) == 0
    assert run(base + ["--t-zero", "1e-07", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_corpus_list(capsys):
    assert run(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert "k4-sin" in out and "cover7-cubic" in out


def test_corpus_run_single(workdir, capsys):
    out = workdir / "corpus.json"
    code = run(["corpus", "run", "p3-sin", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    rep = json.loads(out.read_text())
    assert rep["reports"][0]["passed"] is True


def test_validation_exit_code(workdir, capsys):
    code = run(["bounds", "--graph", str(workdir / "k4.json"),
                "--coupling", str(workdir / "k4.json")])  # not a coupling file
    assert code == 2


def test_json_float_format_round_trip():
    vals = [math.pi, 1 / 3, 1e-17, 123456.75, -0.0, 2.0]
    text = dumps({"vals": vals})
    back = json.loads(text)["vals"]
    assert back == vals


def test_json_escapes_strings_and_keys():
    obj = {'key "quoted"\nline': 'path\\with "quote"\ttab\x01', "plain": "été"}
    text = dumps(obj)
    assert json.loads(text) == obj
    assert '"plain": "été"' in text


@pytest.mark.parametrize("argv", [
    ["simulate", "--x0", "0,0,0,0", "--threads", "2"],
    ["simulate", "--x0", "0,0,0,0", "--t-zero", "1e-3"],
    ["solve", "--t-eq", "1e-3"],
    ["solve", "--threads", "2"],
    ["basin", "--point", "0,0,0,0", "--t-rank", "1e-3"],
    ["continue", "--point", "0,0,0,0", "--t-eq", "1e-3"],
    ["stability", "--point", "0,0,0,0", "--t-rank", "1e-3"],
    ["bounds", "--t-zero", "1e-3"],
    ["corpus", "run", "p3-sin", "--threads", "2"],
    ["corpus", "run-all", "--threads", "2"],
])
def test_removed_flag_exits_2(workdir, argv, capsys):
    if argv[0] != "corpus":
        argv = argv[:1] + ["--graph", str(workdir / "k4.json"),
                           "--coupling", str(workdir / "sin.json")] + argv[1:]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_stability_echoes_t_eq(workdir):
    out = workdir / "s.json"
    code = run(["stability", "--graph", str(workdir / "k4.json"),
                "--coupling", str(workdir / "sin.json"), "--point", "0,0,0,0",
                "--t-eq", "1e-6", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["config"]["eq_tol_scale"] == 1e-6


def test_continue_rejects_off_tolerance_start(workdir, capsys):
    (workdir / "c3.json").write_text(json.dumps(
        {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    code = run(["continue", "--graph", str(workdir / "c3.json"),
                "--coupling", str(workdir / "cubic.json"), "--point", "0,1.00001,0"])
    assert code == 2
    assert "start residual" in capsys.readouterr().err


def test_continue_rejects_other_mode_flags(workdir, capsys):
    (workdir / "c3.json").write_text(json.dumps(
        {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    base = ["continue", "--graph", str(workdir / "c3.json"),
            "--coupling", str(workdir / "cubic.json"), "--point", "0,1,0"]
    for mode, flags in [("curve", ["--budget", "3"]),
                        ("surface", ["--direction", "0"]),
                        ("surface", ["--max-steps", "3", "--budget", "20"])]:
        assert run(base + ["--mode", mode] + flags) == 2
        assert f"{flags[0]}: not a --mode {mode} flag" in capsys.readouterr().err
    # an absent mode flag keeps its default
    outs = [workdir / "default.json", workdir / "explicit.json"]
    assert run(base + ["--out", str(outs[0])]) == 0
    assert run(base + ["--max-steps", "400", "--direction", "0",
                       "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("flag, content, message", [
    ("--coupling", {"family": "odd_poly"}, "'coeffs'"),
    ("--coupling", {"family": "sine_series", "terms": {"1": 1.0}}, "'P'"),
    ("--coupling", [1, 2], "unknown coupling family"),
    ("--coupling", "{not json", "invalid input file"),
    ("--graph", '{"n": 2, "edges": [[0, 1]', "invalid input file"),
    ("--graph", None, "No such file"),
    ("--coupling", {"family": "sine_sum", "terms": {"a": 1}}, "invalid literal"),
    ("--coupling", {"family": "sine_sum", "terms": [1]}, "no attribute 'items'"),
    ("--coupling", {"family": "odd_poly", "coeffs": "x"}, "could not convert"),
    ("--graph", {"edges": 5}, "not iterable"),
    ("--graph", {"n": "x", "edges": [[0, 1]]}, "not supported between"),
    ("--out", None, "No such file"),
    ("--graph", {"n": 2.5, "edges": [[0, 1]]}, "n=2.5 is not an integer"),
    ("--graph", {"n": True, "edges": []}, "n=True is not an integer"),
    ("--graph", {"n": 3, "edges": [[True, 2], [0, 2]]}, "(True, 2) has non-integer endpoints"),
])
def test_malformed_input_file_exits_2(workdir, capsys, flag, content, message):
    # a file that is not written sits in a missing directory, so that it can
    # be neither read nor written
    bad = workdir / ("bad.json" if content is not None else "missing/bad.json")
    if content is not None:
        bad.write_text(content if isinstance(content, str) else json.dumps(content))
    paths = {"--graph": workdir / "k4.json", "--coupling": workdir / "sin.json", flag: bad}
    code = run(["bounds"] + [str(a) for item in paths.items() for a in item])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("point, message", [
    ("a,b,c,d", "could not convert"),
    ("@missing.json", "No such file"),
    ("@broken.json", "Expecting value"),
])
def test_malformed_point_exits_2(workdir, capsys, monkeypatch, point, message):
    monkeypatch.chdir(workdir)
    (workdir / "broken.json").write_text("[0, 0,")
    code = run(["stability", "--graph", "k4.json", "--coupling", "sin.json",
                "--point", point])
    assert code == 2
    assert message in capsys.readouterr().err


def test_malformed_phi_exits_2(workdir, capsys):
    (workdir / "tri.json").write_text(json.dumps(
        {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    code = run(["cover", "check", "--graph", str(workdir / "tri.json"),
                "--target", str(workdir / "tri.json"), "--phi", "0,x,2"])
    assert code == 2
    assert "--phi" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("stability", "--point"), ("simulate", "--x0")])
def test_bool_in_point_file_exits_2(workdir, capsys, monkeypatch, command, flag):
    # json reads true as a bool, which float would take as 1.0
    monkeypatch.chdir(workdir)
    (workdir / "bool.json").write_text("[0, true, 0, 0]")
    code = run([command, "--graph", "k4.json", "--coupling", "sin.json", flag, "@bool.json"])
    assert code == 2
    assert "true is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("phi, message", [
    ("[0, 1.7, 2]", "1.7 is not an integer"),
    ("[0, true, 2]", "true is not an integer"),
])
def test_phi_file_takes_integers_only(workdir, capsys, monkeypatch, phi, message):
    # int would take 1.7 from a file as 1, and true as 1; inline, "1.7" is
    # no int literal already
    monkeypatch.chdir(workdir)
    (workdir / "tri.json").write_text(json.dumps(
        {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    (workdir / "phi.json").write_text(phi)
    code = run(["cover", "check", "--graph", "tri.json", "--target", "tri.json",
                "--phi", "@phi.json"])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, content", [
    (["stability", "--graph", "k4.json", "--coupling", "sin.json", "--point"], '"0000"'),
    (["simulate", "--graph", "k4.json", "--coupling", "sin.json", "--t-end", "1", "--x0"],
     '{"0": 5, "1": 7, "2": 9, "3": 1}'),
    (["cover", "check", "--graph", "k4.json", "--target", "k4.json", "--phi"],
     '{"0": 5, "1": 7, "2": 9, "3": 1}'),
])
def test_values_file_must_hold_a_list(workdir, capsys, monkeypatch, argv, content):
    # a string would be read as its characters, and an object as its keys
    monkeypatch.chdir(workdir)
    (workdir / "values.json").write_text(content)
    assert run(argv + ["@values.json"]) == 2
    assert "the file must hold a JSON list" in capsys.readouterr().err


def run_module(argv, timeout=60):
    """``python -m oddcoupling.cli`` in a fresh interpreter, importing the
    package under test."""
    src = Path(oddcoupling.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "oddcoupling.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_module_entry_point():
    proc = run_module(["--version"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"ocl {oddcoupling.__version__}" == "ocl 0.1.0"


def test_bounds_and_blocks_on_a_long_path_never_build_the_operators(workdir):
    # neither command reads B, Bt or D, which a graph builds on first use;
    # built for every graph, the dense 5000 x 4999 B and Bt peaked at 387 MiB
    edges = [[i, i + 1] for i in range(4999)]
    (workdir / "path.json").write_text(json.dumps({"n": 5000, "edges": edges}))
    out = workdir / "report.json"
    for argv in (["bounds", "--graph", str(workdir / "path.json"),
                  "--coupling", str(workdir / "sin.json")],
                 ["blocks", "--graph", str(workdir / "path.json")]):
        tracemalloc.start()
        try:
            assert run(argv + ["--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20, argv[0]
        rep = json.loads(out.read_text())
        if argv[0] == "bounds":
            r = rep["report"]
            assert (r["dim_H1"], r["cc"], r["cc_exact"], rep["incidence_rank"]) == (0, 0, True, 4999)
        else:
            assert len(rep["blocks"]) == 4999 and len(rep["cut_vertices"]) == 4998


def test_bounds_on_the_4_cube_ends_at_the_node_cap(workdir):
    # the branch and bound finds cc = 8 but cannot prove it below U = 10;
    # CHAIN_NODE_CAP ends the search after about 3 s on 2 cores, where it
    # never ended before. A subprocess, so that a hang fails the test
    edges = [[v, v ^ 1 << b] for v in range(16) for b in range(4) if v < v ^ 1 << b]
    (workdir / "q4.json").write_text(json.dumps({"n": 16, "edges": edges}))
    proc = run_module(["bounds", "--graph", str(workdir / "q4.json"),
                       "--coupling", str(workdir / "sin.json")], timeout=60)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)["report"]
    assert rep["cc_exact"] is False and rep["cc"] >= 8


def test_cover_find_on_k16_ends_at_the_node_cap(workdir):
    # no partial map K16 -> K4 fails before the last vertex, which closes
    # every fiber test; COVERING_NODE_CAP ends the search after about 5 s on
    # 2 cores, where it never ended before. A subprocess, so that a hang
    # fails the test
    k16 = [[j, k] for j in range(16) for k in range(j + 1, 16)]
    (workdir / "k16.json").write_text(json.dumps({"n": 16, "edges": k16}))
    proc = run_module(["cover", "find", "--graph", str(workdir / "k16.json"),
                       "--target", str(workdir / "k4.json")], timeout=60)
    assert proc.returncode == 3
    assert "covering search reached" in proc.stderr


C3 = ["--graph", "c3.json", "--coupling", "cubic.json"]
P2 = ["--graph", "p2.json", "--coupling", "cubic.json"]


def write_extreme_inputs(workdir):
    """Graphs and couplings at the edge of the float range."""
    for name, data in [
            ("c3.json", {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}),
            ("p2.json", {"n": 2, "edges": [[0, 1]]}),
            ("star.json", {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}),
            ("huge.json", {"family": "odd_poly", "coeffs": [1e308, 1e300]}),
            ("overflow.json", {"family": "odd_poly", "coeffs": [1e308, 1e308]}),
            ("coeff_d2.json", {"family": "odd_poly", "coeffs": [1.0, 5e307]}),
            ("steep.json", {"family": "odd_poly", "coeffs": [1.0, 1e306]}),
            ("linear_huge.json", {"family": "odd_poly", "coeffs": [5e307]}),
            ("amp_d1.json", {"family": "sine_sum", "terms": {"3": 1e308}}),
            ("amp_d2.json", {"family": "sine_sum", "terms": {"3": 5e307}}),
            # 2a is finite, as the primitive needs, and 3a is not
            ("spike.json", {"family": "sine_sum", "terms": {"1": 8e307}}),
            ("amp_primitive.json", {"family": "sine_sum", "terms": {"1": 1e308}}),
            ("amp_sum.json", {"family": "sine_sum", "terms": {"1": 8.9e307, "2": 4.4e307}}),
            ("tiny_lead.json", {"family": "odd_poly", "coeffs": [1.0, 2.2250738585e-313]}),
            ("series_d2.json", {"family": "sine_series", "P": 1e-150, "terms": {"1": 1e10}}),
            ("p_inf.json", {"family": "sine_series", "P": math.inf, "terms": {"1": 1.0}}),
            ("p_tiny.json", {"family": "sine_series", "P": 1e-320, "terms": {"1": 1.0}}),
            ("amp_nan.json", {"family": "sine_sum", "terms": {"1": math.nan}}),
            ("coeff_inf.json", {"family": "odd_poly", "coeffs": [1.0, math.inf]})]:
        (workdir / name).write_text(json.dumps(data))


@pytest.mark.parametrize("argv, code, message", [
    (["simulate", *C3, "--x0=nan,0,0"], 2, "x0 must be finite"),
    (["simulate", *C3, "--x0=1e200,0,0", "--t-end", "1"], 3, "not finite"),
    (["solve", *C3, "--box", "inf"], 2, "must be positive and finite"),
    (["continue", *C3, "--point=0,1,0", "--step", "1e300"], 3,
     "the energy Hessian is not finite"),
    (["solve", "--graph", "c3.json", "--coupling", "huge.json"], 3,
     "the energy Hessian is not finite"),
    (["solve", *C3, "--starts", "0"], 2, "--starts"),
    (["solve", *C3, "--max-iter", "-1"], 2, "--max-iter"),
    (["basin", *C3, "--point", "0,0,0", "--trials", "-1"], 2, "--trials"),
    (["continue", *C3, "--point=0,1,0", "--max-steps", "-5"], 2, "--max-steps"),
    (["continue", *C3, "--point=0,1,0", "--mode", "surface", "--budget", "0"], 2,
     "--budget"),
    (["stability", *C3, "--point", "0,0,0", "--local-dim", "-1"], 2, "--local-dim"),
    (["bounds", *C3, "--cap", "0"], 2, "--cap"),
    (["cover", "find", "--graph", "c3.json", "--target", "c3.json", "--cap", "-1"], 2,
     "--cap"),
    (["solve", *C3, "--seed=-1"], 2, "--seed"),
    (["basin", *C3, "--point", "0,0,0", "--seed=-1"], 2, "--seed"),
    (["solve", *C3, "--box", "1e308"], 2, "2 * box overflows"),
    # non-finite coupling parameters (P = inf makes every frequency m pi / P zero)
    (["solve", "--graph", "c3.json", "--coupling", "p_inf.json", "--starts", "20"], 2,
     "half-period P must be positive and finite"),
    (["simulate", "--graph", "c3.json", "--coupling", "p_inf.json", "--x0=0.1,0,0"], 2,
     "half-period P must be positive and finite"),
    (["solve", "--graph", "c3.json", "--coupling", "p_tiny.json"], 2,
     "puts m pi / P out of range"),
    (["solve", "--graph", "c3.json", "--coupling", "amp_nan.json"], 2,
     "amplitude nan of harmonic 1 must be finite"),
    (["solve", "--graph", "c3.json", "--coupling", "coeff_inf.json"], 2,
     "coefficients [1.0, inf] must be finite"),
    # |F(x0)| over the error scale overflows, and the first step cannot be sized
    (["simulate", *C3, "--x0=1e52,0,0"], 3, "the first step cannot be sized"),
    # finite parameters whose f' or f'' coefficients overflow
    (["solve", "--graph", "c3.json", "--coupling", "overflow.json"], 2,
     "odd_poly coefficient 1e+308 of x^3 overflows f' or f''"),
    (["solve", "--graph", "c3.json", "--coupling", "amp_d1.json"], 2,
     "sine_sum amplitude 1e+308 of harmonic 3 overflows f' or f''"),
    (["solve", "--graph", "c3.json", "--coupling", "series_d2.json"], 2,
     "sine_series amplitude 10000000000.0 of harmonic 1 overflows f' or f''"),
    # x = 0 is an equilibrium of every odd coupling, yet no start reaches it
    (["solve", "--graph", "c3.json", "--coupling", "steep.json", "--starts", "50",
      "--box", "0.5"], 3, "0 of 50 starts converged: 0 stalled, 50 capped"),
    # f' is finite, but the centre's Hessian entry sums three of them to inf
    (["stability", "--graph", "star.json", "--coupling", "spike.json", "--point", "0,0,0,0"],
     3, "the energy Hessian is not finite"),
    # a state at infinity has a residual that is not finite, and is no equilibrium
    (["stability", *P2, "--point", "inf,0"], 2, "residual inf: not an equilibrium"),
    (["continue", *P2, "--point", "inf,0"], 2, "start residual inf exceeds tolerance"),
    (["cover", "lift", "--graph", "c3.json", "--target", "c3.json", "--phi", "0,1,2",
      "--coupling", "cubic.json", "--point", "inf,0,0"], 2,
     "input residual nan exceeds tolerance"),
    (["basin", *P2, "--point", "inf,0"], 2, "residual inf: not an accepted equilibrium"),
    # finite parameters out of the range the root bound and the primitive need
    (["bounds", "--graph", "c3.json", "--coupling", "tiny_lead.json"], 2,
     "odd_poly leading coefficient 2.2250738585e-313 is too small"),
    (["bounds", "--graph", "c3.json", "--coupling", "amp_primitive.json"], 2,
     "sine_sum amplitude 1e+308 of harmonic 1 overflows the primitive"),
    # every term in range, their f'' amplitudes summing past it
    (["bounds", "--graph", "c3.json", "--coupling", "amp_sum.json"], 2,
     "sine_sum amplitudes {1: 8.9e+307, 2: 4.4e+307} sum past the float range"),
])
def test_bad_value_ends_with_exit_code(workdir, capsys, monkeypatch, argv, code, message):
    monkeypatch.chdir(workdir)
    write_extreme_inputs(workdir)
    if argv[0] == "simulate":
        # in a subprocess, so that an integrator that hangs fails the test
        # instead of stalling the suite
        proc = run_module(argv, timeout=20)
        got, err = proc.returncode, proc.stderr
    else:
        try:
            got = run(argv)
        except SystemExit as exc:
            got = exc.code
        err = capsys.readouterr().err
    assert got == code
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", *C3, "--x0=1e200,0,0", "--t-end", "1"],
    ["solve", "--graph", "c3.json", "--coupling", "huge.json"],
    ["continue", *C3, "--point=0,1,0", "--step", "1e300"],
    # the inputs and the Hessian's entries 2a and -a are finite, and the
    # eigenvalue 3a of the report overflows
    ["stability", "--graph", "c3.json", "--coupling", "spike.json", "--point", "0,0,0"],
])
def test_numerical_failure_prints_only_its_message(workdir, monkeypatch, argv):
    # numpy's overflow warnings must not reach stderr ahead of the message
    monkeypatch.chdir(workdir)
    write_extreme_inputs(workdir)
    proc = run_module(argv, timeout=20)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: ")


@pytest.mark.parametrize("argv, code, message", [
    # 3 c and a * k are finite, 6 c and (a * k) * k are not; Newton's SVD of
    # the overflowed Hessians never returned
    (["solve", "--graph", "c3.json", "--coupling", "coeff_d2.json"], 2,
     "odd_poly coefficient 5e+307 of x^3 overflows f' or f''"),
    (["solve", "--graph", "c3.json", "--coupling", "amp_d2.json", "--starts", "50",
      "--box", "0.5"], 2, "sine_sum amplitude 5e+307 of harmonic 3 overflows f' or f''"),
    (["solve", "--graph", "star.json", "--coupling", "spike.json", "--starts", "5",
      "--box", "0.3"], 3, "the energy Hessian is not finite"),
])
def test_no_infinite_matrix_reaches_lapack(workdir, monkeypatch, argv, code, message):
    # LAPACK's SVD may never return on a matrix holding inf, so each run is a
    # subprocess whose timeout fails the test instead of stalling the suite
    monkeypatch.chdir(workdir)
    write_extreme_inputs(workdir)
    if "spike.json" in argv:
        # the Hessians of such starts hold inf and no NaN, the kind SVD hangs on
        G, f = load_graph("star.json"), load_coupling("spike.json")
        x = np.random.default_rng(0).uniform(-0.3, 0.3, size=(5, G.n))
        with np.errstate(over="ignore"):
            H = (G.B * f.deriv(x @ G.B)[:, None, :]) @ G.Bt
        assert np.isinf(H).any() and not np.isnan(H).any()
    proc = run_module(argv, timeout=20)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and message in lines[0]


def test_overflowed_newton_trial_is_never_an_equilibrium(workdir, monkeypatch):
    # f(y) = 5e307 y overflows on most starts of the box, and a Newton step
    # from there is not finite; no such state may enter the atlas
    monkeypatch.chdir(workdir)
    write_extreme_inputs(workdir)
    assert run(["solve", "--graph", "p2.json", "--coupling", "linear_huge.json",
                "--starts", "20", "--box", "10", "--out", "r.json"]) == 0
    points = json.loads((workdir / "r.json").read_text())["atlas"]["points"]
    assert points
    for p in points:
        values = [p["residual"], *p["x"], *p["y"], *p["canonical"]]
        assert all(math.isfinite(v) for v in values)


def _config(command, seed=1729, eq=1e-9, zero=1e-7, **extras):
    return {"command": command, "graph": "g.json", "coupling": "f.json",
            "seed": seed, "threads": 1, "eq_tol_scale": eq, "zero_tol_scale": zero,
            **extras}


@pytest.mark.parametrize("graph, coupling, argv, config", [
    ("k4.json", "sin.json", ["bounds", "--cap", "50", "--t-rank", "1e-6"],
     _config("bounds", cap=50, t_rank=1e-6)),
    ("k4.json", "sin.json",
     ["solve", "--starts", "5", "--seed", "7", "--box", "1.5", "--max-iter", "40"],
     _config("solve", seed=7, starts=5, box=1.5)),
    ("c3x2.json", "cubic.json",
     ["continue", "--point", "0,1,0,0,1,0", "--mode", "surface", "--budget", "3",
      "--step", "0.1", "--t-zero", "1e-6"],
     _config("continue", zero=1e-6, mode="surface", step=0.1)),
    ("k4.json", "sin.json",
     ["stability", "--point", "0,0,0,0", "--t-eq", "1e-6", "--t-zero", "1e-6",
      "--local-dim", "2"],
     _config("stability", eq=1e-6, zero=1e-6, local_dim=2)),
    ("p2.json", "sin.json",
     ["simulate", "--x0", "0.1,0", "--t-end", "2", "--rtol", "1e-6", "--atol", "1e-9"],
     _config("simulate", t_end=2.0, rtol=1e-6, atol=1e-9)),
    ("p2.json", "sin.json",
     ["basin", "--point", "0,0", "--radius", "0.2", "--trials", "2", "--seed", "5",
      "--t-end", "3"],
     _config("basin", seed=5, radius=0.2, trials=2)),
])
def test_config_block_echoes_the_run(workdir, monkeypatch, graph, coupling, argv, config):
    monkeypatch.chdir(workdir)
    (workdir / "c3x2.json").write_text(json.dumps(
        {"n": 6, "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]}))
    (workdir / "p2.json").write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    (workdir / "g.json").write_text((workdir / graph).read_text())
    (workdir / "f.json").write_text((workdir / coupling).read_text())
    assert run([*argv, "--graph", "g.json", "--coupling", "f.json", "--out", "r.json"]) == 0
    got = json.loads((workdir / "r.json").read_text())["config"]
    assert list(got.items()) == list(config.items())


def test_one_run_leaves_nothing_for_the_next(workdir, monkeypatch):
    # the parser is built once per process and reused by every run
    from oddcoupling.cli import build_parser
    from oddcoupling.defaults import DEFAULT_SEED
    monkeypatch.chdir(workdir)
    (workdir / "c3.json").write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))

    def seed_of(argv):
        assert run(["solve", *C3, "--starts", "5", *argv, "--out", "r.json"]) == 0
        return json.loads((workdir / "r.json").read_text())["config"]["seed"]

    assert seed_of(["--seed", "5"]) == 5
    assert seed_of([]) == DEFAULT_SEED
    with pytest.raises(SystemExit) as exc:
        run(["solve", *C3, "--starts", "0"])
    assert exc.value.code == 2
    assert seed_of([]) == DEFAULT_SEED
    assert build_parser() is build_parser()


@pytest.mark.parametrize("rows", [
    [[0, 1, -2], [np.float64(1e16), -0.0, 5e-324],
     [np.float64(-0.0), np.float64(5e-324), 1e16], [3, np.float64(0.1), 1.0 / 3.0]],
    [],
])
def test_csv_bytes_equal_csv_writer(tmp_path, rows):
    import csv
    header = ["index", "x0", "energy"]
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    assert (_csv_bytes(tmp_path / "own.csv", header, rows)
            == (tmp_path / "ref.csv").read_bytes())
