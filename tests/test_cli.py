import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oddcoupling
from oddcoupling.cli import run
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


C3 = ["--graph", "c3.json", "--coupling", "cubic.json"]


@pytest.mark.parametrize("argv, code, message", [
    (["simulate", *C3, "--x0=nan,0,0"], 2, "x0 must be finite"),
    (["simulate", *C3, "--x0=1e200,0,0", "--t-end", "1"], 3, "not finite"),
    (["solve", *C3, "--box", "inf"], 2, "must be positive and finite"),
    (["continue", *C3, "--point=0,1,0", "--step", "1e300"], 3, "did not converge"),
    (["solve", "--graph", "c3.json", "--coupling", "huge.json"], 3, "did not converge"),
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
])
def test_bad_value_ends_with_exit_code(workdir, capsys, monkeypatch, argv, code, message):
    monkeypatch.chdir(workdir)
    (workdir / "c3.json").write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    (workdir / "huge.json").write_text(json.dumps(
        {"family": "odd_poly", "coeffs": [1e308, 1e308]}))
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
])
def test_numerical_failure_prints_only_its_message(workdir, monkeypatch, argv):
    # numpy's overflow warnings must not reach stderr ahead of the message
    monkeypatch.chdir(workdir)
    (workdir / "c3.json").write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    (workdir / "huge.json").write_text(json.dumps(
        {"family": "odd_poly", "coeffs": [1e308, 1e308]}))
    proc = run_module(argv, timeout=20)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
