"""Byte-for-byte report text of `ocl bounds`, `blocks`, `cover`, `stability`,
`basin`, `simulate`, `corpus run` and `corpus run-all`.

Each case runs one command and compares the report it writes with the file
of the same name under tests/golden/; a `simulate` case also compares its
trajectory CSV, the most bit-sensitive output, with the `.csv` file of that
name. Regenerate a file only together with a deliberate change of that
report's format, and say so where the change is recorded.
"""

import json
import math
from pathlib import Path

import pytest

from oddcoupling.cli import run
from oddcoupling.corpus import COVER7_EDGES, bowtie_graph
from oddcoupling.graphs import graph_to_dict

from helpers import hex_with_pendant_path

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    "bowtie.json": graph_to_dict(bowtie_graph()),
    "hex.json": {"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]},
    "tri.json": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
    "k4.json": {"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]},
    "cover7.json": {"n": 7, "edges": [list(e) for e in COVER7_EDGES]},
    "sin.json": {"family": "sine_sum", "terms": {"1": 1.0}},
    "p2.json": {"n": 2, "edges": [[0, 1]]},
    "x_minus_x3.json": {"family": "odd_poly", "coeffs": [1.0, -1.0]},
    "x_plus_x3.json": {"family": "odd_poly", "coeffs": [1.0, 1.0]},
    "p4.json": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
    "hex_pendant.json": graph_to_dict(hex_with_pendant_path()),
}

CASES = {
    "bounds_hex_pendant": ["bounds", "--graph", "hex_pendant.json", "--coupling", "sin.json"],
    "blocks_bowtie": ["blocks", "--graph", "bowtie.json"],
    "blocks_bowtie_stability": ["blocks", "--graph", "bowtie.json",
                                "--coupling", "sin.json", "--point", "0,0,0,0,0"],
    "cover_check_hex_tri": ["cover", "check", "--graph", "hex.json",
                            "--target", "tri.json", "--phi", "0,1,2,0,1,2"],
    "cover_find_hex_tri": ["cover", "find", "--graph", "hex.json", "--target", "tri.json"],
    "cover_lift_hex_tri": ["cover", "lift", "--graph", "hex.json", "--target", "tri.json",
                           "--phi", "0,1,2,0,1,2", "--coupling", "sin.json",
                           "--point", f"0,{math.pi},0"],
    "cover_check_cover7_k3": ["cover", "check", "--graph", "cover7.json",
                              "--target", "tri.json", "--phi", "0,0,1,1,0,2,2"],
    "stability_k4_splay": ["stability", "--graph", "k4.json", "--coupling", "sin.json",
                           "--point", ",".join(str(k * math.pi / 2) for k in range(4))],
    "basin_tri_sync": ["basin", "--graph", "tri.json", "--coupling", "sin.json",
                       "--point", "0,0,0", "--trials", "3", "--t-end", "5"],
    # three of the five trials escape: null final distances
    "basin_p2_escape": ["basin", "--graph", "p2.json", "--coupling", "x_minus_x3.json",
                        "--point=0,1", "--radius", "0.1", "--trials", "5", "--t-end", "50"],
    # ends at --t-end
    "simulate_bowtie_cubic": ["simulate", "--graph", "bowtie.json", "--coupling",
                              "x_plus_x3.json", "--x0", "1.0,-0.5,0.3,2.0,-1.2",
                              "--t-end", "3", "--csv", "trajectory.csv"],
    # ends at the settle event, located by Brent's method on the dense output
    "simulate_p4_sin_settle": ["simulate", "--graph", "p4.json", "--coupling", "sin.json",
                               "--x0", "0.3,-0.2,0.1,0.0", "--csv", "trajectory.csv"],
    # a negative zero in the start
    "simulate_tri_signed_zero": ["simulate", "--graph", "tri.json", "--coupling",
                                 "x_plus_x3.json", "--x0=-0.0,0.4,-0.3",
                                 "--csv", "trajectory.csv"],
    "corpus_run_p3_sin": ["corpus", "run", "p3-sin"],
    "corpus_run_all": ["corpus", "run-all"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_golden(tmp_path, monkeypatch, case):
    # relative input names, since a report's config echoes its input paths
    monkeypatch.chdir(tmp_path)
    for name, data in INPUTS.items():
        Path(name).write_text(json.dumps(data))
    assert run(CASES[case] + ["--out", "report.json"]) == 0
    assert Path("report.json").read_text() == (GOLDEN / f"{case}.json").read_text()
    if "--csv" in CASES[case]:
        assert Path("trajectory.csv").read_bytes() == (GOLDEN / f"{case}.csv").read_bytes()
