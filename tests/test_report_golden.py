"""Byte-for-byte report text of `ocl blocks` and `ocl cover`.

Each case runs one command and compares the report it writes with the file
of the same name under tests/golden/. Regenerate a file only together with a
deliberate change of that report's format, and say so where the change is
recorded.
"""

import json
import math
from pathlib import Path

import pytest

from oddcoupling.cli import run
from oddcoupling.corpus import COVER7_EDGES, bowtie_graph
from oddcoupling.graphs import graph_to_dict

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    "bowtie.json": graph_to_dict(bowtie_graph()),
    "hex.json": {"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]},
    "tri.json": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
    "cover7.json": {"n": 7, "edges": [list(e) for e in COVER7_EDGES]},
    "sin.json": {"family": "sine_sum", "terms": {"1": 1.0}},
}

CASES = {
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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_golden(tmp_path, case):
    for name, data in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data))
    out = tmp_path / "report.json"
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in CASES[case]]
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / f"{case}.json").read_text()
