"""Set-up probe: import the program and build one workload's inputs.

Started in a fresh interpreter by ``run.py``, which times it from process
start to the line this script prints. The line also carries the import and
input-building times measured here.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import json
import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import oddcoupling.cli  # noqa: E402,F401  (the import a user of `ocl` pays)

t1 = perf_counter()
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}), flush=True)
