"""Print a sha256 digest of every CLI report that one round of the workloads
writes, so that two commits can be compared for byte-identical reports.

    python3 perfbench/digest.py --seed N

Run it from the root of each checkout with the same seed and compare the
output lines: equal lines mean identical report bytes. The digests are made
anew from the checkout's own code; no golden copy is stored. Every workload
runs twice, and the command exits 1 when the two passes disagree or an
operation fails.
"""

import argparse
import sys

import workloads
from run import digest_files, import_program, prepare

PASSES = 2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    prepare()
    import_program()

    status = 0
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, args.seed)
        passes = []
        for _ in range(PASSES):
            digests = {}
            for op in wl.ops:
                if op.reports and op.run().get("failed"):
                    print(f"perfbench: {name}/{op.name} failed", file=sys.stderr)
                    status = 1
                digests.update(digest_files(op.reports))
            passes.append(digests)
        for path, digest in passes[0].items():
            print(f"{digest}  {path}")
        if passes[1] != passes[0]:
            print(f"perfbench: {name}: reports differ between passes", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
