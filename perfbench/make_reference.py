"""Regenerate ``reference.json``: the oracle outputs of every pooled case.

Run from the repository root, only when a change is meant to alter results:

    python3 perfbench/make_reference.py

It takes about ten minutes on two cores.
"""

import json
import sys
from pathlib import Path

import bootstrap  # noqa: F401  (pins BLAS threads before numpy loads)
import workloads

OUT = Path(__file__).resolve().parent / "reference.json"


def main() -> None:
    ref = {}
    for name, w in workloads.WORKLOADS.items():
        ctx = w.setup()
        ref[name] = [w.op(ctx, w.case(i)) for i in range(workloads.POOL_SIZE)]
        print(f"{name}: {workloads.POOL_SIZE} cases", file=sys.stderr, flush=True)
    OUT.write_text(json.dumps({"pool_size": workloads.POOL_SIZE, "cases": ref}, indent=1) + "\n")


if __name__ == "__main__":
    main()
