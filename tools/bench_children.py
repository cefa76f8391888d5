"""The CPU time and peak RSS of the benchmark's workloads, forked children included.

``perfbench/run.py`` reads ``cpu_s_per_op`` and ``peak_rss_mb`` from the
workload's own process (``RUSAGE_SELF``), so neither sees the children that
``linalg.fork_map`` forks for a sweep's cells or the diagnostics' trials. This
script runs the same closed loop of ops (``perfbench/worker.py``'s ``Runner``,
one BLAS thread, the same case order for a seed), one fresh process per
workload, and prints beside those two figures the reaped children's CPU per op
and largest peak RSS (``RUSAGE_CHILDREN``) and the total CPU per op. Run from
the repository root:

    python3 tools/bench_children.py --workload all --seed 1 --seconds 20

The last line of standard output is one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
with open(ROOT / "BENCHMARK.json") as fh:
    WORKLOADS = tuple(w["name"] for w in json.load(fh)["workloads"])


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def measure(workload: str, seed: int, seconds: float) -> dict:
    """One workload's loop in this process; call before numpy is imported."""
    sys.path.insert(0, str(PERFBENCH))
    import bootstrap  # noqa: F401  pins one BLAS thread before numpy loads
    import worker

    runner = worker.Runner(workload, seed)
    runner.run_case(runner.warmup_case)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    walls, cpus, failed = runner.loop(seconds)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    ops = len(walls)
    own, children = sum(cpus) / ops, (_cpu_s(after) - _cpu_s(before)) / ops
    return {
        "ops": ops,
        "failed": failed,
        "op_s_p50": statistics.median(walls),
        "cpu_s_per_op": own,
        "children_cpu_s_per_op": children,
        "total_cpu_s_per_op": own + children,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "children_peak_rss_mb": after.ru_maxrss / 1024.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.in_process:
        print(json.dumps(measure(args.workload, args.seed, args.seconds)))
        return 0
    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--in-process"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        results[workload] = res = json.loads(out.strip().splitlines()[-1])
        for name, value in res.items():
            print(f"{workload}: {name} = {value!r}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
