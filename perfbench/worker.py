"""One workload process: set-up, a warm-up op, then a closed loop of timed ops.

Started by ``run.py``, once per set-up sample and once for the measured run:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --role setup|measure

It prints ``ready`` when set-up and the warm-up op are done, so the parent can
time set-up from process start, and then one JSON line with the results.
Each op's outputs are checked against ``reference.json`` after the op's
timer stops.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced, which gives the per-layer figures and the tracing overhead from
one process.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import bootstrap  # before numpy: pins BLAS threads

import numpy as np
import scipy

import workloads
from layertrace import Tracer

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": bootstrap.BLAS_THREADS,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "llc_bytes": _llc_bytes(),
    }


def _llc_bytes() -> int | None:
    """Size of the last-level cache of cpu0, from sysfs; None where unavailable."""
    best = (0, None)
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in os.listdir(base):
            if not entry.startswith("index"):
                continue
            with open(f"{base}/{entry}/level") as fh:
                level = int(fh.read())
            with open(f"{base}/{entry}/size") as fh:
                size = fh.read().strip()
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
            best = max(best, (level, int(size.rstrip("KM")) * scale))
    except (OSError, ValueError):
        return None
    return best[1]


class Runner:
    def __init__(self, name: str, seed: int):
        self.workload = workloads.WORKLOADS[name]
        with open(REFERENCE) as fh:
            self.reference = json.load(fh)["cases"][name]
        order = workloads.case_order(seed)
        self.warmup_case = order[0]
        self._order = order[1:]
        self._next = 0
        self.ctx = self.workload.setup()
        self.misses: list[str] = []

    def run_case(self, i: int):
        """Run case ``i``; returns (wall seconds, cpu seconds, correct?)."""
        case = self.workload.case(i)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = self.workload.op(self.ctx, case)
        except Exception:  # a raising op is a failed op, not a crashed run
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            self.misses.append(f"case {i}: raised\n{traceback.format_exc()}")
            return wall, cpu, False
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        problems = workloads.check(out, self.reference[i])
        self.misses.extend(f"case {i}: {p}" for p in problems)
        return wall, cpu, not problems

    def loop(self, seconds: float):
        """Closed loop of ops for ``seconds`` (at least one op)."""
        walls, cpus, failed = [], [], 0
        start = time.perf_counter()
        while True:
            i = self._order[self._next % len(self._order)]
            self._next += 1
            wall, cpu, ok = self.run_case(i)
            walls.append(wall)
            cpus.append(cpu)
            failed += not ok
            if time.perf_counter() - start >= seconds:
                return walls, cpus, failed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    args = ap.parse_args()

    runner = Runner(args.workload, args.seed)
    _, _, warm_ok = runner.run_case(runner.warmup_case)
    print("ready", flush=True)

    result = {"warmup_ok": warm_ok}
    if args.role == "measure":
        if args.trace:
            untraced, _, failed_a = runner.loop(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                walls, _, failed_b = runner.loop(args.seconds / 2)
            finally:
                tracer.uninstall()
            per_layer = tracer.summary(len(walls), sum(walls))
            per_layer["trace.overhead_frac"] = (
                statistics.median(walls) / statistics.median(untraced) - 1.0
            )
            per_layer["trace.ops"] = len(walls)
            result.update(
                attempted=len(untraced) + len(walls),
                failed=failed_a + failed_b,
                per_layer=per_layer,
            )
        else:
            walls, cpus, failed = runner.loop(args.seconds)
            result.update(
                attempted=len(walls),
                failed=failed,
                op_walls=walls,
                op_cpus=cpus,
                peak_rss_mb=_peak_rss_mb(),
            )
        result["env"] = environment()
    for miss in runner.misses:
        print(f"oracle miss: {miss}", file=sys.stderr)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
