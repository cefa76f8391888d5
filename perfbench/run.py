"""Benchmark of nystrom-krr: three verification workloads through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload rate_cell_16k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in its own worker process (``worker.py``) as a closed loop
of sequential ops for ``--seconds`` seconds, with BLAS pinned to one thread
(see ``bootstrap.py``). ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``; set-up time is the median of three cold worker starts,
each timed from process start through import, set-up and one warm-up op.
``--trace 1`` reports the per-layer metrics from a traced run instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, every metric with its unit, and ``failed_frac``.
Every op's outputs are checked against ``reference.json``; an op that raises,
returns a non-finite value or misses the reference counts as failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time

import bootstrap  # exits when the checkout has no package source

SETUP_SAMPLES = 3
# A run must end within 180 s; leave room to kill a stuck worker and report.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _worker(workload: str, seed: int, seconds: float, trace: int, role: str, deadline: float):
    """Start a worker; returns (seconds from start to ready, its result dict)."""
    cmd = [
        sys.executable,
        str(bootstrap.ROOT / "perfbench" / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--role", role,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=bootstrap.ROOT)
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(
            f"{workload} {role} worker exited with code {proc.returncode} "
            f"(killed at the {DEADLINE_S:.0f} s deadline if negative)"
        )
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    warm_ok = []
    if trace:
        _, res = _worker(workload, seed, seconds, 1, "measure", deadline)
        values = res["per_layer"]
        wanted = spec["per_layer"]
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, setup_res = _worker(workload, seed, seconds, 0, "setup", deadline)
            setups.append(setup_s)
            warm_ok.append(setup_res["warmup_ok"])
        setup_s, res = _worker(workload, seed, seconds, 0, "measure", deadline)
        setups.append(setup_s)
        walls = res["op_walls"]
        values = {
            "ops_per_s": len(walls) / sum(walls),
            "op_s_p50": statistics.median(walls),
            "cpu_s_per_op": sum(res["op_cpus"]) / len(walls),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        wanted = spec["end_to_end"]
    warm_ok.append(res["warmup_ok"])

    # A counted layer a workload never calls reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    attempted, failed = res["attempted"], res["failed"]
    print(f"{workload}: env {json.dumps(res['env'], sort_keys=True)}")
    if trace:
        # Every traced function's figures; the result line carries the subset
        # BENCHMARK.json names (see README.md).
        for name in sorted(values):
            print(f"{workload}: {name} = {values[name]!r}")
    else:
        for name, m in metrics.items():
            print(f"{workload}: {name} = {m['value']!r} {m['unit']}")
    print(f"{workload}: failed_frac = {failed / attempted!r} ({failed} of {attempted} ops)")
    return {
        "correct": failed == 0 and all(warm_ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    chosen = names if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, spec) for w in chosen}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
