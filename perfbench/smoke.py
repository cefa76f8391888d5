"""Smoke check of the benchmark itself. Run from the repository root:

    python3 perfbench/smoke.py

1. One short run per workload and trace mode: the last line is the result
   object, ``correct`` holds, and every metric ``BENCHMARK.json`` names is
   present with its unit.
2. A deliberately perturbed reference value makes the op fail, so
   ``failed_frac`` > 0.
3. A wrong fit (lambda off by 0.1%) misses the reference, so the oracle's
   tolerance still catches it.

Takes about two minutes on two cores; exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys

import bootstrap
import worker


def _check_runs(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(bootstrap.ROOT / "perfbench" / "run.py"),
                   "--workload", w["name"], "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=bootstrap.ROOT, timeout=180)
            if out.returncode != 0:
                raise AssertionError(f"{cmd} exited {out.returncode}:\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise AssertionError(f"result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{w['name']} trace={trace}: {result}\n{out.stderr}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in wanted}
            if got != want:
                raise AssertionError(f"{w['name']} trace={trace}: metrics {got} != {want}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    raise AssertionError(f"{name} has a non-numeric value {m['value']!r}")
            print(f"ok: {w['name']} trace={trace}: {len(got)} metrics, correct, 0 failed")


def _one_op_failed_frac(runner: worker.Runner) -> float:
    walls, _, failed = runner.loop(0.0)
    return failed / len(walls)


def _check_oracle() -> None:
    runner = worker.Runner("rate_cell_16k", seed=0)
    case = runner._order[0]
    runner.reference[case] = dict(runner.reference[case], error=runner.reference[case]["error"] * (1 + 1e-4))
    frac = _one_op_failed_frac(runner)
    if frac <= 0:
        raise AssertionError("a perturbed reference value did not fail the op")
    print(f"ok: perturbed reference value -> failed_frac {frac}")

    runner = worker.Runner("rate_cell_16k", seed=0)
    runner.ctx["lam"] *= 1.001
    frac = _one_op_failed_frac(runner)
    if frac <= 0:
        raise AssertionError("a fit with lambda off by 0.1% passed the oracle")
    print(f"ok: lambda off by 0.1% -> failed_frac {frac}")


def main() -> int:
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    try:
        _check_runs(spec)
        _check_oracle()
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
