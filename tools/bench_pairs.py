"""Alternating parent/change pairs of the benchmark, written to ``BENCH_<label>.json``.

The change is the checkout this script sits in; the parent is another
checkout (say, a ``git archive`` of the parent commit unpacked into its own
directory). Pair k runs ``perfbench/run.py --workload W --seed SEED+k-1
--seconds 20 --trace 0`` (``BENCHMARK.json``'s run length) once in each
checkout, from that checkout, the parent first in odd pairs and the change
first in even ones. Run from the repository root:

    python3 tools/bench_pairs.py --parent ../parent --workload rate_cell_16k \\
        --pairs 10 --seed 2701 --label mylabel --claim rate_cell_16k.op_s_p50

The file holds every run's result line and, per ``<workload>.<metric>`` of
``BENCHMARK.json``'s end-to-end metrics, each side's median and quartiles
(``statistics.quantiles``, n = 4, exclusive method), the pairs the change
won (ties count for neither side), and the no-regression verdict against the
metric's ``bound`` in ``BENCHMARK.json``: ``within`` when the change's median
is worse than the parent's by at most that fraction of the parent's median,
``worse`` when by more, and ``unresolved`` when the parent's quartile spread
is wider than that fraction and not every change run beats every parent run.
With ``--claim``, it also says whether the change won at least nine tenths of
the pairs and moved the median by more than the distance between the parent's
quartiles. Both verdicts read ``not judged`` when any run of either side
reports wrong outputs (``correct: false``). A run that exits non-zero stops
the script: the file then holds the runs made so far, that one with its exit
code, and no verdicts, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
with open(ROOT / "BENCHMARK.json") as _fh:
    BENCHMARK = json.load(_fh)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its exit code and, when that is
    0, its last line, metrics keyed ``<workload>.<metric>`` even for a single
    workload."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        return {"exit_code": proc.returncode}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if workload != "all":
        metrics = {f"{workload}.{name}": value for name, value in metrics.items()}
    return {"exit_code": 0, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def summarize(runs: list[dict], pairs: int, better: dict) -> dict:
    """Per metric: each side's median and quartiles, the pairs the change won,
    whether every change run beats every parent run, and how many runs of
    either side reported wrong outputs."""
    wrong = sum(not r["correct"] for r in runs)
    summary = {}
    for name in runs[0]["metrics"]:
        lower = better[name.split(".", 1)[1]] == "lower"
        side = {
            s: [r["metrics"][name] for r in sorted(runs, key=lambda r: r["pair"]) if r["side"] == s]
            for s in ("parent", "change")
        }
        beats = operator.lt if lower else operator.gt
        won = sum(beats(c, p) for p, c in zip(side["parent"], side["change"]))
        summary[name] = {"better": "lower" if lower else "higher"}
        for s, values in side.items():
            quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            summary[name][f"{s}_median"] = statistics.median(values)
            summary[name][f"{s}_quartiles"] = [quartiles[0], quartiles[2]]
        summary[name]["change_better_pairs"] = won
        summary[name]["pairs"] = pairs
        summary[name]["change_beats_every_parent_run"] = all(
            beats(c, p) for c in side["change"] for p in side["parent"]
        )
        summary[name]["wrong_output_runs"] = wrong
    return summary


def judge(summary: dict, name: str) -> dict:
    """The gain rule for one metric: at least nine tenths of the pairs won, and
    the medians apart by more than the parent's quartile spread; ``not judged``
    (and not met) when a run of either side reported wrong outputs."""
    s = summary[name]
    gap = s["parent_median"] - s["change_median"]
    if s["better"] == "higher":
        gap = -gap
    spread = s["parent_quartiles"][1] - s["parent_quartiles"][0]
    won, pairs = s["change_better_pairs"], s["pairs"]
    met = 10 * won >= 9 * pairs and gap > spread
    if s["wrong_output_runs"]:
        verdict, met = "not judged", False
    else:
        verdict = "met" if met else "not met"
    return {"metric": name, "pairs_won": won, "pairs": pairs, "median_gain": gap,
            "parent_quartile_spread": spread, "met": met, "verdict": verdict}


def no_regression(summary: dict, name: str, bound: float) -> dict:
    """The no-regression rule for one metric, with ``bound`` a fraction of the
    parent's median: ``worse_by`` is how much worse the change's median is
    (negative when better), ``parent_spread`` the parent's quartile distance,
    both as that fraction; a spread wider than the bound leaves the verdict
    ``unresolved`` unless every change run beats every parent run, and a run
    of either side with wrong outputs leaves it ``not judged``."""
    s = summary[name]
    base = abs(s["parent_median"])
    worse_by = (s["change_median"] - s["parent_median"]) / base
    if s["better"] == "higher":
        worse_by = -worse_by
    spread = (s["parent_quartiles"][1] - s["parent_quartiles"][0]) / base
    if s["wrong_output_runs"]:
        verdict = "not judged"
    elif spread > bound and not s["change_beats_every_parent_run"]:
        verdict = "unresolved"
    else:
        verdict = "within" if worse_by <= bound else "worse"
    return {"metric": name, "bound": bound, "worse_by": worse_by, "parent_spread": spread,
            "verdict": verdict}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of pair 1; pair k runs seed + k - 1")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json in this checkout")
    ap.add_argument("--claim", help="a <workload>.<metric> to judge by the gain rule")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": ROOT}

    schedule = [
        (k, args.seed + k - 1, position, side)
        for k in range(1, args.pairs + 1)
        for position, side in enumerate(("parent", "change") if k % 2 else ("change", "parent"), 1)
    ]
    runs = []
    for k, seed, position, side in schedule:
        run = run_once(trees[side], args.workload, seed)
        runs.append({"pair": k, "seed": seed, "side": side, "position": position, **run})
        if run["exit_code"]:
            print(f"pair {k} seed {seed} {side}: exit code {run['exit_code']}, stopping", flush=True)
            break
        print(f"pair {k} seed {seed} {side}: failed {run['failed']} of {run['attempted']}, "
              + ", ".join(f"{n} {v:.4g}" for n, v in run["metrics"].items()), flush=True)
    done = [r for r in runs if not r["exit_code"]]
    report = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {BENCHMARK['run_seconds']:g} --trace 0",
        "order": "parent first in odd pairs, change first in even pairs",
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "failed_ops": {
            side: f"{sum(r['failed'] for r in done if r['side'] == side)} of "
                  f"{sum(r['attempted'] for r in done if r['side'] == side)}"
            for side in trees
        },
    }
    if len(done) < len(runs):
        report["stopped"] = runs[-1]
    else:
        summary = summarize(runs, args.pairs, better)
        report["summary"] = summary
        report["no_regression"] = [
            no_regression(summary, name, bounds[name.split(".", 1)[1]]) for name in summary
        ]
        for check in report["no_regression"]:
            print(f"{check['metric']}: {check['verdict']} (worse by {check['worse_by']:+.4f}, "
                  f"parent spread {check['parent_spread']:.4f}, bound {check['bound']})")
        if args.claim:
            report["claim"] = judge(summary, args.claim)
            print(json.dumps(report["claim"]))
    report["runs"] = runs
    path = ROOT / f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 1 if "stopped" in report else 0


if __name__ == "__main__":
    sys.exit(main())
