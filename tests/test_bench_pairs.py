"""The pair statistics of ``tools/bench_pairs.py`` on hand-made runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"op_s_p50": "lower", "ops_per_s": "higher"}


def _runs(parent: dict, change: dict) -> list:
    """Runs of pair k = 1, 2, ... from per-metric value lists of each side,
    every one with correct outputs."""
    runs = []
    for side, values in (("parent", parent), ("change", change)):
        for k in range(len(next(iter(values.values())))):
            metrics = {f"w.{name}": v[k] for name, v in values.items()}
            runs.append({"pair": k + 1, "side": side, "correct": True, "metrics": metrics})
    return runs


def test_summarize_counts_ties_for_neither_side_and_reads_higher_as_better():
    """Five pairs: on the lower-is-better metric the change wins pairs 1 and
    3, ties pair 2 and loses 4 and 5; on the higher-is-better one the same
    values give it pairs 4 and 5 only. Medians and quartiles follow
    ``statistics`` (exclusive method)."""
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 4.5, 6.0]
    runs = _runs({"op_s_p50": parent, "ops_per_s": parent},
                 {"op_s_p50": change, "ops_per_s": change})
    summary = bench_pairs.summarize(runs, 5, BETTER)
    lower, higher = summary["w.op_s_p50"], summary["w.ops_per_s"]
    assert lower["better"] == "lower" and higher["better"] == "higher"
    assert lower["change_better_pairs"] == 2 and higher["change_better_pairs"] == 2
    assert lower["pairs"] == 5
    assert lower["parent_median"] == 3.0 and lower["change_median"] == 2.5
    assert lower["parent_quartiles"] == [1.5, 4.5]
    assert not lower["change_beats_every_parent_run"]


def test_judge_needs_nine_tenths_of_the_pairs_and_a_gap_above_the_spread():
    parent = [10.0, 10.2, 10.1, 9.9, 10.0, 10.1, 9.9, 10.0, 10.2, 10.1]
    faster = [v - 1.0 for v in parent]
    summary = bench_pairs.summarize(_runs({"op_s_p50": parent}, {"op_s_p50": faster}), 10, BETTER)
    claim = bench_pairs.judge(summary, "w.op_s_p50")
    assert claim["met"] and claim["pairs_won"] == 10
    assert claim["median_gain"] == pytest.approx(1.0)
    # one tie and one loss leave 8 of 10 pairs: not met, whatever the gap
    faster[0], faster[1] = parent[0], parent[1] + 1.0
    summary = bench_pairs.summarize(_runs({"op_s_p50": parent}, {"op_s_p50": faster}), 10, BETTER)
    assert not bench_pairs.judge(summary, "w.op_s_p50")["met"]
    # higher is better: more ops per second is the gain
    more = [v + 1.0 for v in parent]
    summary = bench_pairs.summarize(_runs({"ops_per_s": parent}, {"ops_per_s": more}), 10, BETTER)
    assert bench_pairs.judge(summary, "w.ops_per_s")["met"]


def test_no_regression_within_worse_and_unresolved():
    """Bound 0.25 of the parent's median (10): a change median of 12 is within
    it and 13 is worse, for lower- and higher-is-better metrics read the other
    way round; a parent spread wider than the bound leaves it unresolved,
    unless every change run beats every parent run."""
    tight = [10.0, 10.0, 10.0, 10.0, 10.0]

    def verdict(parent, change, metric="op_s_p50"):
        summary = bench_pairs.summarize(_runs({metric: parent}, {metric: change}), 5, BETTER)
        return bench_pairs.no_regression(summary, f"w.{metric}", 0.25)

    within = verdict(tight, [12.0] * 5)
    assert within["verdict"] == "within" and within["worse_by"] == pytest.approx(0.2)
    assert verdict(tight, [13.0] * 5)["verdict"] == "worse"
    assert verdict(tight, [8.0] * 5, "ops_per_s")["verdict"] == "within"
    assert verdict(tight, [7.0] * 5, "ops_per_s")["verdict"] == "worse"
    assert verdict(tight, [10.0] * 5)["worse_by"] == 0.0
    wide = [6.0, 8.0, 10.0, 12.0, 14.0]  # quartiles 7 and 13: spread 0.6 of 10
    unresolved = verdict(wide, [10.0] * 5)
    assert unresolved["verdict"] == "unresolved"
    assert unresolved["parent_spread"] == pytest.approx(0.6)
    assert verdict(wide, [5.0, 5.5, 5.0, 5.5, 5.0])["verdict"] == "within"
    # a tie with the best parent run is no win: still unresolved
    assert verdict(wide, [6.0, 5.5, 5.0, 5.5, 5.0])["verdict"] == "unresolved"


@pytest.mark.parametrize("side", ["parent", "change"])
def test_wrong_outputs_on_either_side_leave_both_verdicts_not_judged(side):
    """A change that wins every pair by far is still not judged, by the gain
    rule or the no-regression rule, once one run of either side reported
    wrong outputs."""
    parent = [10.0, 10.2, 10.1, 9.9, 10.0, 10.1, 9.9, 10.0, 10.2, 10.1]
    runs = _runs({"op_s_p50": parent}, {"op_s_p50": [v - 1.0 for v in parent]})
    summary = bench_pairs.summarize(runs, 10, BETTER)
    assert bench_pairs.judge(summary, "w.op_s_p50")["verdict"] == "met"
    assert bench_pairs.no_regression(summary, "w.op_s_p50", 0.25)["verdict"] == "within"
    next(r for r in runs if r["side"] == side and r["pair"] == 4)["correct"] = False
    summary = bench_pairs.summarize(runs, 10, BETTER)
    assert summary["w.op_s_p50"]["wrong_output_runs"] == 1
    claim = bench_pairs.judge(summary, "w.op_s_p50")
    assert claim["verdict"] == "not judged" and not claim["met"]
    assert bench_pairs.no_regression(summary, "w.op_s_p50", 0.25)["verdict"] == "not judged"


def test_main_writes_the_runs_so_far_and_exits_nonzero_after_a_failed_run(monkeypatch, tmp_path):
    """Faked ``perfbench/run.py`` runs: two pairs that all succeed give a file
    with every verdict and exit 0; a run that exits 3 (the third, pair 2's
    change run) stops the script, which writes the three runs, that exit code
    and no verdicts, and exits 1."""
    names = [m["name"] for m in bench_pairs.BENCHMARK["end_to_end"]]
    calls = []

    def fake_run(tree, workload, seed, fail_at=None):
        calls.append(seed)
        if len(calls) == fail_at:
            return {"exit_code": 3}
        return {"exit_code": 0, "correct": True, "attempted": 5, "failed": 0,
                "metrics": {f"{workload}.{name}": 1.0 for name in names}}

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    argv = ["bench_pairs.py", "--parent", str(tmp_path), "--workload", "w", "--pairs", "2",
            "--seed", "7", "--label", "fake", "--claim", "w.op_s_p50"]
    monkeypatch.setattr(sys, "argv", argv)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main() == 0
    report = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert len(report["runs"]) == 4 and "stopped" not in report
    assert report["claim"]["verdict"] == "not met"  # ties win no pair
    assert len(report["no_regression"]) == len(names)

    calls.clear()
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: fake_run(*a, fail_at=3))
    assert bench_pairs.main() == 1
    report = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert [(r["pair"], r["side"], r["exit_code"]) for r in report["runs"]] == [
        (1, "parent", 0), (1, "change", 0), (2, "change", 3)
    ]
    assert report["stopped"] == report["runs"][-1]
    assert report["failed_ops"] == {"parent": "0 of 5", "change": "0 of 5"}
    assert not {"summary", "no_regression", "claim"} & report.keys()
