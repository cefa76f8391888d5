import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nystrom_krr
from nystrom_krr import experiments as exp
from nystrom_krr import krr, linalg, nystrom
from nystrom_krr.cli import main as cli_main
from nystrom_krr.kernels import KernelSpec
from nystrom_krr.linalg import NumericalError, blas_threads
from nystrom_krr.nystrom import SizeRuleParams
from nystrom_krr.spectral import IndexFunction, analytic_profile, lambda0
from nystrom_krr.synthetic import NoiseSpec, l2_rho_error, make_target, sample_dataset


def small_config(**overrides):
    base = dict(
        kernel=KernelSpec.designed(0.5, 256),
        phi=IndexFunction.holder(0.25),
        target_profile="power_boundary",
        coeff_seed=7,
        noise=NoiseSpec.gaussian(0.1),
        n_grid=[128, 256, 512],
        repetitions=3,
        seed=101,
        size_rule=SizeRuleParams(c=2.0, delta=0.1),
        lambda_policy=exp.LambdaPolicy("lambda0"),
        outputs="out",
    )
    base.update(overrides)
    return exp.ExperimentConfig(**base)


def config_dict(**overrides):
    raw = {
        "kernel": {"variant": "designed_spectral", "s": 0.5, "truncation": 256},
        "target": {"family": "holder", "r": 0.25, "profile": "power_boundary", "coeff_seed": 7},
        "noise": {"variant": "gaussian", "scale": 0.1},
        "n_grid": [128, 256, 512],
        "repetitions": 2,
        "seed": 11,
        "size_rule": {"c": 2.0, "delta": 0.1},
        "lambda_policy": {"kind": "lambda0"},
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_config_from_dict_roundtrip():
    config = exp.config_from_dict(config_dict())
    assert config.kernel.is_designed
    assert config.phi.r == 0.25
    assert config.size_rule.c == 2.0


def test_config_errors_are_explicit(tmp_path):
    with pytest.raises(ValueError, match="missing 'kernel'"):
        exp.config_from_dict({})
    with pytest.raises(ValueError, match="missing 'family'"):
        exp.config_from_dict(config_dict(target={"r": 0.25}))
    with pytest.raises(ValueError, match="strictly increasing"):
        exp.config_from_dict(config_dict(n_grid=[128, 128]))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        exp.load_config(bad)


def test_direct_config_checks_what_the_json_path_checks():
    """``ExperimentConfig`` built in code rejects a ``krr_baseline`` that is not a
    bool and a ``gamma`` that is not a number, with the JSON path's messages:
    ``"false"`` would run the baseline and ``True`` would run as gamma = 1."""
    for bad in ("false", 1, None):
        with pytest.raises(ValueError, match="config error: 'krr_baseline' must be true or false"):
            small_config(krr_baseline=bad)
    for bad in ("0.75", True):
        with pytest.raises(ValueError, match="config error: 'gamma' must be a number"):
            small_config(gamma=bad)
    assert small_config(gamma=1).gamma == 1.0 and small_config(gamma=None).gamma is None


def test_lambda_policy_validation():
    with pytest.raises(ValueError):
        exp.LambdaPolicy("fixed")
    with pytest.raises(ValueError):
        exp.LambdaPolicy("grid")
    with pytest.raises(ValueError):
        exp.LambdaPolicy("adaptive")
    for bad in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="value"):
            exp.LambdaPolicy("fixed", value=bad)
    # each grid value as the fixed value, also through a JSON config
    for bad in (np.nan, np.inf, 0.0, -1e-3):
        with pytest.raises(ValueError, match="grid lambda policy 'values' must be finite and positive"):
            exp.LambdaPolicy("grid", values=(1e-3, bad))
        policy = {"kind": "grid", "values": [1e-3, bad]}
        with pytest.raises(ValueError, match="'values' must be finite and positive"):
            exp.config_from_dict(config_dict(lambda_policy=policy))
    # a repeated value, here lambda0 of the last n, would be two grid points
    # with the same lambda, both marked is_lambda0
    config = small_config()
    lam0 = lambda0(analytic_profile(config.kernel.decay, config.kernel.truncation), config.n_grid[-1])
    with pytest.raises(ValueError, match="grid lambda policy 'values' repeats a value"):
        exp.LambdaPolicy("grid", values=(1e-3, lam0, lam0))
    policy = {"kind": "grid", "values": [1e-3, lam0, lam0]}
    with pytest.raises(ValueError, match="'values' repeats a value"):
        exp.config_from_dict(config_dict(lambda_policy=policy))


# ---------------------------------------------------------------------------
# rate sweep
# ---------------------------------------------------------------------------


def test_rate_sweep_rows_and_fit():
    config = small_config()
    fit, rows, timing, summary, _ = exp.run_rate_sweep(config)
    assert len(rows) == len(config.n_grid) * config.repetitions
    assert len(timing) == len(rows)
    assert len(fit.points) == len(config.n_grid)
    assert fit.exponent < 0  # error decreases with n
    for row in rows:
        assert len(row) == len(exp.RATE_CSV_FIELDS)
        assert row[7] > 0  # flops recorded


def test_rate_sweep_noiseless_fixed_lambda_monotone():
    config = small_config(
        noise=NoiseSpec.uniform_bounded(0.0),
        lambda_policy=exp.LambdaPolicy("fixed", value=1e-5),
        n_grid=[128, 256, 512, 1024],
        repetitions=5,
    )
    _, rows, _, _, _ = exp.run_rate_sweep(config)
    medians = {}
    for row in rows:
        medians.setdefault(row[0], []).append(float(row[5]))
    meds = [float(np.median(medians[n])) for n in config.n_grid]
    assert all(b < a for a, b in zip(meds, meds[1:]))


def test_rate_sweep_nystrom_close_to_full_krr():
    config = small_config(krr_baseline=True, n_grid=[256, 512], repetitions=5)
    fit, rows, _, _, _ = exp.run_rate_sweep(config)
    assert fit is None  # too few points for an exponent fit
    for n in config.n_grid:
        ratios = [float(r[5]) / float(r[6]) for r in rows if r[0] == n]
        assert float(np.median(ratios)) <= 1.5


def test_rows_flag_m_at_or_above_truncation():
    """At T = 16 a row whose m >= T says its estimator is full KRR, joined by
    ``; `` after any other warning; rows with m < T carry no flag."""
    flag = "m >= T: estimator equals full KRR"
    kernel = KernelSpec.designed(0.5, 16)
    config = small_config(kernel=kernel, n_grid=[8, 64, 256], repetitions=1, gamma=0.25)
    rate_rows = exp.run_rate_sweep(config)[1]
    cost_rows = exp.run_cost_sweep(config)[2]
    lambda_rows = exp.run_lambda_sensitivity(config)[0]
    for rows, other in (
        (rate_rows, "lambda outside admissible window"),
        (cost_rows, "no subquadratic guarantee (2 gamma + s <= 1)"),
        (lambda_rows, ""),
    ):
        flagged = [row[3] >= 16 for row in rows]
        assert any(flagged) and not all(flagged)
        for row, above in zip(rows, flagged):
            want = "; ".join(w for w in (other, flag if above else "") if w)
            assert row[-1] == want, row


def test_sweep_rows_match_an_in_process_reference():
    """Every cell of the rate, cost and lambda sweeps, refitted here at one BLAS
    thread from its own seeds (cell ``c`` of ``k`` spawns its dataset and
    subsample seeds from ``SeedSequence(seed).spawn(k)[c]``): the rate and cost
    rows' ``error``, ``krr_error`` and ``flops`` and the lambda sweep's
    ``median_error`` and ``median_flops`` are equal to the reference's. With
    T = 64 the n = 48 cells fit on the points' sections, the n = 96, 192 cells
    on the trig-moment covariance."""
    kernel = KernelSpec.designed(0.5, 64)
    config = small_config(kernel=kernel, n_grid=[48, 96, 192], repetitions=2, krr_baseline=True,
                          gamma=0.75)
    target = make_target(kernel.decay, 64, config.phi, config.coeff_seed, config.target_profile)

    def reference(n, m, lam, cell, cells):
        ds_seed, sub_seed = np.random.SeedSequence(config.seed).spawn(cells)[cell].spawn(2)
        data = sample_dataset(kernel.decay, 64, target, config.noise, n, ds_seed)
        model = nystrom.fit_nystrom(kernel, data, lam, nystrom.subsample_plain(n, m, sub_seed))
        krr_error = l2_rho_error(krr.fit_krr(kernel, data, lam), kernel, data)
        return l2_rho_error(model, kernel, data), krr_error, model.opcount.flops

    rate_rows = exp.run_rate_sweep(config)[1]
    cost_rows = exp.run_cost_sweep(config)[2]
    lambda_rows = exp.run_lambda_sensitivity(config)[0]
    with blas_threads(1):
        for rows, error_field in ((rate_rows, 5), (cost_rows, 6)):
            assert [row[2] for row in rows] == [f"101:{cell}" for cell in range(6)]
            for cell, row in enumerate(rows):
                err, krr_err, flops = reference(row[0], row[3], float(row[4]), cell, 6)
                assert row[error_field] == repr(err) and row[7] == flops, row
                if rows is rate_rows:
                    assert row[6] == repr(krr_err), row
        for i, row in enumerate(lambda_rows):
            fits = [reference(192, row[3], float(row[0]), 2 * i + rep, 2 * len(lambda_rows))
                    for rep in range(2)]
            assert row[4] == repr(float(np.median([err for err, _, _ in fits]))), row
            assert row[5] == int(np.median([flops for _, _, flops in fits])), row


def test_rate_sweep_requires_designed_kernel():
    with pytest.raises(ValueError, match="designed_spectral"):
        exp.run_rate_sweep(small_config(kernel=KernelSpec.gaussian(1.0)))


# ---------------------------------------------------------------------------
# cost sweep
# ---------------------------------------------------------------------------


def test_cost_sweep_exponent_tracks_prediction():
    config = small_config(
        n_grid=[1024, 2048, 4096, 8192],
        repetitions=1,
        gamma=0.75,
        size_rule=SizeRuleParams(c=1.0, delta=0.1),
    )
    slope, predicted, rows, timing, summary, _ = exp.run_cost_sweep(config)
    assert math.isclose(predicted, (3.0 + 0.5 - 1.5) / 1.5, rel_tol=1e-12)
    assert abs(slope - predicted) < 0.35  # short grid, loose check; the
    # acceptance suite runs the full-width grid at the tight tolerance


def test_cost_sweep_clamped_is_cubic():
    config = small_config(
        n_grid=[64, 128, 256, 512],
        repetitions=1,
        gamma=0.75,
        size_rule=SizeRuleParams(c=10_000.0, delta=0.1),
    )
    slope, _, rows, _, _, _ = exp.run_cost_sweep(config)
    assert all(row[3] == row[0] for row in rows)  # m clamped at n
    assert abs(slope - 3.0) < 0.1


def test_cost_sweep_doubling_c_quadruples_flops():
    flops = {}
    for c in (1.0, 2.0):
        config = small_config(
            n_grid=[4096],
            repetitions=1,
            gamma=0.75,
            size_rule=SizeRuleParams(c=c, delta=0.1),
        )
        _, _, rows, _, _, _ = exp.run_cost_sweep(config)
        flops[c] = rows[0][7]
    assert abs(flops[2.0] / flops[1.0] - 4.0) < 0.4


def test_cost_sweep_flags_no_guarantee():
    config = small_config(n_grid=[256, 512, 1024], repetitions=1, gamma=0.2)
    _, _, rows, _, summary, passed = exp.run_cost_sweep(config)
    assert any("no subquadratic guarantee" in row[-1] for row in rows)
    assert passed  # informational only in that regime


def test_cost_sweep_fits_no_exponent_below_four_points():
    """The cost fit has three coefficients (intercept, log n, log log n), so a
    grid of three points or fewer fits exactly, r^2 = 1 at any slope: such a
    sweep fits no exponent and gives no verdict, as the rate sweep does below
    three points."""
    for n_grid in ([256, 512], [256, 512, 1024]):
        config = small_config(n_grid=n_grid, repetitions=1, gamma=0.75)
        slope, predicted, rows, _, summary, passed = exp.run_cost_sweep(config)
        assert slope is None and passed and len(rows) == len(n_grid)
        assert math.isclose(predicted, (3.0 + 0.5 - 1.5) / 1.5, rel_tol=1e-12)
        assert "no exponent fit" in summary[0]
        assert not any("PASS" in line or "FAIL" in line for line in summary)


def test_cost_sweep_needs_gamma():
    with pytest.raises(ValueError, match="gamma"):
        exp.run_cost_sweep(small_config())


# ---------------------------------------------------------------------------
# lambda sensitivity
# ---------------------------------------------------------------------------


def test_lambda_sweep_shape_and_verdict():
    config = small_config(n_grid=[512], repetitions=6)
    rows, summary, passed = exp.run_lambda_sensitivity(config)
    assert passed
    meds = [float(r[4]) for r in rows]
    lams = [float(r[0]) for r in rows]
    assert lams == sorted(lams)
    # U-shape or monotone: at most one sign change of the discrete slope
    # beyond a 2 percent noise filter
    logs = np.log(meds)
    diffs = np.diff(logs)
    signs = [int(np.sign(d)) for d in diffs if abs(d) > 0.02]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes <= 1
    assert sum(int(r[6]) for r in rows) == 1  # lambda0 marked exactly once


# ---------------------------------------------------------------------------
# diagnostics dispatch
# ---------------------------------------------------------------------------


def test_run_diagnostics_rows(tmp_path):
    for delta in (0.1, 0.02):
        config = small_config(
            diagnostics={"T": 32, "n": 256, "trials": 20, "delta": delta},
            phi=IndexFunction.holder(0.5),
        )
        reports, summary, passed = exp.run_diagnostics(config)
        assert [r.bound_name for r in reports] == [
            "projection",
            "norm_equivalence",
            "concentration_operator",
            "smoothness_perturbation",
        ]
        assert [r.delta for r in reports] == [delta] * 4
        again, _, _ = exp.run_diagnostics(config)
        for a, b in zip(reports, again):
            assert a.violation_rate == b.violation_rate


def test_run_diagnostics_rejects_invalid_target():
    """No bound check reads the target, but a target config that ``make_target``
    would reject (inadmissible phi, unknown profile, negative seed) is an error
    before any trial runs."""
    diag = {"T": 32, "n": 256, "trials": 20}
    for overrides, message in (
        ({"phi": IndexFunction.log_type(1.0)}, "not admissible"),
        ({"target_profile": "spiky"}, "unknown target profile"),
        ({"coeff_seed": -1}, "target seed"),
    ):
        with pytest.raises(ValueError, match=message):
            exp.run_diagnostics(small_config(diagnostics=diag, **overrides))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write_config(tmp_path, **overrides):
    raw = config_dict(**{"outputs": str(tmp_path / "out"), **overrides})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_cli_rate_sweep_deterministic_csv(tmp_path):
    cfg = _write_config(tmp_path, n_grid=[128, 256, 384], repetitions=2)
    assert cli_main(["rate-sweep", "--config", str(cfg)]) == 0
    csv_path = tmp_path / "out" / "rate_sweep.csv"
    body1 = csv_path.read_bytes()
    text = csv_path.read_text()
    assert text.splitlines()[0] == ",".join(exp.RATE_CSV_FIELDS)
    assert "np.float" not in text
    assert cli_main(["rate-sweep", "--config", str(cfg)]) == 0
    assert csv_path.read_bytes() == body1
    assert (tmp_path / "out" / "rate_sweep_summary.txt").exists()
    timing = (tmp_path / "out" / "rate_sweep_timing.csv").read_text().splitlines()
    assert timing[0] == ",".join(exp.TIMING_CSV_FIELDS)
    assert len(timing) == 1 + 3 * 2


def test_cli_seed_override_changes_rows(tmp_path):
    cfg = _write_config(tmp_path, n_grid=[128, 192, 256], repetitions=1)
    cli_main(["rate-sweep", "--config", str(cfg)])
    first = (tmp_path / "out" / "rate_sweep.csv").read_bytes()
    cli_main(["rate-sweep", "--config", str(cfg), "--seed", "999"])
    assert (tmp_path / "out" / "rate_sweep.csv").read_bytes() != first


def test_cli_lambda0_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert cli_main(["lambda0", "--config", str(cfg), "--n", "1024"]) == 0
    out = capsys.readouterr().out
    assert "lambda0=" in out and "m=" in out


def test_cli_bad_config_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"kernel": {"variant": "designed_spectral", "s": 0.5}}))
    assert cli_main(["rate-sweep", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_numerical_error_exits_one(tmp_path, capsys, monkeypatch):
    def fail(config):
        raise NumericalError("factorization failed")

    monkeypatch.setattr(exp, "run_rate_sweep", fail)
    cfg = _write_config(tmp_path)
    assert cli_main(["rate-sweep", "--config", str(cfg)]) == 1
    assert "error: factorization failed" in capsys.readouterr().err


def test_cli_missing_file_exits_one(tmp_path):
    assert cli_main(["rate-sweep", "--config", str(tmp_path / "nope.json")]) == 1


def test_cli_tolerance_failure_exits_two(tmp_path):
    cfg = _write_config(tmp_path, n_grid=[512], repetitions=2, lambda_factor=1e-9)
    assert cli_main(["lambda-sweep", "--config", str(cfg)]) == 2


def test_cli_diagnostics(tmp_path):
    """Four rows; the smoothness row names the phi it checked, which for a
    log_type target is holder(0.5)."""
    for family, r, checked in (("holder", 0.25, "holder,0.25"), ("log_type", 0.4, "holder,0.5")):
        run_dir = tmp_path / family
        run_dir.mkdir()
        cfg = _write_config(
            run_dir, diagnostics={"T": 32, "n": 256, "trials": 10}, target={
                "family": family, "r": r, "coeff_seed": 1,
            },
        )
        assert cli_main(["diagnostics", "--config", str(cfg)]) == 0
        lines = (run_dir / "out" / "diagnostics.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + four checks
        assert ",T,s,phi,r,trials," in lines[0]
        smooth = [line for line in lines if line.startswith("smoothness_perturbation,")]
        assert len(smooth) == 1 and f",0.5,{checked},10," in smooth[0], smooth


def test_cli_reps_override(tmp_path):
    cfg = _write_config(tmp_path, n_grid=[128, 192, 256], repetitions=1)
    assert cli_main(["rate-sweep", "--config", str(cfg), "--reps", "2"]) == 0
    rows = (tmp_path / "out" / "rate_sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3 * 2


def _run_cli(args, blas_threads=1):
    """Run the CLI in a fresh interpreter with a fixed OpenBLAS thread count."""
    env = dict(os.environ)
    src = str(Path(nystrom_krr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return subprocess.run(
        [sys.executable, "-m", "nystrom_krr.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_cli_log_level_shows_jitter_escalation(tmp_path):
    """With m > T the inducing sections span at most T directions and the fit
    keeps only that many; --log-level INFO prints the cut, the default does
    not."""
    cfg = _write_config(
        tmp_path, kernel={"variant": "designed_spectral", "s": 0.5, "truncation": 8},
        n_grid=[64], repetitions=1,
    )
    quiet = _run_cli(["rate-sweep", "--config", str(cfg)])
    loud = _run_cli(["rate-sweep", "--config", str(cfg), "--log-level", "INFO"])
    assert quiet.returncode == loud.returncode == 0
    assert "kept" not in quiet.stderr
    assert re.search(r"INFO nystrom_krr.nystrom: kept \d+ of \d+", loud.stderr)


def test_cli_rejects_bad_config_values(tmp_path, capsys):
    """A config value or section of the wrong type (a number given as a bool or
    a string included), a value out of range or a key that no section reads (a
    misspelt key included, at the top level or in any section) ends in exit 1 and an ``error:`` line naming it: no exception escapes ``main``,
    and no silent FAIL verdict. NaN and Infinity are JSON literals Python's
    reader accepts. Runs in process: ``main`` is the whole CLI below the
    interpreter."""
    rule = {"c": 2.0, "delta": 0.1}
    grid = {"kind": "grid", "values": ["a"]}
    diag = {"T": 32, "n": 256, "trials": 4}
    designed = {"variant": "designed_spectral", "truncation": 64}
    cases = [
        ("rate-sweep", {"size_rule": {**rule, "gamma": "half", "c_gamma": 1.0}}, "size_rule.gamma"),
        ("rate-sweep", {"size_rule": {**rule, "gamma": 0.5, "c_gamma": "x"}}, "size_rule.c_gamma"),
        ("lambda-sweep", {"lambda_policy": grid}, "lambda_policy.values"),
        ("diagnostics", {"diagnostics": {"T": 32, "n": 256, "trials": 0}}, "diagnostics.trials"),
        ("rate-sweep", {"noise": {"variant": "gaussian", "scale": float("nan")}}, "noise scale"),
        ("rate-sweep", {"noise": {"variant": "gaussian", "scale": float("inf")}}, "noise scale"),
        ("rate-sweep", {"noise": {"variant": "gaussian", "scale": "nan"}}, "noise.scale"),
        ("rate-sweep", {"exponent_tolerance": "nan"}, "exponent_tolerance"),
        ("lambda-sweep", {"lambda_factor": -1}, "lambda_factor"),
        ("rate-sweep", {"krr_baseline": "false"}, "krr_baseline"),
        ("diagnostics", {"diagnostics": [1]}, "diagnostics"),
        ("rate-sweep", {"outputs": 5}, "outputs"),
        ("rate-sweep", {"kernel": 5}, "'kernel'"),
        ("rate-sweep", {"target": 5}, "'target'"),
        ("rate-sweep", {"size_rule": []}, "'size_rule'"),
        ("lambda-sweep", {"lambda_policy": 3}, "'lambda_policy'"),
        ("rate-sweep", {"kernel": {"variant": "designed_spectral", "s": [0.5]}}, "kernel.s"),
        ("rate-sweep", {"kernel": {"variant": "gaussian", "bandwidth": None}}, "kernel.bandwidth"),
        ("diagnostics", {"diagnostics": {**diag, "Tx": 3}}, "diagnostics.Tx"),
        ("rate-sweep", {"kernel": {**designed, "s": True}}, "kernel.s"),
        ("lambda-sweep", {"lambda_factor": True}, "lambda_factor"),
        ("lambda-sweep", {"lambda_factor": "3"}, "lambda_factor"),
        ("diagnostics", {"target": {"family": "log_type", "r": 0.75}}, "target.r"),
        ("rate-sweep", {"reps": 7}, "'reps' is not a top-level setting"),
        ("rate-sweep", {"krr_basline": True}, "'krr_basline'"),
        ("rate-sweep", {"target": {**config_dict()["target"], "coef_seed": 9}}, "target.coef_seed"),
        ("rate-sweep", {"size_rule": {**rule, "C": 5}}, "'size_rule.C' is not a size_rule setting"),
        ("rate-sweep", {"noise": {"variant": "gaussian", "scale": 0.1, "sigma": 1}}, "noise.sigma"),
        ("lambda-sweep", {"lambda_policy": {"kind": "lambda0", "vals": [1e-3]}}, "lambda_policy.vals"),
        ("rate-sweep", {"kernel": {**designed, "s": 0.5, "bandwidth": 0.1}}, "kernel.bandwidth"),
        (
            "rate-sweep",
            {"kernel": {"variant": "gaussian", "bandwidth": 0.1, "truncation": 64}},
            "kernel.truncation",
        ),
        ("rate-sweep", {"diagnostics": {**diag, "Tx": 3}}, "diagnostics.Tx"),
    ]
    for i, (command, overrides, key) in enumerate(cases):
        case_dir = tmp_path / str(i)
        case_dir.mkdir()
        code = cli_main([command, "--config", str(_write_config(case_dir, **overrides))])
        stderr = capsys.readouterr().err
        assert code == 1, (overrides, stderr)
        assert "Traceback" not in stderr
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and key in errors[0], (overrides, stderr)


def test_config_counts_and_seeds_are_checked(tmp_path, capsys):
    """Sizes and seeds of a config or the command line go through the same
    checks as the Python API: an ``n_grid`` entry or ``repetitions`` below 1 and
    a negative seed are config errors naming the key, not a failure inside a
    run or inside numpy."""
    for overrides, message in (
        ({"n_grid": [0, 128]}, "'n_grid' must be >= 1"),
        ({"repetitions": 0}, "'repetitions' must be >= 1"),
        ({"seed": -1}, "'seed' must be >= 0"),
        ({"target": {**config_dict()["target"], "coeff_seed": -1}}, "coeff_seed' must be >= 0"),
    ):
        with pytest.raises(ValueError, match=message):
            exp.config_from_dict(config_dict(**overrides))
    cfg = str(_write_config(tmp_path))
    for flags, message in ((["--reps", "0"], "--reps must be >= 1"), (["--seed", "-1"], "--seed")):
        assert cli_main(["rate-sweep", "--config", cfg, *flags]) == 1
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr and f"error: {message}" in stderr, stderr


# Largest relative move allowed between 1 and 2 BLAS threads. Summation order
# inside BLAS changes the last digits of a fit run at two threads: 1e-16 to 2e-16
# relative on two of test_designed_routes_agree_across_blas_threads's four
# cells, up to 1.3e-15 on the criterion-3 sweep's n=16384 cells (measured
# before ``fork_map`` ran a sweep's cells at one thread).
BLAS_THREAD_RTOL = 1e-5


def test_rate_sweep_agrees_across_blas_threads(tmp_path):
    """One small sweep at 1 and at 2 OpenBLAS threads: same exit code and
    verdicts, same integer columns, floats within BLAS_THREAD_RTOL. With
    T = 64 the n = 48 cells solve on the training points' sections and the
    n = 96, 192 cells on the trig-moment covariance; the KRR baseline takes
    the n x n Gram at n = 48 and the T x T closed form at n = 96, 192."""
    runs = []
    for threads in (1, 2):
        run_dir = tmp_path / f"threads{threads}"
        run_dir.mkdir()
        cfg = _write_config(
            run_dir,
            kernel={"variant": "designed_spectral", "s": 0.5, "truncation": 64},
            n_grid=[48, 96, 192], repetitions=2, krr_baseline=True,
        )
        proc = _run_cli(["rate-sweep", "--config", str(cfg)], blas_threads=threads)
        out = run_dir / "out"
        with open(out / "rate_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        verdicts = [
            line.rsplit(":", 1)[1].strip()
            for line in (out / "rate_sweep_summary.txt").read_text().splitlines()
            if line.endswith(("PASS", "FAIL"))
        ]
        runs.append((proc.returncode, verdicts, rows))
    (code1, verdicts1, rows1), (code2, verdicts2, rows2) = runs
    assert code1 == code2 == 0
    assert verdicts1 == verdicts2 and verdicts1
    assert len(rows1) == len(rows2) == 6
    for a, b in zip(rows1, rows2):
        for key in ("n", "rep", "seed", "m", "flops", "warnings"):
            assert a[key] == b[key]
        for key in ("lambda", "error", "krr_error"):
            assert math.isclose(float(a[key]), float(b[key]), rel_tol=BLAS_THREAD_RTOL)


def test_designed_routes_agree_across_blas_threads(monkeypatch):
    """One designed cell per route of the Nystrom fit, fitted in this process
    under ``blas_threads(1)`` and ``blas_threads(2)`` (both libraries read the
    count): n <= T; n > T on the whitened span; n > T with a refused
    certificate, projected onto the rank rule's basis (every inducing point
    repeated once, ``kept 50 of 100``); and m >= T. The exact L2 errors agree
    within BLAS_THREAD_RTOL. The sweep above cannot show this: ``fork_map``
    runs its cells at one thread."""
    kernel = KernelSpec.designed(0.5, 256)
    target = make_target(kernel.decay, 256, IndexFunction.holder(0.25), 7, "power_boundary")
    taken, solve = [], nystrom._whitened_solve

    def spy(*args):
        v_vec = solve(*args)
        taken.append(v_vec is not None)
        return v_vec

    monkeypatch.setattr(nystrom, "_whitened_solve", spy)
    errors = {}
    for threads in (1, 2):
        with blas_threads(threads):
            assert [get() for get, _ in linalg._blas_thread_calls()] == [threads, threads]
            for route, n, m, repeat, whitened in (
                ("n <= T", 200, 100, False, []),
                ("whitened", 2048, 100, False, [True]),
                ("refused", 2048, 100, True, [False]),
                ("m >= T", 2048, 300, False, []),
            ):
                data = sample_dataset(kernel.decay, 256, target, NoiseSpec.gaussian(0.1), n, seed=n + m)
                if repeat:
                    xs = data.xs.copy()
                    xs[m // 2 : m] = xs[: m // 2]
                    data = dataclasses.replace(data, xs=xs)
                taken.clear()
                model = nystrom.fit_nystrom(kernel, data, 1e-3, np.arange(m))
                assert taken == whitened, (route, taken)
                errors.setdefault(route, []).append(l2_rho_error(model, kernel, data))
    for route, (one, two) in errors.items():
        assert math.isclose(one, two, rel_tol=BLAS_THREAD_RTOL), (route, one, two)


# Run in a fresh interpreter: a small rate sweep with the KRR baseline and the
# diagnostics, on one CPU when argv[2] is "pinned"; the rate CSV goes to
# argv[1], every report field to stdout.
_SWEEP_AND_DIAGNOSTICS = """
import dataclasses, json, os, sys
from nystrom_krr import experiments as exp
if sys.argv[2] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
config = exp.config_from_dict({
    "kernel": {"variant": "designed_spectral", "s": 0.5, "truncation": 256},
    "target": {"family": "holder", "r": 0.25, "profile": "power_boundary", "coeff_seed": 7},
    "noise": {"variant": "gaussian", "scale": 0.1},
    "n_grid": [128, 256, 512], "repetitions": 3, "seed": 5, "krr_baseline": True,
    "size_rule": {"c": 2.0, "delta": 0.1}, "lambda_policy": {"kind": "lambda0"},
    "diagnostics": {"T": 128, "n": 512, "trials": 9},
})
_, rows, _, _, _ = exp.run_rate_sweep(config)
exp.write_rows(sys.argv[1], exp.RATE_CSV_FIELDS, rows)
reports, _, _ = exp.run_diagnostics(config)
print(json.dumps([dataclasses.asdict(r) for r in reports]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_rows_are_byte_identical_at_any_cpu_count(tmp_path):
    """The determinism promise: for a fixed config the rows are byte-identical
    at any CPU count when each process runs one BLAS thread. The sweep's
    cells and the diagnostics' trials run once pinned to one CPU (in process)
    and once on every CPU (forked), at 1 and at 2 OpenBLAS threads in the
    environment; each pair writes the same CSV bytes and report fields."""
    env = dict(os.environ)
    src = str(Path(nystrom_krr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        outputs = []
        for cpus in ("pinned", "all"):
            path = tmp_path / f"rate_{threads}_{cpus}.csv"
            proc = subprocess.run(
                [sys.executable, "-c", _SWEEP_AND_DIAGNOSTICS, str(path), cpus],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((path.read_bytes(), proc.stdout))
        (rate_pinned, reports_pinned), (rate_all, reports_all) = outputs
        assert rate_pinned.count(b"\n") == 1 + 3 * 3
        assert rate_pinned == rate_all
        assert json.loads(reports_pinned) and reports_pinned == reports_all
