"""Config-driven sweeps: learning rates, cost scaling, lambda sensitivity.

Every sweep writes one CSV (documented headers, deterministic bytes for a
fixed config) plus human-readable summary lines with pass/fail verdicts
against the configured tolerances. Cells of a sweep are keyed by
(grid index, repetition); per-cell randomness spawns from the master seed by
that key, so results do not depend on execution order. The cells run in
``linalg.fork_map``, one process per CPU and one BLAS thread per process, and
each sends back its numbers, not arrays: for a fixed config the rows are
byte-identical at any CPU count when each process runs one BLAS thread. A
cell's ``wall_ms`` is timed in the process that ran it and goes to the timing
file, not the rows.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import krr, nystrom
from .diagnostics import check_all_bounds
from .kernels import KernelSpec
from .linalg import _check_keys, check_count, check_number, check_positive, check_seed, fork_map
from .nystrom import SizeRuleParams, lambda_admissible, subsample_plain, subsample_size
from .spectral import (
    IndexFunction,
    analytic_profile,
    c_gamma_for_designed,
    lambda0,
)
from .synthetic import NoiseSpec, check_target, l2_rho_error, make_target, sample_dataset


@dataclass(frozen=True)
class LambdaPolicy:
    kind: str  # "lambda0" | "fixed" | "grid"
    value: float | None = None
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("lambda0", "fixed", "grid"):
            raise ValueError(f"unknown lambda policy: {self.kind!r}")
        if self.kind == "fixed":
            if self.value is None:
                raise ValueError("fixed lambda policy needs a 'value'")
            check_positive(self.value, "fixed lambda policy 'value'")
        if self.kind == "grid" and len(self.values) == 0:
            raise ValueError("grid lambda policy needs nonempty 'values'")
        for value in self.values:
            check_positive(value, "grid lambda policy 'values'")
        if len(set(self.values)) < len(self.values):
            # a repeat would be a second grid point with the same lambda
            raise ValueError(f"grid lambda policy 'values' repeats a value: {self.values}")


@dataclass
class ExperimentConfig:
    kernel: KernelSpec
    phi: IndexFunction
    target_profile: str
    coeff_seed: int
    noise: NoiseSpec
    n_grid: list
    repetitions: int
    seed: int
    size_rule: SizeRuleParams
    lambda_policy: LambdaPolicy
    outputs: str = "out"
    krr_baseline: bool = False
    gamma: float | None = None
    lambda_factor: float = 3.0
    exponent_tolerance: float = 0.15
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        _typed(self.krr_baseline, bool, "krr_baseline", "true or false")
        self.gamma = _optional(self.gamma, "gamma")
        if len(self.n_grid) == 0:
            raise ValueError("n_grid must be nonempty")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        check_count(self.repetitions, "repetitions")
        check_positive(self.lambda_factor, "lambda_factor")
        check_positive(self.exponent_tolerance, "exponent_tolerance")


def _require(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise ValueError(f"config error: missing '{key}' in {context}")
    return cfg[key]


def _number(value, name: str) -> float:
    """A config value as a float; anything but a JSON number (a bool, a string
    such as ``"3"``) is a config error."""
    return check_number(value, f"config error: '{name}'")


def _typed(value, kind: type, name: str, what: str):
    """A config value of JSON type ``kind`` (``what`` names it); any other is a
    config error, so ``"false"`` is not read as true nor ``5`` as a path."""
    if not isinstance(value, kind):
        raise ValueError(f"config error: '{name}' must be {what}, got {value!r}")
    return value


def _optional(value, name: str):
    return None if value is None else _number(value, name)


# The keys each config object reads; config_from_dict rejects any other.
_TOP_KEYS = ("kernel", "target", "noise", "n_grid", "repetitions", "seed", "size_rule",
             "lambda_policy", "outputs", "krr_baseline", "gamma", "lambda_factor",
             "exponent_tolerance", "diagnostics")
_DIAGNOSTICS_KEYS = ("T", "n", "trials", "delta", "lambda")


def config_from_dict(raw: dict) -> ExperimentConfig:
    _check_keys(_typed(raw, dict, "config", "an object"), _TOP_KEYS)
    kernel_cfg = _typed(_require(raw, "kernel", "top level"), dict, "kernel", "an object")
    kernel = KernelSpec.from_config(kernel_cfg)
    tgt = _typed(_require(raw, "target", "top level"), dict, "target", "an object")
    _check_keys(tgt, ("family", "r", "profile", "coeff_seed"), "target")
    r = _number(_require(tgt, "r", "target"), "target.r")
    phi = IndexFunction(_require(tgt, "family", "target"), r)
    # a log_type r in (1/2, 1] is a valid IndexFunction but no admissible target
    if not phi.is_admissible():
        raise ValueError(f"config error: 'target.r' must be in (0, 1/2], got {r!r}")
    noise_cfg = _typed(_require(raw, "noise", "top level"), dict, "noise", "an object")
    _check_keys(noise_cfg, ("variant", "scale"), "noise")
    noise = NoiseSpec(
        _require(noise_cfg, "variant", "noise"),
        _number(_require(noise_cfg, "scale", "noise"), "noise.scale"),
    )
    rule_cfg = _typed(raw.get("size_rule", {}), dict, "size_rule", "an object")
    _check_keys(rule_cfg, ("c", "delta", "gamma", "c_gamma"), "size_rule")
    size_rule = SizeRuleParams(
        c=_number(rule_cfg.get("c", 1.0), "size_rule.c"),
        delta=_number(rule_cfg.get("delta", 0.1), "size_rule.delta"),
        gamma=_optional(rule_cfg.get("gamma"), "size_rule.gamma"),
        c_gamma=_optional(rule_cfg.get("c_gamma"), "size_rule.c_gamma"),
    )
    pol_cfg = _typed(
        raw.get("lambda_policy", {"kind": "lambda0"}), dict, "lambda_policy", "an object"
    )
    _check_keys(pol_cfg, ("kind", "value", "values"), "lambda_policy")
    lam_values = _typed(pol_cfg.get("values", []), list, "lambda_policy.values", "a list")
    policy = LambdaPolicy(
        kind=_require(pol_cfg, "kind", "lambda_policy"),
        value=_optional(pol_cfg.get("value"), "lambda_policy.value"),
        values=tuple(_number(v, "lambda_policy.values") for v in lam_values),
    )
    n_grid = _typed(_require(raw, "n_grid", "top level"), list, "n_grid", "a list")
    diagnostics = _typed(raw.get("diagnostics", {}), dict, "diagnostics", "an object")
    _check_keys(diagnostics, _DIAGNOSTICS_KEYS, "diagnostics")
    return ExperimentConfig(
        kernel=kernel,
        phi=phi,
        target_profile=tgt.get("profile", "sphere"),
        coeff_seed=check_seed(tgt.get("coeff_seed", 0), "config error: 'target.coeff_seed'"),
        noise=noise,
        n_grid=[check_count(n, "config error: 'n_grid'") for n in n_grid],
        repetitions=check_count(raw.get("repetitions", 1), "config error: 'repetitions'"),
        seed=check_seed(raw.get("seed", 0), "config error: 'seed'"),
        size_rule=size_rule,
        lambda_policy=policy,
        outputs=_typed(raw.get("outputs", "out"), str, "outputs", "a string"),
        krr_baseline=raw.get("krr_baseline", False),
        gamma=raw.get("gamma"),
        lambda_factor=_number(raw.get("lambda_factor", 3.0), "lambda_factor"),
        exponent_tolerance=_number(raw.get("exponent_tolerance", 0.15), "exponent_tolerance"),
        diagnostics=diagnostics,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config error: {path} is not valid JSON ({exc})") from exc
    return config_from_dict(raw)


@dataclass
class RateFitResult:
    exponent: float
    r_squared: float
    points: list  # (log n, log median error)

    def __post_init__(self):
        if len(self.points) < 3:
            raise ValueError("a rate fit needs at least 3 grid points")


def _lstsq_r2(design, y):
    """Least-squares coefficients of ``y ~ design`` and the fit's r^2."""
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coeffs
    total = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - float(np.sum(resid**2)) / float(total) if total > 0 else 1.0
    return coeffs, r2


def fit_loglog(ns, values) -> RateFitResult:
    ns = np.asarray(ns, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    x, y = np.log(ns), np.log(vals)
    coeffs, r2 = _lstsq_r2(np.vstack([np.ones_like(x), x]).T, y)
    return RateFitResult(
        exponent=float(coeffs[1]),
        r_squared=r2,
        points=list(zip(x.tolist(), y.tolist())),
    )


def fit_loglog_with_loglog_covariate(ns, values) -> tuple[float, float]:
    """Slope on log n after absorbing a log log n term; returns (slope, r2)."""
    ns = np.asarray(ns, dtype=np.float64)
    x, y = np.log(ns), np.log(np.asarray(values, dtype=np.float64))
    coeffs, r2 = _lstsq_r2(np.vstack([np.ones_like(x), x, np.log(x)]).T, y)
    return float(coeffs[1]), r2


def _cell_values(config: ExperimentConfig, grid, target, seeds, krr_baseline: bool, cell: int):
    """One cell's numbers ``(error, krr_error, flops, wall_ms)``; ``krr_error``
    is None without the baseline.

    Cell ``index * repetitions + rep`` spawns its dataset and subsample seeds
    from its own master-seed child, samples the dataset, draws ``m`` inducing
    points, fits Nystrom (``wall_ms`` times subsample+fit) and takes the exact
    error, and with ``krr_baseline`` that of full KRR on the same data."""
    n, m, lam, _ = grid[cell // config.repetitions]
    ds_seed, sub_seed = seeds[cell].spawn(2)
    data = sample_dataset(
        config.kernel.decay, config.kernel.truncation, target, config.noise, n, ds_seed
    )
    t0 = time.perf_counter()
    idx = subsample_plain(n, m, sub_seed)
    model = nystrom.fit_nystrom(config.kernel, data, lam, idx)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    err = l2_rho_error(model, config.kernel, data)
    krr_err = None
    if krr_baseline:
        krr_err = l2_rho_error(krr.fit_krr(config.kernel, data, lam), config.kernel, data)
    krr._drop_cell()  # no other cell reads this one's factor
    return err, krr_err, model.opcount.flops, wall_ms


def _sweep_cells(config: ExperimentConfig, grid, krr_baseline: bool = False):
    """Run every cell of a sweep over ``grid``, a list of
    ``(n, m, lambda, warnings)``, ``warnings`` being its rows' field.

    The cells go to ``linalg.fork_map`` largest n (then m) first, so the
    cheapest are the last to start; each sends back only its numbers
    (``_cell_values``). Returns ``(cells, medians, timing)``:
    - ``cells``, in cell order, ``(head, error, krr_error, flops, warnings)``,
      ``head`` the CSV row prefix ``[n, rep, seed key, m, repr(lambda)]``;
    - ``medians``, ``(errors, flops)``: per grid point, the median error and
      the median flops of its cells;
    - ``timing``, the ``TIMING_CSV_FIELDS`` rows, each wall_ms timed in the
      process that ran the cell.
    """
    target = make_target(
        config.kernel.decay,
        config.kernel.truncation,
        config.phi,
        config.coeff_seed,
        profile=config.target_profile,
    )
    reps = config.repetitions
    seeds = np.random.SeedSequence(config.seed).spawn(len(grid) * reps)
    order = sorted(range(len(seeds)), key=lambda cell: grid[cell // reps][:2], reverse=True)
    run = partial(_cell_values, config, grid, target, seeds, krr_baseline)
    results = [values for _, values in sorted(zip(order, fork_map(run, order)))]
    cells, timing = [], []
    for cell, (err, krr_err, flops, wall_ms) in enumerate(results):
        rep = cell % reps
        n, m, lam, warnings = grid[cell // reps]
        head = [n, rep, f"{config.seed}:{cell}", m, repr(lam)]
        cells.append((head, err, krr_err, flops, warnings))
        timing.append([n, rep, f"{wall_ms:.1f}"])
    # cell index * reps + rep: each grid point's cells are one row of reps
    per_point = np.reshape([(err, flops) for err, _, flops, _ in results], (len(grid), reps, 2))
    return cells, np.median(per_point, axis=1).T.tolist(), timing


def _resolve_lambda(config: ExperimentConfig, n: int) -> float:
    policy = config.lambda_policy
    if policy.kind == "fixed":
        return policy.value
    if policy.kind == "lambda0":
        profile = analytic_profile(config.kernel.decay, config.kernel.truncation)
        return lambda0(profile, n)
    raise ValueError("grid lambda policy is only meaningful for the lambda sweep")


def _require_designed(config: ExperimentConfig, what: str):
    if not config.kernel.is_designed:
        raise ValueError(f"{what} needs a designed_spectral kernel for exact errors")


def _row_warnings(config: ExperimentConfig, m: int, warning: str) -> str:
    """A row's ``warning`` (may be empty), joined by ``; `` with the flag of a
    cell whose m >= T inducing sections make it full KRR, not a subsample."""
    flag = "m >= T: estimator equals full KRR" if m >= config.kernel.truncation else ""
    return "; ".join(w for w in (warning, flag) if w)


# The result CSVs are byte-identical across re-runs with the same config and
# seed; wall-clock goes to a companion timing file instead of the result rows.
RATE_CSV_FIELDS = ["n", "rep", "seed", "m", "lambda", "error", "krr_error", "flops", "warnings"]
TIMING_CSV_FIELDS = ["n", "rep", "wall_ms"]


def write_rows(path, fields, rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)


def run_rate_sweep(config: ExperimentConfig):
    """Error vs sample size at the configured lambda policy and size rule.

    Returns (fit, rows, timing, summary_lines, passed); ``fit`` is None when
    the grid has fewer than 3 points. The verdict compares the fitted
    exponent against the theoretical ``-r/(s+1)`` within the configured
    tolerance.
    """
    _require_designed(config, "rate sweep")
    delta = config.size_rule.delta
    top_eig = float(config.kernel.eigenvalues()[0])
    grid = []
    for n in config.n_grid:
        lam = _resolve_lambda(config, n)
        m = subsample_size(n, lam, config.size_rule, kernel=config.kernel)
        admissible = lambda_admissible(lam, n, delta, top_eig)
        warn = "" if admissible else "lambda outside admissible window"
        grid.append((n, m, lam, _row_warnings(config, m, warn)))
    cells, (errors, _), timing = _sweep_cells(config, grid, config.krr_baseline)
    rows = [
        head + [repr(err), "" if krr_err is None else repr(krr_err), flops, warnings]
        for head, err, krr_err, flops, warnings in cells
    ]

    fit = fit_loglog(config.n_grid, errors) if len(config.n_grid) >= 3 else None
    passed = True
    if fit is None:
        summary = ["rate sweep: fewer than 3 grid points, no exponent fit"]
    else:
        summary = [
            f"rate sweep: fitted exponent {fit.exponent:.4f} (r^2 {fit.r_squared:.4f})"
        ]
        if config.phi.family == "holder":
            expected = -config.phi.r / (config.kernel.decay.s + 1.0)
            ok_exp = abs(fit.exponent - expected) <= config.exponent_tolerance
            ok_fit = fit.r_squared >= 0.9
            passed = ok_exp and ok_fit
            summary.append(
                f"expected exponent {expected:.4f}, tolerance {config.exponent_tolerance}: "
                f"{'PASS' if ok_exp else 'FAIL'}"
            )
            summary.append(f"r^2 >= 0.9: {'PASS' if ok_fit else 'FAIL'}")
        if len(config.n_grid) < 5:
            summary.append("note: fewer than 5 grid points, exponent fit is indicative only")
    return fit, rows, timing, summary, passed


COST_CSV_FIELDS = ["n", "rep", "seed", "m", "lambda", "c_gamma", "error", "flops", "warnings"]


def run_cost_sweep(config: ExperimentConfig):
    """Flops vs sample size with the power-type envelope in the size rule.

    The subsample size uses ``c_gamma^2 lambda0^(gamma-1)`` with ``c_gamma``
    computed from the kernel's decay; the fitted flop exponent (log n slope
    with a log log n covariate) is compared against the predicted
    ``(3 + s - 2 gamma) / (1 + s)``.

    Returns (slope, predicted, rows, timing, summary_lines, passed); ``slope``
    is None, with no verdict, when the grid has fewer than 4 points.
    """
    _require_designed(config, "cost sweep")
    if config.gamma is None:
        raise ValueError("cost sweep needs 'gamma' in the config")
    s = config.kernel.decay.s
    gamma = config.gamma
    bound = c_gamma_for_designed(config.kernel.decay, config.kernel.truncation, gamma)
    rule = replace(config.size_rule, gamma=gamma, c_gamma=bound.c_gamma)
    subquadratic = 2.0 * gamma + s > 1.0
    warn = "" if subquadratic else "no subquadratic guarantee (2 gamma + s <= 1)"
    grid = []
    for n in config.n_grid:
        lam = _resolve_lambda(config, n)
        m = subsample_size(n, lam, rule, kernel=config.kernel)
        grid.append((n, m, lam, _row_warnings(config, m, warn)))
    cells, (_, flops_per_n), timing = _sweep_cells(config, grid)
    rows = [
        head + [repr(bound.c_gamma), repr(err), flops, warnings]
        for head, err, _, flops, warnings in cells
    ]

    predicted = (3.0 + s - 2.0 * gamma) / (1.0 + s)
    notes = [] if subquadratic else ["warning: 2 gamma + s <= 1, no subquadratic guarantee"]
    if len(config.n_grid) < 4:
        # three coefficients (intercept, log n, log log n): three points fit exactly
        head = f"cost sweep: fewer than 4 grid points, no exponent fit, predicted {predicted:.4f}"
        return None, predicted, rows, timing, [head, *notes], True
    slope, r2 = fit_loglog_with_loglog_covariate(config.n_grid, flops_per_n)
    passed = abs(slope - predicted) <= 0.2 and slope < 1.8 if subquadratic else True
    summary = [
        f"cost sweep: fitted flop exponent {slope:.4f} (r^2 {r2:.4f}), "
        f"predicted {predicted:.4f}",
        *notes,
        f"exponent within 0.2 of prediction and < 1.8: {'PASS' if passed else 'FAIL'}",
    ]
    return slope, predicted, rows, timing, summary, passed


LAMBDA_CSV_FIELDS = ["lambda", "n", "seed", "m", "median_error", "median_flops", "is_lambda0", "warnings"]


def run_lambda_sensitivity(config: ExperimentConfig):
    """Median error across a lambda grid around lambda0 at fixed n.

    Uses the last entry of n_grid; the verdict checks that the error at
    lambda0 stays within ``lambda_factor`` of the grid minimum.
    """
    _require_designed(config, "lambda sweep")
    n = config.n_grid[-1]
    profile = analytic_profile(config.kernel.decay, config.kernel.truncation)
    lam0 = lambda0(profile, n)
    if config.lambda_policy.kind == "grid":
        lam_grid = sorted(config.lambda_policy.values)
    else:
        lam_grid = np.logspace(
            math.log10(lam0 / 100.0), math.log10(lam0 * 100.0), 15
        ).tolist()
    if lam0 not in lam_grid:
        lam_grid = sorted(set(lam_grid) | {lam0})
    grid = []
    for lam in lam_grid:
        m = subsample_size(n, min(lam, 0.999), config.size_rule, kernel=config.kernel)
        grid.append((n, m, lam, _row_warnings(config, m, "")))
    errors, flops = _sweep_cells(config, grid)[1]
    rows, medians = [], {}
    for i_l, ((_, m, lam, warnings), med, med_flops) in enumerate(zip(grid, errors, flops)):
        medians[lam] = med
        rows.append(
            [
                repr(lam),
                n,
                f"{config.seed}:{i_l}",
                m,
                repr(med),
                int(med_flops),
                int(lam == lam0),
                warnings,
            ]
        )
    best = min(medians.values())
    at_lam0 = medians[lam0]
    passed = at_lam0 <= config.lambda_factor * best
    summary = [
        f"lambda sweep at n={n}: error(lambda0)={at_lam0:.5f}, grid min={best:.5f}, "
        f"factor {at_lam0 / best:.3f} (tolerance {config.lambda_factor}): "
        f"{'PASS' if passed else 'FAIL'}"
    ]
    return rows, summary, passed


def run_diagnostics(config: ExperimentConfig):
    """The four operator-bound checks at the configured settings, one draw per trial."""
    _require_designed(config, "diagnostics")
    d = config.diagnostics
    _check_keys(d, _DIAGNOSTICS_KEYS, "diagnostics")
    truncation = check_count(d.get("T", 256), "config error: 'diagnostics.T'")
    n = check_count(d.get("n", 2048), "config error: 'diagnostics.n'")
    trials = check_count(d.get("trials", 200), "config error: 'diagnostics.trials'")
    delta = _number(d.get("delta", 0.1), "diagnostics.delta")
    decay = config.kernel.decay
    profile = analytic_profile(decay, truncation)
    lam = _number(d.get("lambda", lambda0(profile, n)), "diagnostics.lambda")
    kernel = KernelSpec.designed(decay.s, truncation)
    m = subsample_size(n, lam, SizeRuleParams(c=1.0, delta=delta), kernel=kernel)
    # no check reads the target; an invalid one is still an error
    check_target(config.phi, config.target_profile, config.coeff_seed)
    phi = config.phi if config.phi.family == "holder" else IndexFunction.holder(0.5)
    reports = check_all_bounds(decay, truncation, n, m, lam, phi, delta, trials, config.seed)
    summary = [
        f"{r.bound_name}: violation_rate={r.violation_rate:.3f} "
        f"max_ratio={r.observed_max_ratio:.3f}"
        for r in reports
    ]
    if phi is not config.phi:
        summary.append(f"smoothness_perturbation checked phi {phi.family} r={phi.r:g} in place "
                       f"of the configured {config.phi.family} r={config.phi.r:g}")
    passed = all(
        r.violation_rate <= r.delta + 0.05
        for r in reports
        if r.bound_name in ("projection", "norm_equivalence")
    )
    return reports, summary, passed


def write_summary(path, lines) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

