"""Monte-Carlo checks of the probabilistic operator bounds.

All four checks run in the designed kernel's truncated eigenbasis, where every
operator involved is an explicit T x T matrix:

* a kernel section at x has coordinates ``w(x)_k = sqrt(mu_k) e_k(x)``,
* the empirical covariance is ``S_hat = mean_i w(x_i) w(x_i)^T``,
* the population covariance is ``diag(mu)``,
* the subsample projector P projects onto span{w of the inducing points}.

Checks with an explicit constant (the 3*lambda projection bound, the norm
equivalence threshold 2) are pass/fail per trial and report a violation rate;
bounds with an unspecified generic constant report the (1-delta)-quantile of
the left-hand side divided by the rate factor ``log(1/delta) sqrt(N/n)``
instead. Per-trial seeds spawn from the master seed by trial index, so results
do not depend on execution order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import DecaySpec, KernelSpec, basis_moments, covariance, sections
from .nystrom import SizeRuleParams, subsample_size
from .spectral import IndexFunction, SpectralProfile, effective_dimension
from .synthetic import target_values


@dataclass
class BoundCheckReport:
    bound_name: str
    trials: int
    delta: float
    violation_rate: float
    observed_max_ratio: float
    quantile_ratio: float | None = None
    settings: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)


def _trial_rngs(seed: int, trials: int):
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(trials)]


def _projector(w_rows):
    """Orthogonal projector onto the span of the given coordinate vectors."""
    q, _ = np.linalg.qr(w_rows.T)
    return q @ q.T


def _size_rule_warnings(decay, truncation, n, m, lam, delta) -> list:
    kernel = KernelSpec.designed(decay.s, truncation)
    needed = subsample_size(n, lam, SizeRuleParams(c=1.0, delta=delta), kernel=kernel)
    if m >= needed:
        return []
    return [
        f"subsample size m={m} is below the rule value {needed}; "
        "the bound's premise is not guaranteed"
    ]


def check_projection_bound(
    decay: DecaySpec,
    truncation: int,
    n: int,
    m: int,
    lam: float,
    delta: float,
    trials: int,
    seed: int,
) -> BoundCheckReport:
    """Per trial: is ||sqrt(mu-diag) (I - P)||^2 <= 3 lambda?"""
    warn = _size_rule_warnings(decay, truncation, n, m, lam, delta)
    mu = decay.eigenvalues(truncation)
    root = np.sqrt(mu)
    eye = np.eye(truncation)
    violations = 0
    max_ratio = 0.0
    for rng in _trial_rngs(seed, trials):
        xs = rng.uniform(0.0, 1.0, n)
        idx = rng.choice(n, size=m, replace=False)
        proj = _projector(sections(xs[idx], mu))
        resid = root[:, None] * (eye - proj)
        lhs = np.linalg.norm(resid, 2) ** 2
        max_ratio = max(max_ratio, lhs / (3.0 * lam))
        violations += lhs > 3.0 * lam
    return BoundCheckReport(
        bound_name="projection",
        trials=trials,
        delta=delta,
        violation_rate=float(violations) / trials,
        observed_max_ratio=float(max_ratio),
        settings={"n": n, "m": m, "lambda": lam, "T": truncation, "s": decay.s},
        warnings=warn,
    )


def check_norm_equivalence(
    decay: DecaySpec,
    truncation: int,
    n: int,
    lam: float,
    delta: float,
    trials: int,
    seed: int,
) -> BoundCheckReport:
    """Per trial: is ||(lam I + diag mu)^(1/2) (lam I + S_hat)^(-1/2)|| <= 2?

    Verified in the mixed-power form with the inverse square root on the
    empirical side, which is the form the error analysis consumes.
    """
    mu = decay.eigenvalues(truncation)
    pop_root = np.sqrt(lam + mu)
    violations = 0
    max_ratio = 0.0
    for rng in _trial_rngs(seed, trials):
        s_hat = covariance(rng.uniform(0.0, 1.0, n), mu)
        evals, evecs = np.linalg.eigh(s_hat)
        inv_root = evecs * (lam + np.clip(evals, 0.0, None)) ** -0.5
        lhs = np.linalg.norm(pop_root[:, None] * (inv_root @ evecs.T), 2)
        max_ratio = max(max_ratio, lhs / 2.0)
        violations += lhs > 2.0
    return BoundCheckReport(
        bound_name="norm_equivalence",
        trials=trials,
        delta=delta,
        violation_rate=float(violations) / trials,
        observed_max_ratio=float(max_ratio),
        settings={"n": n, "lambda": lam, "T": truncation, "s": decay.s},
    )


def check_concentration(
    decay: DecaySpec,
    truncation: int,
    n: int,
    lam: float,
    trials: int,
    seed: int,
    which: str = "operator",
    target=None,
    noise=None,
    delta: float = 0.1,
) -> BoundCheckReport:
    """Concentration of the empirical covariance (operator) or of the label
    moment vector (vector) in the warped norm.

    The generic constant in these bounds is unspecified, so the report carries
    the (1-delta)-quantile of lhs / (log(1/delta) sqrt(N(lam)/n)) rather than
    a hard threshold; the violation rate is measured against that factor with
    constant 1 for reference only.
    """
    if which not in ("operator", "vector"):
        raise ValueError(f"which must be 'operator' or 'vector', got {which!r}")
    if which == "vector" and (target is None or noise is None):
        raise ValueError("the vector variant needs a target and a noise spec")
    mu = decay.eigenvalues(truncation)
    warp = (lam + mu) ** -0.5
    profile = SpectralProfile(mu, "analytic")
    rate_factor = math.log(1.0 / delta) * math.sqrt(
        effective_dimension(profile, lam) / n
    )
    lhs_values = []
    for rng in _trial_rngs(seed, trials):
        xs = rng.uniform(0.0, 1.0, n)
        if which == "operator":
            lhs = np.linalg.norm(warp[:, None] * (np.diag(mu) - covariance(xs, mu)), 2)
        else:
            ys = target_values(target, xs) + noise.sample(rng, n)
            pop_vec = np.sqrt(mu) * target.f_coefficients
            emp_vec = np.sqrt(mu) * basis_moments(xs, ys, truncation) / n
            lhs = float(np.linalg.norm(warp * (pop_vec - emp_vec)))
        lhs_values.append(lhs)
    lhs_values = np.asarray(lhs_values)
    quantile = float(np.quantile(lhs_values, 1.0 - delta))
    return BoundCheckReport(
        bound_name=f"concentration_{which}",
        trials=trials,
        delta=delta,
        violation_rate=float(np.mean(lhs_values > rate_factor)),
        observed_max_ratio=float(lhs_values.max() / rate_factor),
        quantile_ratio=quantile / rate_factor,
        settings={"n": n, "lambda": lam, "T": truncation, "s": decay.s},
    )


def check_smoothness_perturbation(
    decay: DecaySpec,
    truncation: int,
    n: int,
    m: int,
    lam: float,
    phi: IndexFunction,
    trials: int,
    seed: int,
    delta: float = 0.1,
) -> BoundCheckReport:
    """Quantile ratio of ||phi(diag mu) - phi(M_P)|| against phi(lambda),
    where M_P is the population covariance compressed by the subsample
    projector."""
    if phi.family != "holder":
        raise NotImplementedError(
            "smoothness perturbation check supports holder index functions only"
        )
    warn = _size_rule_warnings(decay, truncation, n, m, lam, delta)
    mu = decay.eigenvalues(truncation)
    root = np.sqrt(mu)
    phi_pop = np.diag(phi(mu))
    ratios = []
    for rng in _trial_rngs(seed, trials):
        xs = rng.uniform(0.0, 1.0, n)
        idx = rng.choice(n, size=m, replace=False)
        proj = _projector(sections(xs[idx], mu))
        m_p = root[:, None] * proj * root[None, :]
        evals, evecs = np.linalg.eigh(m_p)
        phi_mp = (evecs * phi(np.clip(evals, 0.0, None))) @ evecs.T
        ratios.append(np.linalg.norm(phi_pop - phi_mp, 2) / phi(lam))
    ratios = np.asarray(ratios)
    return BoundCheckReport(
        bound_name="smoothness_perturbation",
        trials=trials,
        delta=delta,
        violation_rate=float(np.mean(ratios > 1.0)),
        observed_max_ratio=float(ratios.max()),
        quantile_ratio=float(np.quantile(ratios, 1.0 - delta)),
        settings={"n": n, "m": m, "lambda": lam, "T": truncation, "s": decay.s, "r": phi.r},
        warnings=warn,
    )


CSV_FIELDS = [
    "bound_name",
    "n",
    "m",
    "lambda",
    "T",
    "s",
    "trials",
    "delta",
    "violation_rate",
    "observed_max_ratio",
    "quantile_ratio",
    "warnings",
]


def report_rows(reports) -> list:
    """One ``CSV_FIELDS`` row per report."""
    return [
        [
            rep.bound_name,
            rep.settings.get("n", ""),
            rep.settings.get("m", ""),
            rep.settings.get("lambda", ""),
            rep.settings.get("T", ""),
            rep.settings.get("s", ""),
            rep.trials,
            rep.delta,
            repr(float(rep.violation_rate)),
            repr(float(rep.observed_max_ratio)),
            "" if rep.quantile_ratio is None else repr(float(rep.quantile_ratio)),
            "; ".join(rep.warnings),
        ]
        for rep in reports
    ]


def reports_to_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        writer.writerows(report_rows(reports))
