"""Monte-Carlo checks of the probabilistic operator bounds.

All four checks run in the designed kernel's truncated eigenbasis, where every
operator involved is an explicit T x T matrix:

* a kernel section at x has coordinates ``w(x)_k = sqrt(mu_k) e_k(x)``,
* the empirical covariance is ``S_hat = mean_i w(x_i) w(x_i)^T``,
* the population covariance is ``M = diag(mu)``,
* the subsample projector P projects onto span{w of the inducing points}; with
  Q an orthonormal basis of that span (one QR of the m x T sections) and
  ``V = M^(1/2) Q``, the compressed covariance ``M^(1/2) P M^(1/2)`` is
  ``V V^T``.

Each per-trial left-hand side is an extreme eigenvalue of one symmetric T x T
matrix, read with ``linalg.sym_eigenvalues``; no projector, SVD norm or T x T
eigenvector is formed. With ``D = (lambda I + M)^(1/2)``:

* projection: ``||M^(1/2) (I - P)||^2 = lambda_max(M - V V^T)``;
* norm equivalence: ``||D (lambda I + S_hat)^(-1/2)||
  = lambda_min(D^-1 (lambda I + S_hat) D^-1)^(-1/2)``;
* concentration: ``||D^-1 (M - S_hat)||^2 = lambda_max(A^T A)``,
  ``A = D^-1 (M - S_hat)``;
* smoothness: the nonzero spectrum of ``V V^T`` is that of the
  min(m, T)-square ``V^T V = Y Sigma^2 Y^T``, so ``phi(V V^T) = U phi(Sigma^2)
  U^T`` with ``U = V Y Sigma^-1``; eigenvalues at or below ``size * eps * max``
  (the pivoted Cholesky's tolerance) are exact zeros, and the left-hand side
  is the largest |eigenvalue| of ``phi(M) - phi(V V^T)``.

The Gram-type products (``V V^T``, ``A^T A``) run as symmetric rank-k updates,
so the matrices handed to ``sym_eigenvalues`` are exactly symmetric.

Checks with an explicit constant (the 3*lambda projection bound, the norm
equivalence threshold 2) are pass/fail per trial and report a violation rate;
bounds with an unspecified generic constant report the (1-delta)-quantile of
the left-hand side divided by the rate factor ``log(1/delta) sqrt(N/n)``
instead. Per-trial seeds spawn from the master seed by trial index, so results
do not depend on execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .kernels import DecaySpec, KernelSpec, basis_moments, covariance, sections
from .linalg import check_integer, check_positive, sym_eigenvalues
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


def _check_settings(truncation, n, m, lam, trials) -> tuple:
    """The one input check of the four bound checks: ``lam`` finite and
    positive; T, n, m (None where no subsample is drawn) and trials integers
    >= 1, with m <= n. Returns T, n, m and trials as ints."""
    check_positive(lam)
    sizes = {"truncation": truncation, "n": n, "m": m, "trials": trials}
    for name, value in sizes.items():
        if value is not None:
            sizes[name] = check_integer(value, name)
            if sizes[name] < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
    if m is not None and sizes["m"] > sizes["n"]:
        raise ValueError(f"subsample size m={m} exceeds the sample size n={n}")
    return tuple(sizes.values())


def _trial_rngs(seed: int, trials: int):
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(trials)]


def _compressed_factor(rng, n: int, m: int, mu) -> np.ndarray:
    """``V = M^(1/2) Q`` for one trial's m inducing points out of n uniform
    draws, Q an orthonormal basis of their sections: ``M^(1/2) P M^(1/2) = V V^T``."""
    xs = rng.uniform(0.0, 1.0, n)
    idx = rng.choice(n, size=m, replace=False)
    q, _ = sla.qr(sections(xs[idx], mu).T, mode="economic", check_finite=False)
    return np.sqrt(mu)[:, None] * q


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
    """Per trial: is ||sqrt(mu-diag) (I - P)||^2 = lambda_max(M - V V^T) <= 3 lambda?"""
    truncation, n, m, trials = _check_settings(truncation, n, m, lam, trials)
    warn = _size_rule_warnings(decay, truncation, n, m, lam, delta)
    mu = decay.eigenvalues(truncation)
    pop = np.diag(mu)
    violations = 0
    max_ratio = 0.0
    for rng in _trial_rngs(seed, trials):
        v = _compressed_factor(rng, n, m, mu)
        lhs = sym_eigenvalues(pop - v @ v.T)[0]
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
    empirical side, which is the form the error analysis consumes, as
    ``lambda_min(D^-1 (lam I + S_hat) D^-1)^(-1/2)``.
    """
    truncation, n, _, trials = _check_settings(truncation, n, None, lam, trials)
    mu = decay.eigenvalues(truncation)
    inv_root = (lam + mu) ** -0.5
    # exactly symmetric, so the scaled matrix is as symmetric as S_hat
    scale = np.outer(inv_root, inv_root)
    # lam D^-2 >= lam / (lam + mu_1) bounds the smallest eigenvalue from below,
    # which keeps a round-off-level lambda from reaching a nonpositive one
    floor = lam / (lam + mu[0])
    violations = 0
    max_ratio = 0.0
    for rng in _trial_rngs(seed, trials):
        shifted = covariance(rng.uniform(0.0, 1.0, n), mu)
        shifted[np.diag_indices(truncation)] += lam
        lhs = max(sym_eigenvalues(shifted * scale)[-1], floor) ** -0.5
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
    truncation, n, _, trials = _check_settings(truncation, n, None, lam, trials)
    mu = decay.eigenvalues(truncation)
    warp = (lam + mu) ** -0.5
    pop = np.diag(mu)
    profile = SpectralProfile(mu, "analytic")
    rate_factor = math.log(1.0 / delta) * math.sqrt(
        effective_dimension(profile, lam) / n
    )
    lhs_values = []
    for rng in _trial_rngs(seed, trials):
        xs = rng.uniform(0.0, 1.0, n)
        if which == "operator":
            a = warp[:, None] * (pop - covariance(xs, mu))
            lhs = math.sqrt(sym_eigenvalues(a.T @ a)[0])
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
    where ``M_P = V V^T`` is the population covariance compressed by the
    subsample projector, with ``phi(M_P)`` from the eigenpairs of ``V^T V``."""
    if phi.family != "holder":
        raise NotImplementedError(
            "smoothness perturbation check supports holder index functions only"
        )
    truncation, n, m, trials = _check_settings(truncation, n, m, lam, trials)
    warn = _size_rule_warnings(decay, truncation, n, m, lam, delta)
    mu = decay.eigenvalues(truncation)
    phi_pop = np.diag(phi(mu))
    eps = np.finfo(np.float64).eps
    ratios = []
    for rng in _trial_rngs(seed, trials):
        v = _compressed_factor(rng, n, m, mu)
        sig2, y = np.linalg.eigh(v.T @ v)
        # at or below the pivoted Cholesky's tolerance an eigenvalue is an
        # exact zero, so phi (steep at 0) never sees round-off
        keep = sig2 > sig2.size * eps * sig2[-1]
        # U phi(Sigma^2)^(1/2), so that phi(M_P) is one symmetric product
        half = v @ (y[:, keep] * np.sqrt(phi(sig2[keep]) / sig2[keep]))
        evals = sym_eigenvalues(phi_pop - half @ half.T)
        ratios.append(max(evals[0], -evals[-1]) / phi(lam))
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

