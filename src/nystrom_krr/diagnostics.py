"""Monte-Carlo checks of the probabilistic operator bounds.

All four checks run in the designed kernel's truncated eigenbasis, where every
operator involved is an explicit T x T matrix:

* a kernel section at x has coordinates ``w(x)_k = sqrt(mu_k) e_k(x)``,
* the empirical covariance is ``S_hat = mean_i w(x_i) w(x_i)^T``,
* the population covariance is ``M = diag(mu)``,
* the subsample projector P projects onto span{w of the inducing points}. One
  Householder QR of the T x m sections gives the full orthogonal
  ``[Q Q_perp]``: Q (T x min(m, T)) spans the inducing sections and
  ``Q_perp`` (T x (T - m), empty at m >= T) their complement, so
  ``I - P = Q_perp Q_perp^T``. With ``V = M^(1/2) Q`` the compressed
  covariance ``M^(1/2) P M^(1/2)`` is ``V V^T``.

Each per-trial left-hand side is one end of the spectrum of one symmetric
matrix, read with ``linalg.sym_extremes`` (a tridiagonal reduction and two
bisections, not the whole spectrum); no projector, SVD norm or T x T
eigenvector is formed. With ``D = (lambda I + M)^(1/2)`` and
``B = M^(1/2) Q_perp``:

* projection: ``||M^(1/2) (I - P)||^2 = lambda_max(B^T B)``, a
  (T - m)-square matrix (0 at m >= T). Its nonzero spectrum is that of
  ``M - V V^T``, the T x T matrix it replaces: at the README settings
  (T = 256, m = 189) that is 67 x 67;
* norm equivalence: ``||D (lambda I + S_hat)^(-1/2)||
  = lambda_min(D^-1 (lambda I + S_hat) D^-1)^(-1/2)``;
* concentration: ``||D^-1 (M - S_hat)||^2 = lambda_max(A^T A)``,
  ``A = D^-1 (M - S_hat)``;
* smoothness: the nonzero spectrum of ``V V^T`` is that of the
  min(m, T)-square ``V^T V = Y Sigma^2 Y^T``, so ``phi(V V^T) = U phi(Sigma^2)
  U^T`` with ``U = V Y Sigma^-1``; eigenvalues at or below ``size * eps * max``
  (twice ``dpstrf``'s tolerance ``size * u * max``, u = eps / 2) are exact
  zeros, and the left-hand side is the larger of ``lambda_max`` and
  ``-lambda_min`` of ``phi(M) - phi(V V^T)``.

The Gram-type products (``B^T B``, ``A^T A`` and the one forming
``phi(V V^T)``) run as symmetric rank-k updates, so the matrices handed to
``sym_extremes`` are exactly symmetric.

Checks with an explicit constant (the 3*lambda projection bound, the norm
equivalence threshold 2) are pass/fail per trial and report a violation rate;
bounds with an unspecified generic constant report the (1-delta)-quantile of
the left-hand side divided by the rate factor ``log(1/delta) sqrt(N/n)``
instead. Per-trial seeds spawn from the master seed by trial index, so results
do not depend on execution order.

One map runs the trials of the checks in a call, drawing each trial once: the
n uniform points, then the m inducing indices when a check uses a subsample,
then the label noise (vector concentration only). ``S_hat`` and the QR (with
``V`` and ``B`` read from it) are built at most once per trial and shared by
the checks run together (``check_all_bounds``); with the points drawn first, a
report does not depend on which other checks run beside it. The map is
``linalg.fork_map``: the trials are shared by one process per CPU, each at one
BLAS thread, and every trial sends back only its left-hand sides, so a report
is bit-identical at any CPU count.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.linalg as sla

from .kernels import DecaySpec, KernelSpec, basis_moments, covariance, sections
from .linalg import check_count, check_fraction, check_positive, check_seed, fork_map, sym_extremes
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


def _queried(routine, *args):
    """A LAPACK call run with the workspace it asks for, as ``sla.qr`` runs its
    own; the wrappers' default workspace runs the unblocked code."""
    lwork = int(routine(*args, lwork=-1)[-2][0])
    return routine(*args, lwork=lwork)[0]


class _Draw:
    """One trial's draw: n uniform points, then m inducing indices unless m is
    None. ``s_hat``, ``v`` and ``perp`` are built on first use, once per trial,
    the last two from one QR."""

    def __init__(self, rng, n: int, m: int | None, mu):
        self.rng, self.mu, self.xs = rng, mu, rng.uniform(0.0, 1.0, n)
        self.idx = None if m is None else rng.choice(n, size=m, replace=False)

    @cached_property
    def s_hat(self) -> np.ndarray:
        return covariance(self.xs, self.mu)

    @cached_property
    def _qr(self) -> tuple:
        """The Householder reflectors and their factors of the T x m inducing
        sections (``geqrf``)."""
        (qr, tau), _ = sla.qr(sections(self.xs[self.idx], self.mu).T, mode="raw", check_finite=False)
        return qr, tau

    @cached_property
    def v(self) -> np.ndarray:
        """``M^(1/2) Q``, Q the T x min(m, T) economic factor: bit for bit the
        one ``sla.qr(mode="economic")`` forms with the same ``dorgqr`` call."""
        qr, tau = self._qr
        return np.sqrt(self.mu)[:, None] * _queried(sla.lapack.dorgqr, qr[:, : tau.size], tau)

    @cached_property
    def perp(self) -> np.ndarray:
        """``M^(1/2) Q_perp``, Q_perp the T x (T - m) rest of the full Q (empty
        at m >= T): the reflectors applied to ``[0; I]`` (``dormqr``)."""
        qr, tau = self._qr
        rows, k = qr.shape[0], tau.size
        if k == rows:
            return np.empty((rows, 0))
        unit = np.eye(rows, rows - k, -k, order="F")
        return np.sqrt(self.mu)[:, None] * _queried(sla.lapack.dormqr, "L", "N", qr, tau, unit)


# A bound: its left-hand side as a function of a ``_Draw``, the scale it is read
# against, whether its constant is generic (so the quantile is reported too),
# whether it reads the subsample, and the settings only its report carries.
_Check = namedtuple("_Check", "name lhs scale generic subsample settings", defaults=(False, False, {}))


def _projection(mu, lam, **_) -> _Check:
    def lhs(d):
        return sym_extremes(d.perp.T @ d.perp)[1] if d.perp.size else 0.0

    return _Check("projection", lhs, 3.0 * lam, subsample=True)


def _norm_equivalence(mu, lam, **_) -> _Check:
    inv_root = (lam + mu) ** -0.5
    # exactly symmetric, so the scaled matrix is as symmetric as S_hat
    scale = np.outer(inv_root, inv_root)
    # lam D^-2 >= lam / (lam + mu_1) bounds the smallest eigenvalue from below,
    # which keeps a round-off-level lambda from reaching a nonpositive one
    floor, shift = lam / (lam + mu[0]), lam * np.eye(mu.size)
    lhs = lambda d: max(sym_extremes((d.s_hat + shift) * scale)[0], floor) ** -0.5  # noqa: E731
    return _Check("norm_equivalence", lhs, 2.0)


def _concentration(which, target, noise, mu, n, lam, delta) -> _Check:
    warp, pop = (lam + mu) ** -0.5, np.diag(mu)
    profile = SpectralProfile(mu, "analytic")
    rate_factor = math.log(1.0 / delta) * math.sqrt(effective_dimension(profile, lam) / n)

    def lhs(d):
        if which == "operator":
            a = warp[:, None] * (pop - d.s_hat)
            return math.sqrt(sym_extremes(a.T @ a)[1])
        ys = target_values(target, d.xs) + noise.sample(d.rng, n)
        emp_vec = np.sqrt(mu) * basis_moments(d.xs, ys, mu.size) / n
        return float(np.linalg.norm(warp * (np.sqrt(mu) * target.f_coefficients - emp_vec)))

    return _Check(f"concentration_{which}", lhs, rate_factor, generic=True)


def _smoothness(phi, mu, lam, **_) -> _Check:
    if phi.family != "holder":
        raise NotImplementedError(
            "smoothness perturbation check supports holder index functions only"
        )
    phi_pop = np.diag(phi(mu))

    def lhs(d):
        sig2, y = np.linalg.eigh(d.v.T @ d.v)
        # at or below size * eps * max (twice dpstrf's size * u * max, u = eps / 2)
        # an eigenvalue is an exact zero, so phi (steep at 0) never sees round-off
        keep = sig2 > sig2.size * np.finfo(np.float64).eps * sig2[-1]
        # U phi(Sigma^2)^(1/2), so that phi(M_P) is one symmetric product
        half = d.v @ (y[:, keep] * np.sqrt(phi(sig2[keep]) / sig2[keep]))
        lo, hi = sym_extremes(phi_pop - half @ half.T)
        return max(hi, -lo)

    settings = {"phi": phi.family, "r": phi.r}
    return _Check("smoothness_perturbation", lhs, phi(lam), True, True, settings)


def _report(check: _Check, lhs, delta, common, warnings) -> BoundCheckReport:
    """The one report builder: the share of trials with ``lhs > scale``, the
    largest ``lhs / scale`` and, for a generic constant, the quantile's."""
    quantile = np.quantile(lhs, 1.0 - delta) / check.scale if check.generic else None
    return BoundCheckReport(
        bound_name=check.name,
        trials=lhs.size,
        delta=delta,
        violation_rate=float(np.mean(lhs > check.scale)),
        observed_max_ratio=float(max(0.0, lhs.max()) / check.scale),
        quantile_ratio=None if quantile is None else float(quantile),
        settings={k: v for k, v in common.items() if k != "m" or check.subsample} | check.settings,
        warnings=warnings if check.subsample else [],
    )


def _trial(checks, n, m, mu, seed) -> list:
    """Every check's left-hand side on one trial's draw."""
    draw = _Draw(np.random.default_rng(seed), n, m, mu)
    return [check.lhs(draw) for check in checks]


def _run_checks(decay, truncation, n, m, lam, delta, trials, seed, makers) -> list:
    """The one trial map: one report per check ``make(mu=, n=, lam=, delta=)``,
    each read from every trial's one ``_Draw`` (``_trial``, run by
    ``fork_map``). First the one input check: ``lam`` finite and positive,
    ``delta`` in (0, 1), T, n, m (None where no check uses a subsample) and
    trials integers >= 1, with m <= n, and the seed (``check_seed``)."""
    check_positive(lam)
    check_fraction(delta, "delta")
    sizes = {"truncation": truncation, "n": n, "m": m, "trials": trials}
    sizes = {k: v if v is None else check_count(v, k) for k, v in sizes.items()}
    seed = check_seed(seed)
    if m is not None and sizes["m"] > sizes["n"]:
        raise ValueError(f"subsample size m={m} exceeds the sample size n={n}")
    truncation, n, m, trials = sizes.values()
    mu = decay.eigenvalues(truncation)
    checks = [make(mu=mu, n=n, lam=lam, delta=delta) for make in makers]
    warnings = []
    if m is not None:
        kernel = KernelSpec.designed(decay.s, truncation)
        needed = subsample_size(n, lam, SizeRuleParams(c=1.0, delta=delta), kernel=kernel)
        if m < needed:
            warnings.append(
                f"subsample size m={m} is below the rule value {needed}; "
                "the bound's premise is not guaranteed"
            )
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    trial = partial(_trial, checks, n, m, mu)
    lhs = np.array(fork_map(trial, root.spawn(trials)), dtype=np.float64).T
    common = {"n": n, "m": m, "lambda": lam, "T": truncation, "s": decay.s}
    return [_report(check, values, delta, common, warnings) for check, values in zip(checks, lhs)]


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
    return _run_checks(decay, truncation, n, m, lam, delta, trials, seed, [_projection])[0]


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
    return _run_checks(decay, truncation, n, None, lam, delta, trials, seed, [_norm_equivalence])[0]


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
    if which == "vector" and target.f_coefficients.size != truncation:
        raise ValueError("truncation does not match the target's")
    make = partial(_concentration, which, target, noise)
    return _run_checks(decay, truncation, n, None, lam, delta, trials, seed, [make])[0]


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
    make = partial(_smoothness, phi)
    return _run_checks(decay, truncation, n, m, lam, delta, trials, seed, [make])[0]


def check_all_bounds(
    decay: DecaySpec, truncation: int, n: int, m: int, lam: float, phi: IndexFunction,
    delta: float, trials: int, seed: int,
) -> list:
    """The projection, norm equivalence, operator concentration and
    smoothness checks, in that order, on one draw per trial. Each report
    equals the one its own check returns for the same settings."""
    concentration = partial(_concentration, "operator", None, None)
    makers = [_projection, _norm_equivalence, concentration, partial(_smoothness, phi)]
    return _run_checks(decay, truncation, n, m, lam, delta, trials, seed, makers)


CSV_FIELDS = [
    "bound_name",
    "n",
    "m",
    "lambda",
    "T",
    "s",
    "phi",
    "r",
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
            rep.settings.get("phi", ""),
            rep.settings.get("r", ""),
            rep.trials,
            rep.delta,
            repr(float(rep.violation_rate)),
            repr(float(rep.observed_max_ratio)),
            "" if rep.quantile_ratio is None else repr(float(rep.quantile_ratio)),
            "; ".join(rep.warnings),
        ]
        for rep in reports
    ]

