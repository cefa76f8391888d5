"""Synthetic regression targets with controlled smoothness, plus exact errors.

Targets live in the designed kernel's eigenbasis: ``f_k = phi(mu_k) v_k``
with ``||v|| <= 1``, so the smoothness of the regression function relative to
the kernel operator is exact by construction. Two coefficient profiles:

* ``sphere``: v uniform on the unit sphere. Representative of the smoothness
  ball but spectrally flat, so its risk curve is dominated by the basis tail.
* ``power_boundary``: ``v_k = sign_k / sqrt(k * H_T)`` (H_T the harmonic
  number, random signs). Its energy saturates the smoothness class at every
  scale, which is what makes predicted learning rates visible at practical
  sample sizes; this is the profile the rate experiments use.

Labels are ``y_i = f(x_i) + eps_i`` with x uniform on [0, 1] and noise that
satisfies a Bernstein moment bound with explicit (M, sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import DecaySpec, KernelSpec, basis_sum
# fitted_coefficients is re-exported: predict and the exact error share it
from .krr import KernelModel, fitted_coefficients, predict  # noqa: F401
from .linalg import check_count, check_seed
from .spectral import IndexFunction

SPHERE = "sphere"
POWER_BOUNDARY = "power_boundary"


@dataclass(frozen=True)
class TargetSpec:
    phi: IndexFunction
    coeff_seed: int
    profile: str
    v_coefficients: np.ndarray
    f_coefficients: np.ndarray


def hk_norm_proxy(target: TargetSpec, decay: DecaySpec) -> float:
    """sum f_k^2 / mu_k; growth without bound as the truncation doubles marks
    a target outside the RKHS (the misspecified regime)."""
    mu = decay.eigenvalues(target.f_coefficients.size)
    return float(np.sum(target.f_coefficients**2 / mu))


@dataclass(frozen=True)
class NoiseSpec:
    """Label noise. Both variants satisfy E|eps|^p <= p! M^(p-2) sigma^2 / 2:

    * gaussian(scale): M = sigma = scale;
    * uniform_bounded(scale): uniform on [-scale, scale], M = scale,
      sigma^2 = scale^2 / 3. scale = 0 means noiseless labels.
    """

    variant: str
    scale: float

    def __post_init__(self):
        if self.variant not in ("gaussian", "uniform_bounded"):
            raise ValueError(f"unknown noise variant: {self.variant!r}")
        if not (math.isfinite(self.scale) and self.scale >= 0):
            raise ValueError(f"noise scale must be finite and >= 0, got {self.scale}")

    @classmethod
    def gaussian(cls, sigma: float) -> "NoiseSpec":
        return cls("gaussian", sigma)

    @classmethod
    def uniform_bounded(cls, half_width: float) -> "NoiseSpec":
        return cls("uniform_bounded", half_width)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.scale == 0.0:
            return np.zeros(n)
        if self.variant == "gaussian":
            return rng.normal(0.0, self.scale, n)
        return rng.uniform(-self.scale, self.scale, n)


@dataclass(frozen=True)
class Dataset:
    xs: np.ndarray
    ys: np.ndarray
    decay: DecaySpec | None = None
    truncation: int | None = None
    target: TargetSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "xs", np.asarray(self.xs, dtype=np.float64))
        object.__setattr__(self, "ys", np.asarray(self.ys, dtype=np.float64))
        if self.xs.shape != self.ys.shape:
            raise ValueError("xs and ys must have equal length")

    @property
    def has_truth(self) -> bool:
        return self.target is not None


def check_target(phi: IndexFunction, profile: str, seed: int) -> int:
    """The checks of ``make_target``'s settings, without drawing a target: an
    admissible ``phi``, a known ``profile`` and a seed (``check_seed``), which
    is returned."""
    if not phi.is_admissible():
        raise ValueError(
            "index function is not admissible here: sqrt(t)/phi(t) must be nondecreasing"
        )
    if profile not in (SPHERE, POWER_BOUNDARY):
        raise ValueError(f"unknown target profile: {profile!r}")
    return check_seed(seed, "target seed")


def make_target(
    decay: DecaySpec,
    truncation: int,
    phi: IndexFunction,
    seed: int,
    profile: str = SPHERE,
) -> TargetSpec:
    """Draw target coefficients f_k = phi(mu_k) v_k for a unit-norm v."""
    seed = check_target(phi, profile, seed)
    truncation = check_count(truncation, "truncation")
    rng = np.random.default_rng(seed)
    k = np.arange(1, truncation + 1, dtype=np.float64)
    if profile == SPHERE:
        v = rng.standard_normal(truncation)
        v /= np.linalg.norm(v)
    else:
        harmonic = np.sum(1.0 / k)
        v = rng.choice([-1.0, 1.0], truncation) / np.sqrt(k * harmonic)
    f = phi(decay.eigenvalues(truncation)) * v
    return TargetSpec(
        phi=phi, coeff_seed=seed, profile=profile, v_coefficients=v, f_coefficients=f
    )


def target_values(target: TargetSpec, xs) -> np.ndarray:
    """Evaluate the regression function f(x) = sum_k f_k e_k(x)."""
    return basis_sum(xs, target.f_coefficients)


def sample_dataset(
    decay: DecaySpec,
    truncation: int,
    target: TargetSpec,
    noise: NoiseSpec,
    n: int,
    seed: int,
) -> Dataset:
    """n i.i.d. uniform inputs with noisy target labels; deterministic per seed."""
    n = check_count(n, "n")
    rng = np.random.default_rng(check_seed(seed))
    xs = rng.uniform(0.0, 1.0, n)
    ys = target_values(target, xs) + noise.sample(rng, n)
    return Dataset(xs=xs, ys=ys, decay=decay, truncation=truncation, target=target)


def l2_rho_error(model: KernelModel, kernel: KernelSpec, dataset: Dataset) -> float:
    """Exact L2 error ||f_hat - f||, computed coefficient-wise in the basis.

    The synthetic target lives entirely inside the truncated basis, so there
    is no truncation tail to account for.
    """
    if not dataset.has_truth:
        raise ValueError("exact error needs a dataset carrying its target")
    f_hat = fitted_coefficients(model, kernel)
    f_true = dataset.target.f_coefficients
    if f_hat.size != f_true.size:
        raise ValueError("kernel truncation does not match the target's")
    return float(np.linalg.norm(f_hat - f_true))


class McError(NamedTuple):
    value: float
    stderr: float


def monte_carlo_error(
    model: KernelModel, kernel: KernelSpec, target_fn, n_mc: int, seed: int
) -> McError:
    """Root-mean-square of f_hat - f over uniform draws, with standard error."""
    n_mc = check_count(n_mc, "n_mc")
    rng = np.random.default_rng(check_seed(seed))
    us = rng.uniform(0.0, 1.0, n_mc)
    truth = np.asarray(target_fn(us), dtype=np.float64)
    if truth.shape != us.shape or not np.all(np.isfinite(truth)):
        raise ValueError(f"target_fn must return {n_mc} finite values, got shape {truth.shape}")
    sq = (predict(model, kernel, us) - truth) ** 2
    mean_sq = float(np.mean(sq))
    rmse = math.sqrt(mean_sq)
    var_of_mean = float(np.var(sq, ddof=1)) / n_mc if n_mc > 1 else 0.0
    stderr = 0.5 * math.sqrt(var_of_mean) / rmse if rmse > 0 else math.sqrt(var_of_mean)
    return McError(rmse, stderr)
