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

import csv
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import DESIGNED, DecaySpec, KernelSpec, as_points, basis_moments, basis_sum
from .krr import KernelModel, predict
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
        if self.scale < 0:
            raise ValueError(f"noise scale must be >= 0, got {self.scale}")

    @classmethod
    def gaussian(cls, sigma: float) -> "NoiseSpec":
        return cls("gaussian", sigma)

    @classmethod
    def uniform_bounded(cls, half_width: float) -> "NoiseSpec":
        return cls("uniform_bounded", half_width)

    @property
    def bernstein_m(self) -> float:
        return self.scale

    @property
    def bernstein_sigma(self) -> float:
        if self.variant == "gaussian":
            return self.scale
        return self.scale / math.sqrt(3.0)

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


def make_target(
    decay: DecaySpec,
    truncation: int,
    phi: IndexFunction,
    seed: int,
    profile: str = SPHERE,
) -> TargetSpec:
    """Draw target coefficients f_k = phi(mu_k) v_k for a unit-norm v."""
    if not phi.is_admissible():
        raise ValueError(
            "index function is not admissible here: sqrt(t)/phi(t) must be nondecreasing"
        )
    rng = np.random.default_rng(seed)
    k = np.arange(1, truncation + 1, dtype=np.float64)
    if profile == SPHERE:
        v = rng.standard_normal(truncation)
        v /= np.linalg.norm(v)
    elif profile == POWER_BOUNDARY:
        harmonic = np.sum(1.0 / k)
        v = rng.choice([-1.0, 1.0], truncation) / np.sqrt(k * harmonic)
    else:
        raise ValueError(f"unknown target profile: {profile!r}")
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
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, n)
    ys = target_values(target, xs) + noise.sample(rng, n)
    return Dataset(xs=xs, ys=ys, decay=decay, truncation=truncation, target=target)


def fitted_coefficients(model: KernelModel, kernel: KernelSpec) -> np.ndarray:
    """Eigenbasis coefficients of the fitted function: mu_k sum_j c_j e_k(x_j)."""
    if kernel.variant != DESIGNED:
        raise NotImplementedError(
            "exact basis coefficients need a designed kernel; "
            "use monte_carlo_error for closed-form kernels"
        )
    model.check_kernel(kernel)
    support = as_points(model.support_xs, kernel)
    return kernel.eigenvalues() * basis_moments(support, model.alpha, kernel.truncation)


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
    if n_mc < 1:
        raise ValueError(f"n_mc must be >= 1, got {n_mc}")
    rng = np.random.default_rng(seed)
    us = rng.uniform(0.0, 1.0, n_mc)
    preds = predict(model, kernel, us)
    sq = (preds - np.asarray(target_fn(us), dtype=np.float64)) ** 2
    mean_sq = float(np.mean(sq))
    rmse = math.sqrt(mean_sq)
    var_of_mean = float(np.var(sq, ddof=1)) / n_mc if n_mc > 1 else 0.0
    stderr = 0.5 * math.sqrt(var_of_mean) / rmse if rmse > 0 else math.sqrt(var_of_mean)
    return McError(rmse, stderr)


# ---------------------------------------------------------------------------
# dataset export/import
# ---------------------------------------------------------------------------


def dataset_to_csv(dataset: Dataset, path, sidecar_path=None) -> None:
    """Write (x, y) rows; generation metadata goes to a JSON sidecar."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in zip(dataset.xs, dataset.ys):
            writer.writerow([repr(float(x)), repr(float(y))])
    if sidecar_path is not None:
        meta = {"n": int(dataset.xs.size)}
        if dataset.decay is not None:
            meta["decay_s"] = dataset.decay.s
            meta["truncation"] = dataset.truncation
        if dataset.target is not None:
            meta["phi"] = {"family": dataset.target.phi.family, "r": dataset.target.phi.r}
            meta["coeff_seed"] = dataset.target.coeff_seed
            meta["profile"] = dataset.target.profile
        with open(sidecar_path, "w") as fh:
            json.dump(meta, fh, indent=2)


def dataset_from_csv(path) -> Dataset:
    xs, ys = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["x", "y"]:
            raise ValueError(f"{path} does not look like a dataset CSV")
        for row in reader:
            xs.append(float(row[0]))
            ys.append(float(row[1]))
    return Dataset(xs=np.asarray(xs), ys=np.asarray(ys))
