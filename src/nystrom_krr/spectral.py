"""Spectral quantities driving regularization and subsampling choices.

Everything here reduces to the eigenvalue sequence of the kernel integral
operator: effective dimensions, the a-priori regularization parameter
``lambda0`` solving ``N(lambda) = lambda * n``, the bound surrogate ``theta``,
Tikhonov filter factors with their qualification margins, and smoothness
(index) functions.

The plug-in ``N_x`` at the training points of a Gaussian or Laplacian kernel
runs on full KRR's factor of ``K + lam n I`` (``krr`` module docstring); the
one-point ``nx_empirical`` stays dense, and the tests compare against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .kernels import (
    DecaySpec,
    KernelSpec,
    as_points,
    basis_sup,
    covariance,
    cross_gram,
    eval_kernel,
    gram,
    kappa,
)
from .krr import _shifted_factor
from .linalg import (
    NumericalError, check_count, check_number, check_positive, cholesky_psd, sym_eigenvalues
)

LOG_DOMAIN_CAP = math.exp(-1.0)


@dataclass(frozen=True)
class SpectralProfile:
    """Descending nonnegative eigenvalue sequence of the integral operator.

    ``source`` records provenance: "analytic" profiles come from a designed
    kernel's decay rule, "empirical" ones from Gram eigenvalues of K/n.
    """

    eigenvalues: np.ndarray
    source: str

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=np.float64)
        if eig.ndim != 1 or eig.size == 0:
            raise ValueError("profile needs a nonempty eigenvalue vector")
        if eig.min() < 0:
            raise ValueError("profile eigenvalues must be nonnegative")
        if np.any(np.diff(eig) > 0):
            raise ValueError("profile eigenvalues must be descending")
        object.__setattr__(self, "eigenvalues", eig)

    @property
    def top(self) -> float:
        """Surrogate for the operator norm of the integral operator."""
        return float(self.eigenvalues[0])


def analytic_profile(decay: DecaySpec, truncation: int) -> SpectralProfile:
    return SpectralProfile(decay.eigenvalues(truncation), "analytic")


def empirical_profile(kernel: KernelSpec, xs) -> SpectralProfile:
    """Eigenvalues of K/n from a training sample.

    For designed kernels the nonzero spectrum of K/n equals that of the
    (truncation x truncation) ``covariance``, which is much cheaper than an
    n x n decomposition; both routes agree and the small-n tests cross-check
    them.
    """
    xs = as_points(xs, kernel)
    n = xs.size
    if kernel.is_designed and n > kernel.truncation:
        eig = np.linalg.eigvalsh(covariance(xs, kernel.eigenvalues()))[::-1]
    else:
        eig = sym_eigenvalues(gram(kernel, xs) / n)
    return SpectralProfile(np.clip(eig, 0.0, None), "empirical")


# ---------------------------------------------------------------------------
# index functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexFunction:
    """Smoothness function phi: Hoelder ``t**r`` or logarithmic ``log(1/t)**-r``.

    The logarithmic family is only meaningful for ``t <= 1/e``; it is extended
    by its value 1 above that cap, which is harmless for the spectra in scope
    (top eigenvalues of order one, phi only ever multiplies bounds).
    """

    family: str
    r: float

    def __post_init__(self):
        if self.family == "holder":
            if not 0.0 < check_number(self.r, "holder exponent") <= 0.5:
                raise ValueError(f"holder exponent must be in (0, 1/2], got {self.r}")
        elif self.family == "log_type":
            if not 0.0 < check_number(self.r, "log_type exponent") <= 1.0:
                raise ValueError(f"log_type exponent must be in (0, 1], got {self.r}")
        else:
            raise ValueError(f"unknown index function family: {self.family!r}")

    @classmethod
    def holder(cls, r: float) -> "IndexFunction":
        return cls("holder", r)

    @classmethod
    def log_type(cls, r: float) -> "IndexFunction":
        return cls("log_type", r)

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0):
            raise ValueError("index functions are defined for t >= 0")
        if self.family == "holder":
            out = t**self.r
        else:
            capped = np.minimum(t, LOG_DOMAIN_CAP)
            with np.errstate(divide="ignore"):
                out = np.where(capped > 0.0, np.log(1.0 / capped) ** (-self.r), 0.0)
        return float(out) if out.ndim == 0 else out

    def is_admissible(self) -> bool:
        """Whether sqrt(t)/phi(t) is nondecreasing (the low-smoothness regime).

        Hoelder: the ratio is ``t**(1/2 - r)``. Log type: below the cap it is
        ``sqrt(t) log(1/t)**r``, whose derivative has the sign of
        ``log(1/t)/2 - r`` with ``log(1/t) >= 1``; above the cap it is
        ``sqrt(t)``. Both families are admissible iff ``r <= 1/2``.
        """
        return self.r <= 0.5


# ---------------------------------------------------------------------------
# effective dimensions
# ---------------------------------------------------------------------------


def effective_dimension(profile: SpectralProfile, lam: float) -> float:
    """N(lambda) = sum_k sigma_k / (sigma_k + lambda)."""
    check_positive(lam)
    sig = profile.eigenvalues
    return float(np.sum(sig / (sig + lam)))


def nx_empirical(kernel: KernelSpec, training_xs, x: float, lam: float) -> float:
    """Pointwise effective dimension with the empirical covariance plug-in.

    Woodbury reduction: ``(K(x,x) - |R^{-T} k_x|^2) / lam`` with
    ``k_x = (K(x, x_i))_i`` and the dense Cholesky ``R^T R = K + lam n I``.
    """
    check_positive(lam)
    xs = as_points(training_xs, kernel)
    k_x = cross_gram(kernel, xs, [x])[:, 0]
    z = sla.solve_triangular(cholesky_psd(gram(kernel, xs), lam * xs.size), k_x, trans="T")
    val = (eval_kernel(kernel, x, x) - z @ z) / lam
    return float(_check_nx(val, kernel, lam))


def _check_nx(vals, kernel, lam):
    """Clip round-off negatives of N_x to 0; fail on a clearly negative value."""
    low = np.min(vals)
    if low < -1e-8 * kappa(kernel) / lam:
        raise NumericalError(f"pointwise effective dimension came out negative: {low}")
    return np.clip(vals, 0.0, None)


def nx_empirical_training(kernel: KernelSpec, training_xs, lam: float) -> np.ndarray:
    """Empirical N_x(lambda) at every training point: n times the ridge leverage
    scores (Alaoui & Mahoney 2015), ``n (1 - lam n [(K + lam n I)^{-1}]_ii)``,
    on ``krr._shifted_factor``. On its low-rank factor they are
    ``n ||C^{-T} l_i||^2``, the squared row norms of ``L C^-1``, one right-side
    triangular solve on ``L``; on the dense ``K + lam n I = R^T R`` that diagonal
    is the squared row norms of ``R^{-1}``.
    """
    check_positive(lam)
    xs = as_points(training_xs, kernel)
    n = xs.size
    factor_t, _, chol = _shifted_factor(kernel, xs, lam * n)
    if factor_t is not None:
        # out of place: L = factor_t.T is the held cell's (krr module docstring)
        z_t = sla.blas.dtrsm(1.0, chol, factor_t.T, side=1)
        return _check_nx(n * np.einsum("ij,ij->i", z_t, z_t), kernel, lam)
    r_inv, info = sla.lapack.dtrtri(chol, lower=0, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"triangular inverse failed (LAPACK info {info})")
    inv_diag = np.einsum("ij,ij->i", r_inv, r_inv)
    return _check_nx(n * (1.0 - lam * n * inv_diag), kernel, lam)


def n_infinity(source: KernelSpec, lam: float, xs=None) -> float:
    """sup_x N_x(lambda) for the kernel ``source``.

    * designed kernel: closed form ``basis_sup(mu / (mu + lam))``, attained
      at x = 0;
    * closed-form kernel: empirical plug-in maximized over the training
      points ``xs`` (the population sup is unavailable without the measure).

    Always bounded by kappa / lambda.
    """
    check_positive(lam)
    if source.is_designed:
        mu = source.eigenvalues()
        return basis_sup(mu / (mu + lam))
    if xs is None:
        raise ValueError("n_infinity for closed-form kernels needs training points")
    return float(nx_empirical_training(source, xs, lam).max())


def lambda0(profile: SpectralProfile, n: int) -> float:
    """The unique root of ``N(lambda) = lambda * n``.

    N is decreasing and ``lambda * n`` increasing, so bisection on a bracket
    is exact; the upper end starts at the top eigenvalue and doubles in the
    rare small-n case where the root sits above it.
    """
    n = check_count(n, "n")
    if profile.top <= 0.0:
        raise ValueError("degenerate operator: no positive eigenvalue, no root")
    lo, hi = 1e-16, profile.top
    doublings = 0
    while effective_dimension(profile, hi) > hi * n:
        hi *= 2.0
        doublings += 1
        if doublings > 64:
            raise NumericalError("failed to bracket the lambda0 root")
    while (hi - lo) > 1e-12 * hi:
        mid = math.sqrt(lo * hi)
        if effective_dimension(profile, mid) > mid * n:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def theta(phi: IndexFunction, profile: SpectralProfile, n: int, lam: float) -> float:
    """The lambda-dependent bound factor phi(lam) (1 + sqrt(N(lam)/(n lam)))."""
    check_positive(lam)
    return float(phi(lam) * (1.0 + math.sqrt(effective_dimension(profile, lam) / (n * lam))))


# ---------------------------------------------------------------------------
# filters and qualification
# ---------------------------------------------------------------------------


def filters(lam: float, t):
    """Tikhonov filter pair: g = 1/(t + lam), residual r = lam/(t + lam)."""
    check_positive(lam)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("filter argument t must be nonnegative")
    g = 1.0 / (t + lam)
    r = lam / (t + lam)
    if t.ndim == 0:
        return float(g), float(r)
    return g, r


def qualification_margin(phi: IndexFunction, lam: float, q: float, t_grid) -> float:
    """max over the grid of r_lam(t) t^q phi(t) / (lam^q phi(lam)).

    The margin stays <= 1 at q = 0 and <= 2 for q in (0, 1/2] for the
    admissible families here.
    """
    if not 0.0 <= check_number(q, "q") <= 0.5:
        raise ValueError(f"q must lie in [0, 1/2], got {q}")
    t = np.asarray(t_grid, dtype=np.float64)
    if np.any(t <= 0):
        raise ValueError("qualification grid must be strictly positive")
    _, resid = filters(lam, t)
    numer = resid * t**q * phi(t)
    denom = lam**q * phi(lam)
    return float(numer.max() / denom)


# ---------------------------------------------------------------------------
# kernel source-condition constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CGammaBound:
    """Attained supremum and analytic envelope for the size-rule constant."""

    c_gamma: float
    upper_bound: float


def c_gamma_for_designed(decay: DecaySpec, truncation: int, gamma: float) -> CGammaBound:
    """Size-rule constant ``c_gamma = sup_x sqrt(sum_k mu_k^(2-gamma) e_k(x)^2)``.

    The weights ``mu_k^(2-gamma)`` are nonincreasing, so the sup is the closed
    form ``basis_sup`` (attained at x = 0); the analytic envelope
    ``sqrt(2 sum_k mu_k^(2-gamma))`` uses ``e_k^2 <= 2``.
    """
    if not 0.0 < check_number(gamma, "gamma") <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if (2.0 - gamma) / decay.s <= 1.0:
        raise ValueError(
            "divergent coefficient series: needs gamma < 2 - s "
            f"(gamma={gamma}, s={decay.s})"
        )
    mu_pow = decay.eigenvalues(truncation) ** (2.0 - gamma)
    return CGammaBound(
        c_gamma=math.sqrt(basis_sup(mu_pow)),
        upper_bound=math.sqrt(2.0 * float(mu_pow.sum())),
    )
