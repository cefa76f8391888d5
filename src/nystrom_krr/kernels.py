"""Mercer kernels on scalar inputs.

Two closed-form families (Gaussian, Laplacian, both with ``K(x, x) = 1``) and
a designed spectral family with explicit eigenpairs on ``[0, 1]`` under the
uniform measure:

* eigenvalues ``mu_k = k**(-1/s)`` for ``k = 1..truncation``,
* orthonormal basis ``e_1 = 1``, ``e_{2j} = sqrt(2) cos(2 pi j x)``,
  ``e_{2j+1} = sqrt(2) sin(2 pi j x)``,
* ``K(x, y) = sum_k mu_k e_k(x) e_k(y)``.

Because the basis is orthonormal for the uniform measure, the kernel integral
operator is diagonal with eigenvalues ``mu_k``, so effective dimensions,
a-priori regularization parameters, and exact L2 errors are all computable in
closed form. Gram assembly is the hot path, vectorized in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import check_positive

GAUSSIAN = "gaussian"
LAPLACIAN = "laplacian"
DESIGNED = "designed_spectral"

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi

# Row-block size for feature-matrix assembly, keeps peak memory ~32 MB.
_CHUNK_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class DecaySpec:
    """Polynomial eigenvalue decay ``mu_k = k**(-1/s)`` with ``s`` in (0, 1].

    Smaller ``s`` means faster decay; ``s = 1`` is the borderline summable
    case (``sum mu_k`` diverges logarithmically in the truncation).
    """

    s: float

    def __post_init__(self):
        if not 0.0 < self.s <= 1.0:
            raise ValueError(f"decay exponent s must be in (0, 1], got {self.s}")

    @property
    def borderline(self) -> bool:
        return self.s == 1.0

    def eigenvalues(self, truncation: int) -> np.ndarray:
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        k = np.arange(1, truncation + 1, dtype=np.float64)
        return k ** (-1.0 / self.s)


@dataclass(frozen=True)
class KernelSpec:
    """A Mercer kernel: Gaussian/Laplacian (bandwidth) or designed spectral."""

    variant: str
    bandwidth: float | None = None
    decay: DecaySpec | None = None
    truncation: int | None = None

    def __post_init__(self):
        if self.variant in (GAUSSIAN, LAPLACIAN):
            if self.bandwidth is None:
                raise ValueError(f"{self.variant} kernel needs a bandwidth")
            check_positive(self.bandwidth, f"{self.variant} bandwidth")
        elif self.variant == DESIGNED:
            if self.decay is None:
                raise ValueError("designed_spectral kernel needs a DecaySpec")
            if self.truncation is None or self.truncation < 1:
                raise ValueError(
                    f"designed_spectral truncation must be >= 1, got {self.truncation}"
                )
        else:
            raise ValueError(f"unknown kernel variant: {self.variant!r}")

    @classmethod
    def gaussian(cls, bandwidth: float) -> "KernelSpec":
        return cls(GAUSSIAN, bandwidth=bandwidth)

    @classmethod
    def laplacian(cls, bandwidth: float) -> "KernelSpec":
        return cls(LAPLACIAN, bandwidth=bandwidth)

    @classmethod
    def designed(cls, s: float, truncation: int = 2048) -> "KernelSpec":
        return cls(DESIGNED, decay=DecaySpec(s), truncation=truncation)

    @property
    def is_designed(self) -> bool:
        return self.variant == DESIGNED

    def eigenvalues(self) -> np.ndarray:
        if not self.is_designed:
            raise ValueError("only designed_spectral kernels expose eigenvalues")
        return self.decay.eigenvalues(self.truncation)

    def to_config(self) -> dict:
        if self.is_designed:
            return {"variant": DESIGNED, "s": self.decay.s, "truncation": self.truncation}
        return {"variant": self.variant, "bandwidth": self.bandwidth}

    @classmethod
    def from_config(cls, cfg: dict) -> "KernelSpec":
        if "variant" not in cfg:
            raise ValueError("kernel config needs a 'variant' key")
        variant = cfg["variant"]
        if variant == DESIGNED:
            if "s" not in cfg:
                raise ValueError("designed_spectral kernel config needs 's'")
            return cls.designed(float(cfg["s"]), int(cfg.get("truncation", 2048)))
        if variant in (GAUSSIAN, LAPLACIAN):
            if "bandwidth" not in cfg:
                raise ValueError(f"{variant} kernel config needs 'bandwidth'")
            return cls(variant, bandwidth=float(cfg["bandwidth"]))
        raise ValueError(f"unknown kernel variant: {variant!r}")


def fourier_basis(xs, truncation: int) -> np.ndarray:
    """Evaluate the designed basis: (n, truncation) matrix with columns e_k."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    out = np.empty((xs.shape[0], truncation))
    out[:, 0] = 1.0
    if truncation > 1:
        n_cos = truncation // 2  # columns k = 2, 4, ...
        ang = _TWO_PI * xs[:, None] * np.arange(1, n_cos + 1)[None, :]
        out[:, 1::2] = _SQRT2 * np.cos(ang)
        n_sin = (truncation - 1) // 2  # columns k = 3, 5, ...
        if n_sin:
            out[:, 2::2] = _SQRT2 * np.sin(ang[:, :n_sin])
    return out


def as_points(xs, kernel: KernelSpec | None = None) -> np.ndarray:
    """The one input check for point arrays: nonempty, 1-D, finite float64.

    For a designed kernel the points must also lie in its domain [0, 1]; that
    test runs first, so a non-finite point fails with the domain message.
    """
    pts = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError(f"need a nonempty 1-D array of points, got shape {pts.shape}")
    if kernel is not None and kernel.is_designed and not np.all((pts >= 0.0) & (pts <= 1.0)):
        raise ValueError("designed_spectral kernel is defined on [0, 1] only")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite (no NaN or inf)")
    return pts


def basis_sup(weights) -> float:
    """``sup_x sum_k w_k e_k(x)^2`` over [0, 1], in closed form.

    Valid for nonnegative, nonincreasing weights ``w`` (indexed like the
    basis, ``w[0]`` weighting ``e_1 = 1``): each cos/sin pair contributes
    ``2 (w_{2j} cos^2 + w_{2j+1} sin^2) <= 2 w_{2j}``, with equality for every
    pair at x = 0, so the sup is attained there and equals
    ``w_1 + 2 (w_2 + w_4 + ...)``.
    """
    w = np.asarray(weights, dtype=np.float64)
    return float(w[0] + 2.0 * w[1::2].sum())


def _designed_cross(kernel, xs, ys):
    """(n, m) Gram block for the designed kernel, chunked over rows of xs."""
    mu = kernel.eigenvalues()
    t = kernel.truncation
    weighted = (fourier_basis(ys, t) * mu).T  # (T, m)
    n = xs.shape[0]
    out = np.empty((n, ys.shape[0]))
    step = max(1, _CHUNK_ELEMENTS // t)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        out[lo:hi] = fourier_basis(xs[lo:hi], t) @ weighted
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def eval_kernel(kernel: KernelSpec, x: float, y: float) -> float:
    """Evaluate K(x, y) for a single pair of points."""
    return float(cross_gram(kernel, [x], [y])[0, 0])


def cross_gram(kernel: KernelSpec, xs, inducing) -> np.ndarray:
    """Rectangular Gram block: entry (i, j) is K(xs[i], inducing[j])."""
    xs = as_points(xs, kernel)
    ys = as_points(inducing, kernel)
    if kernel.is_designed:
        return _designed_cross(kernel, xs, ys)
    d = (xs[:, None] - ys[None, :]) / kernel.bandwidth
    if kernel.variant == GAUSSIAN:
        return np.exp(-0.5 * d * d)
    return np.exp(-np.abs(d))


def gram(kernel: KernelSpec, xs) -> np.ndarray:
    """Symmetric Gram matrix; symmetrized to kill round-off asymmetry."""
    out = cross_gram(kernel, xs, xs)
    # entries (i,j) and (j,i) are computed independently; averaging restores
    # exact symmetry without changing values beyond accumulation noise
    return 0.5 * (out + out.T)


def kappa(kernel: KernelSpec) -> float:
    """Uniform bound on K(x, x).

    Exact (1.0) for the closed-form kernels. For the designed family this is
    the analytic envelope ``mu_1 + 2 sum_{k>=2} mu_k`` from ``|e_k| <= sqrt(2)``;
    the attained value ``sup_x K(x, x)`` is ``basis_sup(mu)``.
    """
    if not kernel.is_designed:
        return 1.0
    mu = kernel.eigenvalues()
    return float(mu[0] + 2.0 * mu[1:].sum())
