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
closed form.

Sums over the basis at many points (target values, data moments, the
``covariance``) go through one blocked trig-sum primitive, ``trig_sum`` and
its adjoint ``trig_moments``, and never form the n x T basis matrix. Gram
blocks stay explicit numpy, the generic Nystrom path and its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

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
        # written in place: no n x T/2 temporaries beside the angles
        np.cos(ang, out=out[:, 1::2])
        n_sin = (truncation - 1) // 2  # columns k = 3, 5, ...
        if n_sin:
            np.sin(ang[:, :n_sin], out=out[:, 2::2])
        out[:, 1:] *= _SQRT2
    return out


def _split(degree: int) -> tuple[int, int]:
    """Block sizes (B, Q) with l = q B + r covering l = 0..degree, B ~ sqrt(degree + 1)."""
    b = math.isqrt(degree) + 1
    return b, -(-(degree + 1) // b)


def _exp_blocks(xs, b: int, q: int):
    """``exp(2 pi i q B x)`` (n x Q) and ``exp(2 pi i r x)`` (n x B) for one row chunk.

    The angles are ``(2 pi x) l``, rounded as in ``fourier_basis``.
    """
    ang = _TWO_PI * xs[:, None]
    return np.exp(1j * (ang * (b * np.arange(q)))), np.exp(1j * (ang * np.arange(b)))


def _row_chunks(n: int, width: int):
    # complex rows of Q + B entries; each chunk stays near _CHUNK_ELEMENTS doubles
    step = max(1, _CHUNK_ELEMENTS // (2 * width))
    return ((lo, min(n, lo + step)) for lo in range(0, n, step))


def trig_sum(xs, coeffs) -> np.ndarray:
    """Type-2 trigonometric sum ``Re sum_l F_l exp(2 pi i l x)``, l = 0..L, at each x.

    With ``l = q B + r`` and ``B ~ sqrt(L + 1)`` the sum is one complex gemm
    per row chunk, ``exp(2 pi i q B x) @ F[q, r]``, then a row-wise product
    with ``exp(2 pi i r x)``: O(n sqrt(L)) exponentials instead of O(n L)
    sin/cos calls, and memory fixed by the chunk size. This is numpy's
    stand-in for a type-2 non-uniform DFT (Dutt & Rokhlin 1993; Barnett et
    al., FINUFFT 2019).
    """
    xs = as_points(xs)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    b, q = _split(coeffs.size - 1)
    block = np.zeros(q * b, dtype=np.complex128)
    block[: coeffs.size] = coeffs
    block = block.reshape(q, b)
    out = np.empty(xs.size)
    for lo, hi in _row_chunks(xs.size, q + b):
        e_q, e_b = _exp_blocks(xs[lo:hi], b, q)
        out[lo:hi] = ((e_q @ block) * e_b).sum(axis=1).real
    return out


def trig_moments(xs, weights, degree: int) -> np.ndarray:
    """Type-1 moments ``c_l = sum_i w_i exp(2 pi i l x_i)`` for l = 0..degree.

    The adjoint of ``trig_sum``, blocked the same way: ``c[q B + r]`` is
    entry (q, r) of ``(w * exp(2 pi i q B x))^T @ exp(2 pi i r x)``,
    accumulated over row chunks.
    """
    xs = as_points(xs)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != xs.shape:
        raise ValueError(f"need one weight per point, got {weights.shape} for {xs.shape}")
    b, q = _split(degree)
    acc = np.zeros((q, b), dtype=np.complex128)
    for lo, hi in _row_chunks(xs.size, q + b):
        e_q, e_b = _exp_blocks(xs[lo:hi], b, q)
        acc += (e_q * weights[lo:hi, None]).T @ e_b
    return acc.ravel()[: degree + 1]


def basis_sum(xs, coeffs) -> np.ndarray:
    """``fourier_basis(xs, T) @ coeffs`` with T = ``coeffs.size``, via ``trig_sum``.

    ``e_1 = 1``, and a cos/sin pair ``sqrt(2) (a cos + b sin)`` of frequency j
    is ``Re(sqrt(2) (a - i b) exp(2 pi i j x))``.
    """
    f = np.asarray(coeffs, dtype=np.float64)
    n_sin = (f.size - 1) // 2
    cplx = np.zeros(f.size // 2 + 1, dtype=np.complex128)
    cplx[0] = f[0]
    cplx[1:] = _SQRT2 * f[1::2]
    cplx[1 : n_sin + 1] -= 1j * _SQRT2 * f[2::2]
    return trig_sum(xs, cplx)


def basis_moments(xs, weights, truncation: int) -> np.ndarray:
    """``fourier_basis(xs, T).T @ weights`` via ``trig_moments``: the cos and
    sin columns of frequency j get ``sqrt(2)`` times Re and Im of ``c_j``."""
    c = trig_moments(xs, weights, truncation // 2)
    out = np.empty(truncation)
    out[0] = c[0].real
    out[1::2] = _SQRT2 * c[1:].real
    out[2::2] = _SQRT2 * c[1 : (truncation - 1) // 2 + 1].imag
    return out


def covariance(xs, mu) -> np.ndarray:
    """The covariance ``M^(1/2) (Phi^T Phi / n) M^(1/2)``, ``M = diag(mu)``, i.e.
    the mean of ``w w^T`` over the ``sections`` w, from the moments
    ``c_l = mean_i exp(2 pi i l x_i)``, l = 0..2 (T // 2), T = ``mu.size``.

    Product-to-sum makes each block of ``Phi^T Phi / n`` Toeplitz-plus-Hankel
    in the frequencies j, k: ``cos_j cos_k`` gives ``Re c_|j-k| + Re c_{j+k}``,
    ``sin_j sin_k`` gives ``Re c_|j-k| - Re c_{j+k}`` and ``cos_j sin_k``
    gives ``Im c_{j+k} - Im c_{j-k}`` (``c_{-l} = conj(c_l)``); the constant
    pairs with them as ``sqrt(2) Re c_k`` and ``sqrt(2) Im c_k``.
    """
    xs = as_points(xs)
    truncation = mu.size
    n_cos, n_sin = truncation // 2, (truncation - 1) // 2
    # unit weights, divided afterwards, keep c_0 = 1 exactly
    c = trig_moments(xs, np.ones(xs.size), 2 * n_cos) / xs.size
    re, im = c.real, c.imag
    out = np.empty((truncation, truncation))
    out[0, 0] = re[0]
    if n_cos:
        out[0, 1::2] = out[1::2, 0] = _SQRT2 * re[1 : n_cos + 1]
        out[0, 2::2] = out[2::2, 0] = _SQRT2 * im[1 : n_sin + 1]
        re_diff = sla.toeplitz(re[:n_cos])
        re_sum = sla.hankel(re[2 : n_cos + 2], re[n_cos + 1 :])
        im_diff = sla.toeplitz(im[:n_cos], -im[:n_cos])
        cos_sin = (sla.hankel(im[2 : n_cos + 2], im[n_cos + 1 :]) - im_diff)[:, :n_sin]
        out[1::2, 1::2] = re_diff + re_sum
        out[2::2, 2::2] = (re_diff - re_sum)[:n_sin, :n_sin]
        out[1::2, 2::2] = cos_sin
        out[2::2, 1::2] = cos_sin.T
    root = np.sqrt(mu)
    out *= root[:, None]
    out *= root
    return out


def sections(xs, mu) -> np.ndarray:
    """Kernel sections in the eigen-coordinates: row i is
    ``w(x_i) = sqrt(mu) * e(x_i)``, so ``K(x, y) = w(x) . w(y)``."""
    out = fourier_basis(as_points(xs), mu.size)
    out *= np.sqrt(mu)
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
    # In place: one n x m array and no n x m temporaries. Freeing such
    # temporaries raises glibc's mmap threshold, after which later arrays sat
    # on an untrimmed heap (+50 MB peak RSS in a Gaussian n=4096 fit + KRR).
    d = np.subtract.outer(xs, ys)
    d /= kernel.bandwidth
    if kernel.variant == GAUSSIAN:
        d *= d
        d *= -0.5
    else:
        np.abs(d, out=d)
        np.negative(d, out=d)
    return np.exp(d, out=d)


def gram(kernel: KernelSpec, xs) -> np.ndarray:
    """Gram matrix, exactly symmetric by construction: ``W W^T`` (one syrk) over
    the designed ``sections`` W, else ``cross_gram(xs, xs)``: its entries depend
    on ``x_i - x_j`` only through its magnitude, and IEEE subtraction is
    exactly antisymmetric."""
    xs = as_points(xs, kernel)
    if kernel.is_designed:
        w = sections(xs, kernel.eigenvalues())
        return w @ w.T
    return cross_gram(kernel, xs, xs)


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
