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

Sums over the basis at many points (target values, predictions, data
moments, the ``covariance``) go through one blocked trig-sum primitive,
``trig_sum`` and its adjoint ``trig_moments``, and never form the n x T
basis matrix. It splits frequency ``l = q B + r`` with ``B ~ sqrt(L + 1)``
and builds each point's blocks ``exp(2 pi i q B x)`` and ``exp(2 pi i r x)``
from two exponentials, ``exp(2 pi i x)`` and ``exp(2 pi i B x)``, and their
powers: O(n) exponentials and O(n sqrt(L)) complex products, in row chunks
that fit a core's cache. Gram blocks are products of the kernel
``sections``, whose basis values take one exponential per block entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as _windows

from .linalg import check_count, check_number, check_positive, partial_cholesky

GAUSSIAN = "gaussian"
LAPLACIAN = "laplacian"
DESIGNED = "designed_spectral"

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi

# Doubles per row chunk of the trig sums' exponential blocks and per row block
# of a closed-form ``krr.predict``: 2 MB, a core's L2 cache on the 2-core x86
# VM of README's timings. There (one BLAS thread, best of 9) the trig sums take
# about the same time at 2 MB and at 32 MB chunks (``trig_moments`` at
# n = 16384, L = 2048: 11-13 against 12-16 ms), while the Gaussian
# ``gaussian_rule_4k`` benchmark op peaks at 76 MB RSS instead of 123 MB.
_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class DecaySpec:
    """Polynomial eigenvalue decay ``mu_k = k**(-1/s)`` with ``s`` in (0, 1].

    Smaller ``s`` means faster decay; ``s = 1`` is the borderline summable
    case (``sum mu_k`` diverges logarithmically in the truncation).
    """

    s: float

    def __post_init__(self):
        if not 0.0 < check_number(self.s, "decay exponent s") <= 1.0:
            raise ValueError(f"decay exponent s must be in (0, 1], got {self.s}")

    @property
    def borderline(self) -> bool:
        return self.s == 1.0

    def eigenvalues(self, truncation: int) -> np.ndarray:
        truncation = check_count(truncation, "truncation")
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
            # frozen: store the checked int (64.0 -> 64) in place of the input
            object.__setattr__(
                self, "truncation", check_count(self.truncation, "kernel.truncation")
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
        if variant not in (DESIGNED, GAUSSIAN, LAPLACIAN):
            raise ValueError(f"unknown kernel variant: {variant!r}")
        key = "s" if variant == DESIGNED else "bandwidth"
        if key not in cfg:
            raise ValueError(f"{variant} kernel config needs '{key}'")
        value = check_number(cfg[key], f"kernel.{key}")
        if variant == DESIGNED:
            return cls.designed(value, cfg.get("truncation", 2048))
        return cls(variant, bandwidth=value)


def fourier_basis(xs, truncation: int) -> np.ndarray:
    """Evaluate the designed basis: (n, truncation) matrix with columns e_k.

    Built from blocked exponentials, row chunk by row chunk: frequency
    ``l = q B + r`` is ``exp(2 pi i q B x) exp(2 pi i r x)``, whose real and
    imaginary parts give the cos and sin columns, one block of B frequencies
    at a time (O(n sqrt(T)) exponentials, no n x T temporary).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    out = np.empty((xs.shape[0], truncation))
    out[:, 0] = 1.0
    n_cos, n_sin = truncation // 2, (truncation - 1) // 2  # columns 2, 4, ... and 3, 5, ...
    if not n_cos:
        return out
    b, q = _split(n_cos)
    for lo, hi in _row_chunks(xs.size, q + b):
        # Each block entry is its own exponential here, not a power as in the
        # trig sums: the benchmark's verify_pass reference holds the
        # diagnostics' smoothness ratios, which move with the basis round-off,
        # to 1e-3. Built from powers, the basis moved case 10's quantile ratio
        # by 8.3e-3; with these values case 31 sits at 9.98e-4.
        e_q, e_b = _exp_blocks(xs[lo:hi], b, q)
        for k in range(q):
            # frequencies l0..l1-1 of block k; l = 0 is the constant column
            l0, l1 = max(k * b, 1), min(k * b + b, n_cos + 1)
            block = e_q[:, k, None] * e_b[:, l0 - k * b : l1 - k * b]
            out[lo:hi, 2 * l0 - 1 : 2 * l1 - 1 : 2] = block.real
            s1 = min(l1, n_sin + 1)  # an even T has no sin column at l = T / 2
            out[lo:hi, 2 * l0 : 2 * s1 : 2] = block.imag[:, : s1 - l0]
    out[:, 1:] *= _SQRT2
    return out


def _split(degree: int) -> tuple[int, int]:
    """Block sizes (B, Q) with l = q B + r covering l = 0..degree, B ~ sqrt(degree + 1)."""
    b = math.isqrt(degree) + 1
    return b, -(-(degree + 1) // b)


def _exp_blocks(xs, b: int, q: int):
    """``exp(2 pi i q B x)`` (n x Q) and ``exp(2 pi i r x)`` (n x B) for one row chunk,
    one exponential per entry.

    The angles are ``(2 pi x) l`` for ``l = q B`` and ``l = r``.
    """
    ang = _TWO_PI * xs[:, None]
    return np.exp(1j * (ang * (b * np.arange(q)))), np.exp(1j * (ang * np.arange(b)))


def _exp_power_chunks(xs, b: int, q: int):
    """Row chunks ``(lo, hi, e_q, e_b)`` with the blocks of ``_exp_blocks``
    transposed, ``exp(2 pi i q B x)`` (Q x rows) and ``exp(2 pi i r x)``
    (B x rows), from two exponentials per point: ``exp(2 pi i B x)`` and
    ``exp(2 pi i x)`` raised to the powers q and r.

    An entry of frequency l carries the angle round-off of the direct route,
    about ``2 pi eps l``, plus one complex product's round-off per doubling
    step. Both arrays are reused from chunk to chunk: with a fresh pair per
    chunk, page faults took about as long as the products.
    """
    chunks = list(_row_chunks(xs.size, q + b))
    rows = chunks[0][1]
    e_q, e_b = np.empty((q, rows), dtype=np.complex128), np.empty((b, rows), dtype=np.complex128)
    for lo, hi in chunks:
        ang = _TWO_PI * xs[lo:hi]
        e_q_rows, e_b_rows = e_q[:, : hi - lo], e_b[:, : hi - lo]
        _powers(np.exp(1j * (ang * b)), e_q_rows)
        _powers(np.exp(1j * ang), e_b_rows)
        yield lo, hi, e_q_rows, e_b_rows


def _powers(z, out) -> None:
    """Fill row j of ``out`` (k x n) with ``z**j`` by doubling: rows h..2h-1 are
    rows 0..h-1 times ``z**h``."""
    k = out.shape[0]
    out[0] = 1.0
    h = 1
    while h < k:
        np.multiply(out[: min(h, k - h)], z, out=out[h : 2 * h])
        z = z * z
        h *= 2


def _row_chunks(n: int, width: int):
    # complex rows of Q + B entries; each chunk stays near _CHUNK_ELEMENTS doubles
    step = max(1, _CHUNK_ELEMENTS // (2 * width))
    return ((lo, min(n, lo + step)) for lo in range(0, n, step))


def _finite_vector(values, name: str, dtype) -> np.ndarray:
    """The check for a coefficient or weight vector: nonempty, 1-D, finite."""
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN or inf)")
    return arr


def trig_sum(xs, coeffs) -> np.ndarray:
    """Type-2 trigonometric sum ``Re sum_l F_l exp(2 pi i l x)``, l = 0..L, at each x.

    With ``l = q B + r`` and ``B ~ sqrt(L + 1)`` the sum is one complex gemm
    per row chunk, ``F[q, r]^T @ exp(2 pi i q B x)``, then a product with
    ``exp(2 pi i r x)`` summed over r: two exponentials per point
    (``_exp_power_chunks``) instead of O(L) sin/cos calls, and memory fixed by the
    chunk size. This is numpy's stand-in for a type-2 non-uniform DFT (Dutt &
    Rokhlin 1993; Barnett et al., FINUFFT 2019). ``coeffs`` must be a
    nonempty, finite 1-D array.
    """
    xs = as_points(xs)
    coeffs = _finite_vector(coeffs, "coeffs", np.complex128)
    b, q = _split(coeffs.size - 1)
    block = np.zeros(q * b, dtype=np.complex128)
    block[: coeffs.size] = coeffs
    block = block.reshape(q, b).T
    out = np.empty(xs.size)
    for lo, hi, e_q, e_b in _exp_power_chunks(xs, b, q):
        out[lo:hi] = ((block @ e_q) * e_b).sum(axis=0).real
    return out


def trig_moments(xs, weights, degree: int) -> np.ndarray:
    """Type-1 moments ``c_l = sum_i w_i exp(2 pi i l x_i)`` for l = 0..degree.

    The adjoint of ``trig_sum``, blocked the same way: ``c[q B + r]`` is
    entry (q, r) of ``(w * exp(2 pi i q B x))^T @ exp(2 pi i r x)``,
    accumulated over row chunks. ``weights`` must be finite, one per point;
    ``degree`` a nonnegative integer.
    """
    xs = as_points(xs)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != xs.shape:
        raise ValueError(f"need one weight per point, got {weights.shape} for {xs.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite (no NaN or inf)")
    degree = check_count(degree, "degree", least=0)
    b, q = _split(degree)
    acc = np.zeros((q, b), dtype=np.complex128)
    for lo, hi, e_q, e_b in _exp_power_chunks(xs, b, q):
        e_q *= weights[lo:hi]
        acc += e_q @ e_b.T
    return acc.ravel()[: degree + 1]


def basis_sum(xs, coeffs) -> np.ndarray:
    """``Phi @ coeffs`` for the n x T basis matrix ``Phi`` of ``fourier_basis``,
    T = ``coeffs.size``, via ``trig_sum``.

    ``e_1 = 1``, and a cos/sin pair ``sqrt(2) (a cos + b sin)`` of frequency j
    is ``Re(sqrt(2) (a - i b) exp(2 pi i j x))``.
    """
    f = _finite_vector(coeffs, "coeffs", np.float64)
    n_sin = (f.size - 1) // 2
    cplx = np.zeros(f.size // 2 + 1, dtype=np.complex128)
    cplx[0] = f[0]
    cplx[1:] = _SQRT2 * f[1::2]
    cplx[1 : n_sin + 1] -= 1j * _SQRT2 * f[2::2]
    return trig_sum(xs, cplx)


def basis_moments(xs, weights, truncation: int) -> np.ndarray:
    """``Phi^T @ weights`` for the basis matrix ``Phi`` via ``trig_moments``: the
    cos and sin columns of frequency j get ``sqrt(2)`` times Re and Im of ``c_j``."""
    truncation = check_count(truncation, "truncation")
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
        # Views, no copies: a window of v[l] over l = 1-n_cos..n_cos-1, read
        # backwards, is the Toeplitz v[j - k], and a window of v[2..] the
        # Hankel v[j + k + 2] (frequencies j + 1 and k + 1).
        re_diff = _windows(np.concatenate([re[n_cos - 1 : 0 : -1], re[:n_cos]]), n_cos)[:, ::-1]
        im_diff = _windows(np.concatenate([-im[n_cos - 1 : 0 : -1], im[:n_cos]]), n_cos)[:, ::-1]
        re_sum, im_sum = _windows(re[2:], n_cos), _windows(im[2:], n_cos)
        np.add(re_diff, re_sum, out=out[1::2, 1::2])
        np.subtract(re_diff[:n_sin, :n_sin], re_sum[:n_sin, :n_sin], out=out[2::2, 2::2])
        np.subtract(im_sum[:, :n_sin], im_diff[:, :n_sin], out=out[1::2, 2::2])
        out[2::2, 1::2] = out[1::2, 2::2].T
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


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def eval_kernel(kernel: KernelSpec, x: float, y: float) -> float:
    """Evaluate K(x, y) for a single pair of points."""
    return float(cross_gram(kernel, [x], [y])[0, 0])


def cross_gram(kernel: KernelSpec, xs, inducing) -> np.ndarray:
    """Rectangular Gram block: entry (i, j) is K(xs[i], inducing[j]); for a
    designed kernel the product of the two point sets' ``sections``, which
    takes (n + m) T doubles beside the block (``predict`` takes neither)."""
    xs = as_points(xs, kernel)
    ys = as_points(inducing, kernel)
    if kernel.is_designed:
        mu = kernel.eigenvalues()
        w = sections(xs, mu)
        # gram's one point set: W W^T is one syrk, exactly symmetric
        return w @ (w if ys is xs else sections(ys, mu)).T
    # In place: one n x m array and no n x m temporaries. Freeing such
    # temporaries raises glibc's mmap threshold, after which later arrays sit
    # on an untrimmed heap: with three temporaries per block, eight
    # ``gaussian_rule_4k`` ops peak at 89 MB RSS instead of 76 MB with
    # ``predict``'s 2 MB row blocks, and 179 MB instead of 123 MB with 32 MB ones.
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
    """Gram matrix ``cross_gram(xs, xs)``, exactly symmetric by construction:
    ``W W^T`` (one syrk) over the designed ``sections`` W, and otherwise
    entries that depend on ``x_i - x_j`` only through its magnitude, as IEEE
    subtraction is exactly antisymmetric."""
    xs = as_points(xs, kernel)
    return cross_gram(kernel, xs, xs)


def low_rank_gram(kernel: KernelSpec, xs, shift: float) -> tuple[np.ndarray, np.ndarray] | None:
    """``L^T`` (r x n) of a closed-form kernel's Gram ``gram(kernel, xs) ~ L L^T``,
    exact to round-off relative to ``shift``, and its r pivots P
    (``linalg.partial_cholesky``: one ``cross_gram`` column per pivot, no n x n
    array). None when the numerical rank is above the partial Cholesky's cap,
    and for a designed kernel, whose fits work in its own eigen-coordinates."""
    if kernel.is_designed:
        return None
    xs = as_points(xs, kernel)

    def column(i):
        return cross_gram(kernel, xs, xs[i : i + 1])[:, 0]

    return partial_cholesky(column, np.ones(xs.size), shift)  # K(x, x) = 1


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
