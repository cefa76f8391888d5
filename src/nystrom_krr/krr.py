"""Full-data kernel ridge regression baseline.

Minimizes the regularized empirical risk
``mean((f(x_i) - y_i)^2) + lam * ||f||_H^2`` over the RKHS; by the representer
theorem the coefficients solve ``(K + lam * n * I) c = y``. Note the ``n``
factor: it comes from the 1/n weighting of the data-fit term, so ``lam``
matches the population-scaled spectral quantities used elsewhere.

A designed kernel has rank T: with the sections ``w(x) = sqrt(mu) * e(x)``
(``W_n`` those of the n training points), the minimizer is ``f = sqrt(mu) * u``
with ``(S + lam I) u = b``, ``S = W_n^T W_n / n`` and ``b = W_n^T y / n``
(``_moment_factor`` factors ``S + lam I``). ``(S + lam I)^-1`` maps ``b`` into
``range(W_n^T)``: the exact full-KRR minimizer for any n points, repeated or
not. Above T it replaces the n x n system: O(n sqrt(T) + T^3), no n x n array.

A closed-form kernel (Gaussian, Laplacian) solves on ``_shifted_factor``, the
one factor of ``K + lam n I`` that ``spectral``'s ridge leverage scores share:
``kernels.low_rank_gram``, a greedy pivoted partial Cholesky ``K ~ L L^T``
(``linalg.partial_cholesky``, one kernel column per pivot) stopped once the
residual trace is at most ``n eps (lam n)``, so that ``||K - L L^T||_2`` is at
most ``n eps`` relative to the shift, the order of the dense Cholesky's
backward error. Woodbury with ``C^T C = lam n I + L^T L`` (r x r) gives
``alpha = (y - L C^-1 C^-T L^T y) / (lam n)`` and the leverage scores as the
squared norms ``n ||C^-T l_i||^2`` (no ``1 - lam d_i`` cancellation): O(n r^2),
no n x n array. The factor gives up at rank n/64, where the dense Cholesky
``R^T R = K + lam n I`` is the faster route; that is the Laplacian and very
narrow Gaussians (numerical rank about 3.4 / bandwidth at n = 4096).

One held cell, the last low-rank or moment factor, lets the size rule, ``fit_krr``
and the designed Nystrom fit on one cell's data, whatever the labels, build it once.
Its key is compared by value, never identity: the kernel, shift and points' bytes,
or mu, lam and points. A miss drops it before the build. Its arrays are read-only;
it holds r x n doubles, or T^2 (n > T: 32 MB at T = 2048), until the next build or
``_drop_cell``; the dense route is not held. Designed fits run at one BLAS thread.

Predictions. An expansion is summed over its nonzero weights only (a Nystrom
fit's weights vanish off the r inducing points its pivoted Cholesky kept; an
all-zero ``alpha`` predicts zeros), as ``cross_gram @ alpha`` in the 2 MB row
blocks of ``kernels._row_blocks``. A model fitted on the factor predicts from
it first. With P the pivots and ``L_P = L[P]`` (lower triangular), the
factor extends to any x as ``h(x) = L_P^-1 k(P, x)``, so
``f(x) ~ h(x)^T c`` with ``c = L^T alpha``: one r-column ``cross_gram`` and
one triangular solve per point. The error is ``sum_j alpha_j E(x, x_j)`` for
the Schur-complement kernel ``E(x, y) = K(x, y) - h(x)^T h(y)``, which is
PSD, so Cauchy-Schwarz in its RKHS bounds it by
``sqrt(E(x, x)) sqrt(alpha^T E_XX alpha)``; the factor's stopping rule gives
``tr E_XX <= n eps (lam n)``, and ``E(x, x) = 1 - ||h(x)||^2``. Where

    sqrt(max(1 - ||h||^2, 0) + (r + 1) eps) ||alpha||_2 sqrt(n eps lam n)
        <= n eps ||alpha||_1,

the forward-error bound of the exact sum itself (``0 <= K <= 1``), the
factor's value stands; every other point (far outside the training points,
where ``h`` vanishes) gets the exact row-block sum. Hand-built and loaded
models, fits off the factor and a rank-0 factor carry none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .kernels import (
    KernelSpec,
    _row_blocks,
    as_points,
    basis_moments,
    basis_sum,
    covariance,
    cross_gram,
    gram,
    low_rank_gram,
    sections,
)
from .linalg import OpCount, blas_threads, check_positive, cholesky_psd


@dataclass(frozen=True)
class _LowRankPredictor:
    """What ``fit_krr`` keeps of its low-rank factor for ``predict`` (module
    docstring): the pivot points, ``L_P``, ``c = L^T alpha`` and the two sides
    of the certificate without the per-point factor."""

    points: np.ndarray
    chol: np.ndarray
    weights: np.ndarray
    scale: float  # ||alpha||_2 sqrt(n eps lam n)
    tol: float  # n eps ||alpha||_1


class KernelModel:
    """A fitted function, in one of two forms: the expansion
    ``f(x) = sum_j alpha_j K(x, support_xs[j])`` (every Gaussian or Laplacian
    model, designed full KRR on n <= T points, and hand-built models), or, for
    a designed-kernel Nystrom fit or designed full KRR on n > T points, its
    eigen-``coefficients`` ``f = sum_k f_k e_k`` and no ``alpha``.

    Full KRR supports on every training point; a Nystrom model supports on
    the inducing points and records their training-set ``inducing_indices``
    (None for full KRR). ``kernel`` is the kernel the model was fitted with;
    the fitters and ``load_model`` set it, and evaluating the model under
    another kernel is an error. Full KRR fitted on a low-rank factor also
    keeps what ``predict`` needs of that factor (module docstring).
    """

    def __init__(
        self,
        support_xs: np.ndarray,
        alpha: np.ndarray | None,
        lam: float,
        opcount: OpCount = OpCount(),
        inducing_indices: np.ndarray | None = None,
        kernel: KernelSpec | None = None,
        coefficients: np.ndarray | None = None,
    ):
        designed = kernel is not None and kernel.is_designed
        if (alpha is None) == (coefficients is None) or coefficients is not None and not designed:
            raise ValueError("a model carries alpha, or eigen-coefficients and their kernel")
        self.support_xs, self._alpha, self.lam, self.opcount = support_xs, alpha, lam, opcount
        self.inducing_indices, self.kernel, self.coefficients = inducing_indices, kernel, coefficients
        self._low_rank: _LowRankPredictor | None = None  # set by fit_krr only

    @property
    def alpha(self) -> np.ndarray:
        """The expansion weights. A designed fit has none of its own; for callers
        that ask, this is then the least-squares solution of
        ``sections(support_xs)^T alpha = coefficients / sqrt(mu)`` (computed once,
        O(m T min(m, T))). The package reads ``coefficients`` instead."""
        if self._alpha is None:
            mu = self.kernel.eigenvalues()
            w_t = sections(self.support_xs, mu).T
            self._alpha = sla.lstsq(w_t, self.coefficients / np.sqrt(mu), lapack_driver="gelsy")[0]
        return self._alpha

    def check_kernel(self, kernel: KernelSpec) -> None:
        """Reject a kernel other than the one the model was fitted with."""
        if self.kernel is not None and kernel != self.kernel:
            raise ValueError(
                f"model was fitted with kernel {self.kernel.to_config()}, "
                f"not {kernel.to_config()}"
            )


def _training_arrays(kernel: KernelSpec, data, lam: float):
    """Validated ``(xs, ys)`` of a training set (``as_points`` each, equal length)."""
    check_positive(lam)
    xs = as_points(data.xs, kernel)
    ys = as_points(data.ys)
    if xs.shape != ys.shape:
        raise ValueError(f"xs/ys length mismatch: {xs.shape} vs {ys.shape}")
    return xs, ys


_held = None  # (key, value) of the held cell (module docstring), or None


def _drop_cell() -> None:
    global _held
    _held = None


def _cell(key: tuple, build):
    """``build()``, or the held value when ``key`` equals the held key; a miss
    drops the held cell before the build, so two are never held."""
    global _held
    if _held is not None and _held[0] == key:
        return _held[1]
    _held = None
    value = build()
    if value is not None:
        for part in value:
            if isinstance(part, np.ndarray):
                part.setflags(write=False)
        _held = key, value
    return value


def _moment_factor(xs, mu, lam):
    """``(U, ||U||_F^2)`` of n > T points, ``U^T U = S + lam I`` from the lower triangle
    of ``S = covariance(xs, mu)``, in its memory (mirror entries differ by rounding),
    held under mu, lam and xs; each reader forms ``b = sqrt(mu) * Phi^T y / n``."""
    def build():
        s_mat = covariance(xs, mu)
        norm2 = float(np.trace(s_mat)) + mu.size * lam
        return cholesky_psd(s_mat, lam, overwrite_a=True), norm2

    return _cell(("moment", mu.tobytes(), lam, xs.tobytes()), build)


def _shifted_factor(kernel: KernelSpec, xs, shift: float):
    """``(L^T, P, C)`` of ``low_rank_gram`` with ``C^T C = shift I + L^T L``, held,
    else ``(None, None, R)`` with ``R^T R = K + shift I`` factored in the Gram's
    own memory (one n x n array, not held; ``gram`` is exactly symmetric)."""
    def build():
        low_rank = low_rank_gram(kernel, xs, shift)
        if low_rank is not None:  # else None: the dense route is not held
            return *low_rank, cholesky_psd(low_rank[0] @ low_rank[0].T, shift)

    factor = _cell(("shifted", kernel, shift, xs.tobytes()), build)
    if factor is None:
        return None, None, cholesky_psd(gram(kernel, xs), shift, overwrite_a=True)
    return factor


def fit_krr(kernel: KernelSpec, data, lam: float) -> KernelModel:
    """Fit by solving the n x n shifted Gram system: for a designed kernel and
    n > T as the T x T closed form, for a closed-form kernel by Woodbury on its
    low-rank factor when the rank is below the cap (module docstring)."""
    xs, ys = _training_arrays(kernel, data, lam)
    if not kernel.is_designed:
        return _fit_krr(kernel, xs, ys, lam)
    with blas_threads(1):
        return _fit_krr(kernel, xs, ys, lam)


def _fit_krr(kernel: KernelSpec, xs, ys, lam: float) -> KernelModel:
    n = xs.size
    if kernel.is_designed and n > kernel.truncation:
        mu = kernel.eigenvalues()
        u_mat = _moment_factor(xs, mu, lam)[0]
        rhs = np.sqrt(mu) * basis_moments(xs, ys, mu.size) / n
        coeff = np.sqrt(mu) * sla.cho_solve((u_mat, False), rhs, check_finite=False)
        return KernelModel(xs, None, lam, OpCount.krr(n), kernel=kernel, coefficients=coeff)
    factor_t, pivots, chol = _shifted_factor(kernel, xs, lam * n)
    if factor_t is None:
        alpha = sla.cho_solve((chol, False), ys, check_finite=False)
        return KernelModel(xs, alpha, lam, OpCount.krr(n), kernel=kernel)
    # Woodbury: (L L^T + s I)^-1 y = (y - L (s I + L^T L)^-1 L^T y) / s
    inner = sla.cho_solve((chol, False), factor_t @ ys, check_finite=False)
    alpha = (ys - factor_t.T @ inner) / (lam * n)
    model = KernelModel(xs, alpha, lam, OpCount.krr(n), kernel=kernel)
    if pivots.size == 0:  # lam n >= 1 / eps: K itself is round-off
        return model
    eps = np.finfo(np.float64).eps
    model._low_rank = _LowRankPredictor(
        xs[pivots],
        np.tril(factor_t[:, pivots].T),
        factor_t @ alpha,
        float(np.linalg.norm(alpha)) * math.sqrt(n * eps * lam * n),
        n * eps * float(np.abs(alpha).sum()),
    )
    return model


def fitted_coefficients(model: KernelModel, kernel: KernelSpec) -> np.ndarray:
    """Eigenbasis coefficients of the fitted function: a designed fit's own
    ``coefficients``, else ``mu_k sum_j alpha_j e_k(x_j)``."""
    if not kernel.is_designed:
        raise NotImplementedError(
            "exact basis coefficients need a designed kernel; "
            "use monte_carlo_error for closed-form kernels"
        )
    model.check_kernel(kernel)
    if model.coefficients is not None:
        return model.coefficients
    support = as_points(model.support_xs, kernel)
    return kernel.eigenvalues() * basis_moments(support, model.alpha, kernel.truncation)


def predict(model: KernelModel, kernel: KernelSpec, xs) -> np.ndarray:
    """Evaluate the model at ``xs``: for a designed kernel, its
    ``fitted_coefficients`` summed by one type-2 trig sum (a non-uniform FFT,
    O(T log T + n) work, plus a blocked type-1 sum over the support points
    for an expansion's coefficients; no n x m block), else
    ``sum_j alpha_j K(x, x_j)``. A full-KRR fit on the low-rank factor takes
    ``h(x)^T c`` wherever the certificate vouches for it, O(r) kernel values
    and O(r^2) flops per point; every other point is summed over the nonzero
    weights by ``cross_gram`` in the row blocks of ``kernels._row_blocks``
    (2 MB: 64 rows of a 4096-point model). An all-zero ``alpha`` predicts
    zeros. See the module docstring."""
    model.check_kernel(kernel)
    xs = as_points(xs, kernel)
    if kernel.is_designed:
        return basis_sum(xs, fitted_coefficients(model, kernel))
    keep = np.flatnonzero(model.alpha)
    if keep.size == 0:
        return np.zeros(xs.size)
    out = np.empty(xs.size)
    if model._low_rank is None:
        rows = np.arange(xs.size)
    else:
        rows = _low_rank_predict(model._low_rank, kernel, xs, out)
    support, weights = model.support_xs[keep], model.alpha[keep]
    for part in _row_blocks(rows.size, keep.size):
        block = rows[part]
        out[block] = cross_gram(kernel, xs[block], support) @ weights
    return out


def _low_rank_predict(low_rank: _LowRankPredictor, kernel: KernelSpec, xs, out) -> np.ndarray:
    """Write ``h(x)^T c`` to ``out`` at every point, in the row blocks of
    ``kernels._row_blocks``, and return the indices of the points the
    certificate does not vouch for (module docstring)."""
    r, eps = low_rank.points.size, np.finfo(np.float64).eps
    refused = np.zeros(xs.size, dtype=bool)
    for part in _row_blocks(xs.size, r):
        # h(x)^T = k(x, P) L_P^-T from the right, on k(x, P) as the transpose of
        # a C-ordered block: Fortran order for BLAS, no copy
        k_xp = cross_gram(kernel, low_rank.points, xs[part]).T
        h_t = sla.blas.dtrsm(1.0, low_rank.chol, k_xp, side=1, lower=1, trans_a=1, overwrite_b=True)
        out[part] = h_t @ low_rank.weights
        resid = np.maximum(1.0 - np.einsum("ij,ij->i", h_t, h_t), 0.0) + (r + 1) * eps
        refused[part] = np.sqrt(resid) * low_rank.scale > low_rank.tol
    return np.flatnonzero(refused)


def empirical_risk(model: KernelModel, kernel: KernelSpec, data, lam: float) -> float:
    """Regularized empirical risk of a fitted model on its training data.

    Works for both full-KRR and Nystrom models. The RKHS-norm term is
    ``sum_k f_k^2 / mu_k`` over the eigen-coefficients for a designed kernel
    (for an expansion this equals ``alpha^T K_ss alpha``), and
    ``alpha^T K_ss alpha`` over the support points otherwise, with
    ``K_ss alpha`` from ``predict`` at the support points: no m x m Gram.
    """
    xs, ys = _training_arrays(kernel, data, lam)
    preds = predict(model, kernel, xs)
    fit_term = float(np.mean((preds - ys) ** 2))
    if kernel.is_designed:
        coeff = fitted_coefficients(model, kernel)
        rkhs_sq = float(np.sum(coeff * coeff / kernel.eigenvalues()))
    else:
        rkhs_sq = float(model.alpha @ predict(model, kernel, model.support_xs))
    return fit_term + lam * rkhs_sq
