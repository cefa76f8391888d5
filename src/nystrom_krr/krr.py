"""Full-data kernel ridge regression baseline.

Minimizes the regularized empirical risk
``mean((f(x_i) - y_i)^2) + lam * ||f||_H^2`` over the RKHS; by the representer
theorem the coefficients solve ``(K + lam * n * I) c = y``. Note the ``n``
factor: it comes from the 1/n weighting of the data-fit term, so ``lam``
matches the population-scaled spectral quantities used elsewhere.

A designed kernel has rank T: with the sections ``w(x) = sqrt(mu) * e(x)``
(``W_n`` those of the n training points), the minimizer is ``f = sqrt(mu) * u``
with ``(S + lam I) u = b``, ``S = W_n^T W_n / n`` and ``b = W_n^T y / n``
(``_moment_factor``). ``(S + lam I)^-1`` maps ``b`` into ``range(W_n^T)``, so
this is the exact full-KRR minimizer for any n points, repeated or not. Above
T it replaces the n x n system: O(n sqrt(T) + T^3) and no n x n array.

A closed-form kernel (Gaussian, Laplacian) solves on a round-off-exact
low-rank factor when its Gram has one: ``kernels.low_rank_gram``, a greedy
pivoted partial Cholesky ``K ~ L L^T`` (``linalg.partial_cholesky``, one
kernel column per pivot) stopped once the residual trace is at most
``n eps (lam n)``, so that ``||K - L L^T||_2`` is at most ``n eps`` relative to
the shift, the order of the dense Cholesky's backward error. Woodbury with
``C^T C = lam n I + L^T L`` (r x r) gives
``alpha = (y - L C^-1 C^-T L^T y) / (lam n)``: O(n r^2), no n x n array. The
factor gives up at rank n/64, where the dense Cholesky of the n x n Gram is
the faster route; that is the Laplacian and very narrow Gaussians (numerical
rank about 3.4 / bandwidth at n = 4096).

Predictions. An expansion is summed over its nonzero weights only (a Nystrom
fit's weights vanish off the r inducing points its pivoted Cholesky kept; an
all-zero ``alpha`` predicts zeros), as ``cross_gram @ alpha`` in row blocks of
at most ``_CHUNK_ELEMENTS`` doubles. A model fitted on the factor predicts
from it first. With P the pivots and ``L_P = L[P]`` (lower triangular), the
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
    _CHUNK_ELEMENTS,
    KernelSpec,
    as_points,
    basis_moments,
    basis_sum,
    covariance,
    cross_gram,
    gram,
    low_rank_gram,
    sections,
)
from .linalg import OpCount, _require_symmetric, check_positive, cholesky_psd, solve_regularized


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


def _moment_factor(xs, ys, mu, lam):
    """The system ``(S + lam I) u = b`` of n > T points from the trig moments: the
    upper ``U = cholesky(S + lam I)``, in the memory of ``S = covariance(xs, mu)``,
    and ``b = sqrt(mu) * Phi^T y / n``."""
    s_mat = covariance(xs, mu)
    _require_symmetric(s_mat)
    u_mat = cholesky_psd(s_mat, lam, overwrite_a=True)
    return u_mat, np.sqrt(mu) * basis_moments(xs, ys, mu.size) / xs.size


def fit_krr(kernel: KernelSpec, data, lam: float) -> KernelModel:
    """Fit by solving the n x n shifted Gram system: for a designed kernel and
    n > T as the T x T closed form, for a closed-form kernel by Woodbury on its
    low-rank factor when the rank is below the cap (module docstring)."""
    xs, ys = _training_arrays(kernel, data, lam)
    n = xs.size
    if kernel.is_designed and n > kernel.truncation:
        mu = kernel.eigenvalues()
        u_mat, rhs = _moment_factor(xs, ys, mu, lam)
        coeff = np.sqrt(mu) * sla.cho_solve((u_mat, False), rhs, check_finite=False)
        return KernelModel(xs, None, lam, OpCount.krr(n), kernel=kernel, coefficients=coeff)
    low_rank = low_rank_gram(kernel, xs, lam * n)
    if low_rank is None:
        alpha = solve_regularized(gram(kernel, xs), lam * n, ys)
        return KernelModel(xs, alpha, lam, OpCount.krr(n), kernel=kernel)
    # Woodbury: (L L^T + s I)^-1 y = (y - L (s I + L^T L)^-1 L^T y) / s
    factor_t, pivots = low_rank
    chol = cholesky_psd(factor_t @ factor_t.T, lam * n)
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
    ``fitted_coefficients`` summed by one type-2 trig sum (two exponentials per
    point and O(n sqrt(T)) complex products, plus the same per support point
    for an expansion's coefficients; no n x m block), else
    ``sum_j alpha_j K(x, x_j)``. A full-KRR fit on the low-rank factor takes
    ``h(x)^T c`` wherever the certificate vouches for it, O(r) kernel values
    and O(r^2) flops per point; every other point is summed over the nonzero
    weights by ``cross_gram`` in row blocks of at most ``_CHUNK_ELEMENTS``
    doubles (2 MB: 64 rows of a 4096-point model). An all-zero ``alpha``
    predicts zeros. See the module docstring."""
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
    step = max(1, _CHUNK_ELEMENTS // keep.size)
    for lo in range(0, rows.size, step):
        block = rows[lo : lo + step]
        out[block] = cross_gram(kernel, xs[block], support) @ weights
    return out


def _low_rank_predict(low_rank: _LowRankPredictor, kernel: KernelSpec, xs, out) -> np.ndarray:
    """Write ``h(x)^T c`` to ``out`` at every point, in row blocks of at most
    ``_CHUNK_ELEMENTS`` doubles, and return the indices of the points the
    certificate does not vouch for (module docstring)."""
    r, eps = low_rank.points.size, np.finfo(np.float64).eps
    refused = np.zeros(xs.size, dtype=bool)
    step = max(1, _CHUNK_ELEMENTS // r)
    for lo in range(0, xs.size, step):
        part = slice(lo, lo + step)
        # k(P, x) as the transpose of a C-ordered block: Fortran order for LAPACK
        h = sla.solve_triangular(
            low_rank.chol,
            cross_gram(kernel, xs[part], low_rank.points).T,
            lower=True,
            overwrite_b=True,
            check_finite=False,
        )
        out[part] = low_rank.weights @ h
        resid = np.maximum(1.0 - np.einsum("ij,ij->j", h, h), 0.0) + (r + 1) * eps
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
