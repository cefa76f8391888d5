"""Full-data kernel ridge regression baseline.

Minimizes the regularized empirical risk
``mean((f(x_i) - y_i)^2) + lam * ||f||_H^2`` over the RKHS; by the representer
theorem the coefficients solve ``(K + lam * n * I) c = y``. Note the ``n``
factor: it comes from the 1/n weighting of the data-fit term, so ``lam``
matches the population-scaled spectral quantities used elsewhere.

A designed kernel has rank T: with the sections ``w(x) = sqrt(mu) * e(x)``
(``W_n`` those of the n training points), the minimizer is ``f = sqrt(mu) * u``
with ``(S + lam I) u = b``, ``S = W_n^T W_n / n`` and ``b = W_n^T y / n``
(``_moment_system``). ``(S + lam I)^-1`` maps ``b`` into ``range(W_n^T)``, so
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
rank about 3.4 / bandwidth at n = 4096). ``predict`` sums ``cross_gram @
alpha`` in row blocks of at most ``_CHUNK_ELEMENTS`` doubles.
"""

from __future__ import annotations

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
from .linalg import OpCount, check_positive, cholesky_psd, solve_regularized


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
    another kernel is an error.
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


def _moment_system(xs, ys, mu):
    """``S = covariance(xs, mu)`` and ``b = sqrt(mu) * Phi^T y / n`` from the trig
    moments: the eigen-coordinate system ``(S + lam I) u = b`` of n > T points."""
    return covariance(xs, mu), np.sqrt(mu) * basis_moments(xs, ys, mu.size) / xs.size


def fit_krr(kernel: KernelSpec, data, lam: float) -> KernelModel:
    """Fit by solving the n x n shifted Gram system: for a designed kernel and
    n > T as the T x T closed form, for a closed-form kernel by Woodbury on its
    low-rank factor when the rank is below the cap (module docstring)."""
    xs, ys = _training_arrays(kernel, data, lam)
    n = xs.size
    if kernel.is_designed and n > kernel.truncation:
        mu = kernel.eigenvalues()
        s_mat, rhs = _moment_system(xs, ys, mu)
        coeff = np.sqrt(mu) * solve_regularized(s_mat, lam, rhs)
        return KernelModel(xs, None, lam, OpCount.krr(n), kernel=kernel, coefficients=coeff)
    factor_t = low_rank_gram(kernel, xs, lam * n)
    if factor_t is None:
        alpha = solve_regularized(gram(kernel, xs), lam * n, ys)
    else:
        # Woodbury: (L L^T + s I)^-1 y = (y - L (s I + L^T L)^-1 L^T y) / s
        chol = cholesky_psd(factor_t @ factor_t.T, lam * n)
        inner = sla.cho_solve((chol, False), factor_t @ ys, check_finite=False)
        alpha = (ys - factor_t.T @ inner) / (lam * n)
    return KernelModel(xs, alpha, lam, OpCount.krr(n), kernel=kernel)


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
    ``sum_j alpha_j K(x, x_j)`` by ``cross_gram`` in row blocks of at most
    ``_CHUNK_ELEMENTS`` doubles (2 MB: 64 rows of a 4096-point model)."""
    model.check_kernel(kernel)
    xs = as_points(xs, kernel)
    if kernel.is_designed:
        return basis_sum(xs, fitted_coefficients(model, kernel))
    out = np.empty(xs.size)
    step = max(1, _CHUNK_ELEMENTS // model.support_xs.size)
    for lo in range(0, xs.size, step):
        out[lo : lo + step] = cross_gram(kernel, xs[lo : lo + step], model.support_xs) @ model.alpha
    return out


def empirical_risk(model: KernelModel, kernel: KernelSpec, data, lam: float) -> float:
    """Regularized empirical risk of a fitted model on its training data.

    Works for both full-KRR and Nystrom models. The RKHS-norm term is
    ``sum_k f_k^2 / mu_k`` over the eigen-coefficients for a designed kernel
    (for an expansion this equals ``alpha^T K_ss alpha``), and
    ``alpha^T K_ss alpha`` over the support points otherwise.
    """
    xs, ys = _training_arrays(kernel, data, lam)
    preds = predict(model, kernel, xs)
    fit_term = float(np.mean((preds - ys) ** 2))
    if kernel.is_designed:
        coeff = fitted_coefficients(model, kernel)
        rkhs_sq = float(np.sum(coeff * coeff / kernel.eigenvalues()))
    else:
        rkhs_sq = float(model.alpha @ (gram(kernel, model.support_xs) @ model.alpha))
    return fit_term + lam * rkhs_sq
