"""Full-data kernel ridge regression baseline.

Minimizes the regularized empirical risk
``mean((f(x_i) - y_i)^2) + lam * ||f||_H^2`` over the RKHS; by the representer
theorem the coefficients solve ``(K + lam * n * I) c = y``. Note the ``n``
factor: it comes from the 1/n weighting of the data-fit term, so ``lam``
matches the population-scaled spectral quantities used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, as_points, basis_moments, basis_sum, cross_gram, gram
from .linalg import OpCount, check_positive, solve_regularized


@dataclass
class KernelModel:
    """A fitted kernel expansion ``f(x) = sum_j alpha_j K(x, support_xs[j])``.

    Full KRR supports on every training point; a Nystrom model supports on
    the inducing points and records their training-set ``inducing_indices``
    (None for full KRR). ``kernel`` is the kernel the model was fitted with;
    the fitters and ``load_model`` set it, and evaluating the model under
    another kernel is an error.
    """

    support_xs: np.ndarray
    alpha: np.ndarray
    lam: float
    opcount: OpCount = OpCount()
    inducing_indices: np.ndarray | None = None
    kernel: KernelSpec | None = None

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


def fit_krr(kernel: KernelSpec, data, lam: float) -> KernelModel:
    """Fit by solving the n x n shifted Gram system."""
    xs, ys = _training_arrays(kernel, data, lam)
    coeff = solve_regularized(gram(kernel, xs), lam * xs.size, ys)
    return KernelModel(xs, coeff, lam, OpCount.krr(xs.size), kernel=kernel)


def fitted_coefficients(model: KernelModel, kernel: KernelSpec) -> np.ndarray:
    """Eigenbasis coefficients of the fitted function: mu_k sum_j c_j e_k(x_j)."""
    if not kernel.is_designed:
        raise NotImplementedError(
            "exact basis coefficients need a designed kernel; "
            "use monte_carlo_error for closed-form kernels"
        )
    model.check_kernel(kernel)
    support = as_points(model.support_xs, kernel)
    return kernel.eigenvalues() * basis_moments(support, model.alpha, kernel.truncation)


def predict(model: KernelModel, kernel: KernelSpec, xs) -> np.ndarray:
    """Evaluate f(x) = sum_j alpha_j K(x, x_j) over the model's support points:
    for a designed kernel, its ``fitted_coefficients`` summed by one type-2 trig
    sum (O((n + m) sqrt(T)) exponentials, no n x m block), else by ``cross_gram``."""
    model.check_kernel(kernel)
    if kernel.is_designed:
        return basis_sum(as_points(xs, kernel), fitted_coefficients(model, kernel))
    return cross_gram(kernel, xs, model.support_xs) @ model.alpha


def empirical_risk(model: KernelModel, kernel: KernelSpec, data, lam: float) -> float:
    """Regularized empirical risk of a fitted model on its training data.

    Works for both full-KRR and Nystrom models; the RKHS-norm term is
    ``c^T K_ss c`` over the model's support points.
    """
    xs, ys = _training_arrays(kernel, data, lam)
    preds = predict(model, kernel, xs)
    fit_term = float(np.mean((preds - ys) ** 2))
    coeff = model.alpha
    rkhs_sq = float(coeff @ (gram(kernel, model.support_xs) @ coeff))
    return fit_term + lam * rkhs_sq
