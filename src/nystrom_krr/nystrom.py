"""Plain Nystrom subsampling for kernel ridge regression.

Inducing points are drawn uniformly without replacement from the training
set; the estimator is the risk minimizer restricted to the span of their
kernel sections. With ``K_nm`` the training-by-inducing Gram block and
``K_mm`` the inducing Gram, the coefficients solve

    (K_nm^T K_nm + lam * n * K_mm) alpha = K_nm^T y.

``K_mm`` is factored once by a rank-revealing pivoted Cholesky, ``K_rr = R^T R``
on the ``r <= m`` inducing points whose sections span the rest to round-off
(r < m for repeated inputs, or m > T for a designed kernel); ``alpha`` is 0 at
the others (the basic, not the minimum-norm, solution). ``beta = R alpha``
turns the system on the kept points into the shifted SPD ``(G^T G + lam n I)
beta = G^T y``, ``G = K_nr R^{-1}``, which avoids squaring cond(``K_rr``).

A designed kernel with n > T solves the same system divided by n in its own
coordinates, without forming ``K_nm``: with ``M = diag(mu)``, ``Phi`` the
n x T basis matrix and ``A = M^(1/2) Phi_r^T`` (so ``K_rr = A^T A``),
``G = Phi M^(1/2) Q`` for ``Q = A R^{-1}``, hence ``G^T G / n = Q^T S Q`` and
``G^T y / n = Q^T b`` with ``S = M^(1/2) (Phi^T Phi / n) M^(1/2)`` and
``b = M^(1/2) Phi^T y / n``, both from the basis moments of the data.

Cost: Theta(n m^2) for the products plus Theta(m^3) for factorizations,
recorded in the model's OpCount (``OpCount.nystrom``); the flop model stays
that of the generic algorithm on either path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .kernels import KernelSpec, as_points, basis_moments, covariance, cross_gram, gram, sections
# predict is re-exported: one predict serves every model
from .krr import KernelModel, _training_arrays, predict  # noqa: F401
from .linalg import OpCount, check_positive, pivoted_cholesky, solve_regularized
from .spectral import n_infinity


@dataclass(frozen=True)
class SizeRuleParams:
    """Constants of the subsample-size rule.

    ``c`` is the generic rule constant (the theory leaves it unspecified);
    ``delta`` the confidence level; ``gamma``/``c_gamma``, given together or
    not at all, switch the rule to the power-type envelope
    ``c_gamma^2 lam^(gamma-1)`` instead of a computed sup.
    """

    c: float = 1.0
    delta: float = 0.1
    gamma: float | None = None
    c_gamma: float | None = None

    def __post_init__(self):
        check_positive(self.c, "rule constant c")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if (self.gamma is None) != (self.c_gamma is None):
            raise ValueError("gamma and c_gamma must be given together")
        if self.gamma is not None:
            if not 0.0 < self.gamma <= 1.0:
                raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
            check_positive(self.c_gamma, "c_gamma")


def subsample_plain(n: int, m: int, seed: int) -> np.ndarray:
    """m distinct indices, uniform over size-m subsets, deterministic per seed."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    return rng.choice(n, size=m, replace=False)


def _inducing_indices(indices, n: int | None = None) -> np.ndarray:
    """The one check for inducing indices: a nonempty 1-D array of distinct
    integers or integral floats (not a bool array, nor a bool in a list or
    tuple, which ``np.asarray`` would turn into an int) >= 0, and < ``n`` when
    ``n`` is given. Returns them as int64."""
    idx = np.asarray(indices)
    listed_bool = isinstance(indices, (list, tuple)) and any(
        isinstance(v, (bool, np.bool_)) for v in indices
    )
    if (
        listed_bool
        or idx.dtype.kind not in "iuf"
        or not np.all(np.isfinite(idx) & (idx == np.trunc(idx)))
    ):
        raise ValueError("inducing indices must be integers, not bools or fractions")
    idx = idx.astype(np.int64)
    if idx.ndim != 1 or idx.size == 0 or np.unique(idx).size != idx.size:
        raise ValueError("inducing indices must be a nonempty 1-D array of distinct values")
    if idx.min() < 0 or n is not None and idx.max() >= n:
        raise ValueError("inducing indices out of range")
    return idx


def fit_nystrom(kernel: KernelSpec, data, lam: float, inducing_indices) -> KernelModel:
    xs, ys = _training_arrays(kernel, data, lam)
    idx = _inducing_indices(inducing_indices, xs.size)
    n, m = xs.size, idx.size
    x_ind = xs[idx]
    r_factor, keep = pivoted_cholesky(gram(kernel, x_ind))
    # The T-space solve costs O(n sqrt(T) + m T^2) against the generic
    # O(n m T + n m^2); measured at T = 2048, the two cross near n = T.
    tspace = kernel.is_designed and n > kernel.truncation
    reduced = _reduced_tspace if tspace else _reduced_generic
    beta = reduced(kernel, xs, ys, x_ind[keep], r_factor, lam)
    alpha = np.zeros(m)
    alpha[keep] = sla.solve_triangular(r_factor, beta, lower=False)
    return KernelModel(
        x_ind, alpha, lam, OpCount.nystrom(n, m), inducing_indices=idx, kernel=kernel
    )


def _reduced_generic(kernel, xs, ys, x_ind, r_factor, lam):
    """``beta`` from ``(G^T G + lam n I) beta = G^T y``, ``G = K_nm R^{-1}``."""
    k_nm = cross_gram(kernel, xs, x_ind)
    g_mat = sla.solve_triangular(r_factor, k_nm.T, lower=False, trans="T").T
    return solve_regularized(g_mat.T @ g_mat, lam * xs.size, g_mat.T @ ys)


def _reduced_tspace(kernel, xs, ys, x_ind, r_factor, lam):
    """The same ``beta`` from ``(Q^T S Q + lam I) beta = Q^T b`` (module docstring)."""
    mu = kernel.eigenvalues()
    # S before Q: forming S after the m x T sections raised a rate cell's peak
    # RSS from 153 to 180 MB (n=16384, m=978, T=2048, one BLAS thread)
    s_mat = covariance(xs, mu)
    b_vec = np.sqrt(mu) * basis_moments(xs, ys, mu.size) / xs.size
    q_t = sla.solve_triangular(r_factor, sections(x_ind, mu), lower=False, trans="T")
    reduced = q_t @ s_mat @ q_t.T
    return solve_regularized(0.5 * (reduced + reduced.T), lam, q_t @ b_vec)


def subsample_size(
    n: int,
    lam: float,
    params: SizeRuleParams,
    kernel: KernelSpec | None = None,
    xs=None,
) -> int:
    """Subsample size ``min(n, ceil(c * N_inf(lam) * log(1/lam) * log(1/delta)))``.

    ``N_inf`` is the ``gamma`` envelope when ``params`` carries one, else
    ``n_infinity(kernel, lam, xs=xs)``: exact for designed kernels, the
    empirical plug-in over the training points ``xs`` otherwise.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"size rule needs lambda in (0, 1), got {lam}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if params.gamma is not None:
        n_inf = params.c_gamma**2 * lam ** (params.gamma - 1.0)
    elif kernel is not None:
        n_inf = n_infinity(kernel, lam, xs=xs)
    else:
        raise ValueError("subsample_size needs (gamma, c_gamma) in params or a kernel")
    raw = math.ceil(params.c * n_inf * math.log(1.0 / lam) * math.log(1.0 / params.delta))
    return max(1, min(n, raw))


def lambda_admissible(
    lam: float, n: int, delta: float, operator_norm_bound: float, c: float = 1.0
) -> bool:
    """Whether lam sits in [c log(n/delta)/n, operator_norm_bound]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    lower = c * math.log(n / delta) / n
    return lower <= lam <= operator_norm_bound


def save_model(model: KernelModel, path) -> None:
    """Self-describing text artifact: kernel, indices, inducing points, alpha, lambda."""
    if model.inducing_indices is None or model.kernel is None:
        raise ValueError("save_model stores Nystrom models that carry their kernel")
    payload = {
        "format": "nystrom-krr-model",
        "version": 2,
        "kernel": model.kernel.to_config(),
        "lambda": model.lam,
        "inducing_indices": model.inducing_indices.tolist(),
        "inducing_xs": model.support_xs.tolist(),
        "alpha": model.alpha.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_model(path) -> KernelModel:
    """Read a version-2 ``save_model`` artifact; rejects other versions, a
    missing or invalid kernel, invalid inducing indices or lambda, and
    mismatched or non-finite arrays."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != "nystrom-krr-model":
        raise ValueError(f"{path} is not a saved model artifact")
    if payload.get("version") != 2:
        raise ValueError(f"{path}: artifact version {payload.get('version')!r} is not 2")
    if "kernel" not in payload:
        raise ValueError(f"{path}: artifact carries no kernel")
    kernel = KernelSpec.from_config(payload["kernel"])
    idx = _inducing_indices(payload["inducing_indices"])
    support = as_points(payload["inducing_xs"], kernel)
    alpha = as_points(payload["alpha"])
    lam = float(payload["lambda"])
    check_positive(lam, f"{path}: lambda")
    if not idx.size == support.size == alpha.size:
        raise ValueError(
            f"{path}: inducing_indices, inducing_xs and alpha differ in length "
            f"({idx.size}, {support.size}, {alpha.size})"
        )
    return KernelModel(support, alpha, lam, inducing_indices=idx, kernel=kernel)
