"""Plain Nystrom subsampling for kernel ridge regression.

Inducing points are drawn uniformly without replacement from the training
set; the estimator is the regularized risk minimizer restricted to the span
of their kernel sections (Rudi, Camoriano & Rosasco 2015).

Designed kernel: the span and one factor. With the sections
``w(x) = sqrt(mu) * e(x)`` (``K(x, y) = w(x) . w(y)``) and ``W`` those of the
m inducing points (m x T), the span is ``range(W^T)`` in the eigen-coordinates.
``f = sqrt(mu) * v`` has ``||f||_H = ||v||``, so the restricted minimizer
minimizes ``v^T (S + lam I) v - 2 b^T v`` over ``v`` in ``range(W^T)``, with
``S = W_n^T W_n / n``, ``b = W_n^T y / n`` and ``W_n`` the sections of the n
training points. The model is its eigen-coefficients ``sqrt(mu) * v``; it
carries no ``alpha``. For n <= T, ``v = Q beta`` for an orthonormal basis
``Q`` of the span (the rank rule below) and ``(G^T G + lam n I) beta = G^T y``,
``G = W_n Q``.

One factor, three uses (n > T). ``S`` and ``b`` come from the trig moments,
and ``S + lam I = U^T U`` is factored once, in place (``krr._moment_factor``,
designed full KRR's factor too). With ``u = U v`` the objective is
``||u - U^-T b||^2`` up to a constant, so for a basis ``B`` of the span and a
Householder QR ``Z = U B = Q_z R_z``, ``v = U^-1 Q_z Q_z^T U^-T b``, ``Q_z``
applied as reflectors (two ``ormqr`` calls on one vector). ``B`` is:

- ``W^T`` itself (the whitened span, T > m), ``Z`` formed by ``trmm`` in
  place of the sections, when a certificate rules out a cut: as
  ``W^T = U^-1 Q_z R_z``, ``cond_2(W)^2 <= ||W||_F^2 ||U||_2^2 ||R_z^-1||_2^2``,
  so ``||W||_F^2 ||U||_F^2 ||R_z^-1||_1 ||R_z^-1||_inf < 1 / tol^2``, the
  norms of ``R_z^-1`` from LAPACK's ``trcon`` and ``lantr``, keeps every
  direction;
- ``I`` when the sections span R^T: the closed form ``(S + lam I) v = b``;
- else the orthonormal basis of the rank rule, which needs no certificate
  (``cond(Z) <= cond(U)``): after a refused certificate (2 of the 40
  rule-sized rate cells n = 16384, T = 2048, m = 978 in the benchmark pool)
  or a rank cut.

The rank rule keeps the directions of W whose singular values lie above
``tol sigma_max``, ``tol = max(m, T) eps``. When m >= T and a pivoted Cholesky
of the T x T ``covariance`` of the inducing points keeps all T directions,
the sections span R^T, with no m x m or m x T array formed. Otherwise one
Householder factorization of ``W^T`` gives a square triangular R with
``range(W^T) = Q range(R)``: QR ``W^T = Q R`` below T, and RQ ``W^T = R Q'``
(``Q = I``) from T on, where the covariance, which squares cond(W), can miss
a span that W has. R has full rank unless LAPACK's estimates of its
``1 / cond_1`` and ``1 / cond_inf`` allow a singular-value ratio at or below
``tol`` (``cond_2^2 <= cond_1 cond_inf``); then the rank rule keeps the left
singular directions ``U_r`` of R, whose singular values are W's, above
``tol sigma_max``, and the basis is ``Q U_r`` (Chan 1982). A pivoted QR's
diagonal overestimates the smallest singular values and would keep round-off
directions this rule drops.

Closed-form kernels (Gaussian, Laplacian): with ``K_nm`` the training-by-inducing
Gram block and ``K_mm`` the inducing Gram, the coefficients solve

    (K_nm^T K_nm + lam * n * K_mm) alpha = K_nm^T y.

``K_mm`` is factored once by a rank-revealing pivoted Cholesky, ``K_rr = R^T R``
on the ``r <= m`` inducing points whose sections span the rest to round-off;
``alpha`` is 0 at the others (the basic, not the minimum-norm, solution).
``beta = R alpha`` turns the system on the kept points into the shifted SPD
``(G^T G + lam n I) beta = G^T y``, ``G = K_nr R^{-1}``, which avoids squaring
cond(``K_rr``).

A fit that keeps r < m directions logs ``kept r of m`` at INFO. Every model's
OpCount is the generic algorithm's flop model ``OpCount.nystrom(n, m)``:
Theta(n m^2) for the products plus Theta(m^3) for factorizations.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .kernels import KernelSpec, as_points, covariance, cross_gram, gram, sections
# predict is re-exported: one predict serves every model
from .krr import KernelModel, _moment_factor, _training_arrays, predict  # noqa: F401
from .linalg import (
    OpCount,
    check_count,
    check_fraction,
    check_number,
    check_positive,
    check_seed,
    pivoted_cholesky,
    solve_regularized,
)
from .spectral import n_infinity

logger = logging.getLogger(__name__)


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
        check_fraction(self.delta, "delta")
        if (self.gamma is None) != (self.c_gamma is None):
            raise ValueError("gamma and c_gamma must be given together")
        if self.gamma is not None:
            if not 0.0 < check_number(self.gamma, "gamma") <= 1.0:
                raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
            check_positive(self.c_gamma, "c_gamma")


def subsample_plain(n: int, m: int, seed: int) -> np.ndarray:
    """m distinct indices, uniform over size-m subsets, deterministic per seed."""
    n, m = check_count(n, "n"), check_count(m, "m")
    if m > n:
        raise ValueError(f"need m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(check_seed(seed))
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
    alpha = coeff = None
    if kernel.is_designed:
        coeff, rank = _designed_fit(kernel, xs, ys, x_ind, lam)
    else:
        r_factor, keep = pivoted_cholesky(gram(kernel, x_ind))
        beta = _reduced_generic(kernel, xs, ys, x_ind[keep], r_factor, lam)
        alpha = np.zeros(m)
        alpha[keep] = sla.solve_triangular(r_factor, beta, lower=False)
        rank = keep.size
    if rank < m:
        logger.info("kept %d of %d", rank, m)
    return KernelModel(
        x_ind, alpha, lam, OpCount.nystrom(n, m), idx, kernel, coefficients=coeff
    )


def _designed_fit(kernel, xs, ys, x_ind, lam):
    """Eigen-coefficients of the restricted minimizer and the dimension of the
    span: above T from one factor of ``S + lam I`` (on the whitened span, by the
    closed form, or projected onto ``Q`` from the rank rule), else on
    ``G = W_n Q`` (module docstring)."""
    mu = kernel.eigenvalues()
    n, m, t = xs.size, x_ind.size, mu.size
    tol = max(m, t) * np.finfo(np.float64).eps
    if n > t:
        # the factor of S + lam I before Q: built after Q, the moment blocks of S
        # stack on it (peak RSS 150-155 MB against 136-140 MB on rate cells
        # n=16384, m=978, T=2048)
        s_factor, rhs = _moment_factor(xs, ys, mu, lam)
        if m < t:
            v_vec = _whitened_solve(s_factor, rhs, sections(x_ind, mu).T, tol)
            if v_vec is not None:
                return np.sqrt(mu) * v_vec, m
    q_mat = u_mat = None
    if m < t or pivoted_cholesky(covariance(x_ind, mu))[1].size < t:
        # W^T (T x m, Fortran order) is factored in place: below T as Q R, so
        # range(W^T) = Q range(R); from T on as R Q' with R square, range(R)
        w_t, args = sections(x_ind, mu).T, {"overwrite_a": True, "check_finite": False}
        if m < t:
            q_mat, r_mat = sla.qr(w_t, mode="economic", **args)
        else:
            r_mat = sla.rq(w_t, mode="r", **args)[:, -t:]
        del w_t
        # cond_2(R)^2 <= cond_1(R) cond_inf(R): LAPACK's estimates of the square
        # R's 1 / cond_1 and 1 / cond_inf rule out a rank cut without an SVD
        if math.prod(sla.lapack.dtrcon(r_mat, norm=c)[0] for c in "1I") <= tol**2:
            # R's singular values are W's
            u_mat, sv = sla.svd(r_mat, full_matrices=False, check_finite=False)[:2]
            u_mat = u_mat[:, : np.count_nonzero(sv > tol * sv[0])]
        del r_mat  # freed before the products
    basis = u_mat if q_mat is None else q_mat if u_mat is None else q_mat @ u_mat
    if n > t:
        if basis is None:
            return np.sqrt(mu) * sla.cho_solve((s_factor, False), rhs, check_finite=False), t
        return np.sqrt(mu) * _project(s_factor, rhs, basis), basis.shape[1]
    g_mat = sections(xs, mu) if basis is None else sections(xs, mu) @ basis
    beta = solve_regularized(g_mat.T @ g_mat, lam * n, g_mat.T @ ys)
    return np.sqrt(mu) * (beta if basis is None else basis @ beta), beta.size


def _whitened_solve(s_factor, rhs, w_t, tol):
    """``_project`` onto ``range(W^T)`` itself, ``w_t = W^T`` (T x m, Fortran
    order, overwritten), or None when the certificate cannot rule out a rank
    cut of W (module docstring). ``||U||_F^2`` is ``tr S + lam``."""
    flat, u_flat = w_t.T.ravel(), s_factor.T.ravel()  # views: W and U^T, C-ordered
    return _project(s_factor, rhs, w_t, (flat @ flat) * (u_flat @ u_flat) * tol**2)


def _project(s_factor, rhs, basis, bound=None):
    """``v = U^-1 Q_z Q_z^T U^-T b``, the minimizer of ``v^T U^T U v - 2 b^T v``
    over ``range(basis)``, for the upper ``U = s_factor`` and
    ``Z = U basis = Q_z R_z``, formed and factored in the memory of ``basis``
    (T x r, Fortran order) when it can be; ``Q_z`` is applied as reflectors.
    With ``bound``, None unless ``bound < 1 / (||R_z^-1||_1 ||R_z^-1||_inf)``."""
    z_mat = sla.blas.dtrmm(1.0, s_factor, basis, overwrite_b=True)
    (qr_mat, tau), r_mat = sla.qr(z_mat, mode="raw", overwrite_a=True, check_finite=False)
    if bound is not None:
        # rcond times the norm is 1 / ||R_z^-1|| in each norm; estimated on R_z^T
        # (Fortran order), whose 1-norm is R_z's inf-norm and the other way round
        r_t = r_mat.T
        norms = (sla.lapack.dtrcon(r_t, norm=c, uplo="L")[0] * sla.lapack.dlantr(c, r_t, uplo="L")
                 for c in "1I")
        if not bound < math.prod(norms):
            return None
    vec = sla.solve_triangular(s_factor, rhs, trans="T", check_finite=False)[:, None]
    vec = sla.lapack.dormqr("L", "T", qr_mat, tau, vec, 1, overwrite_c=True)[0]
    vec[tau.size :] = 0.0
    vec = sla.lapack.dormqr("L", "N", qr_mat, tau, vec, 1, overwrite_c=True)[0]
    return sla.solve_triangular(s_factor, vec[:, 0], check_finite=False)


def _reduced_generic(kernel, xs, ys, x_ind, r_factor, lam):
    """``beta`` from ``(G^T G + lam n I) beta = G^T y``, ``G = K_nm R^{-1}``."""
    k_nm = cross_gram(kernel, xs, x_ind)
    g_mat = sla.solve_triangular(r_factor, k_nm.T, lower=False, trans="T").T
    return solve_regularized(g_mat.T @ g_mat, lam * xs.size, g_mat.T @ ys)


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
    check_fraction(lam, "size rule lambda")
    n = check_count(n, "n")
    if params.gamma is not None:
        n_inf = params.c_gamma**2 * lam ** (params.gamma - 1.0)
    elif kernel is not None:
        n_inf = n_infinity(kernel, lam, xs=xs)
    else:
        raise ValueError("subsample_size needs (gamma, c_gamma) in params or a kernel")
    raw = math.ceil(params.c * n_inf * math.log(1.0 / lam) * math.log(1.0 / params.delta))
    return max(1, min(n, raw))


def lambda_admissible(lam: float, n: int, delta: float, operator_norm_bound: float) -> bool:
    """Whether lam sits in [c log(n/delta)/n, operator_norm_bound], with the
    theory's unspecified constant c taken as 1."""
    n = check_count(n, "n")
    check_fraction(delta, "delta")
    lower = math.log(n / delta) / n
    return lower <= lam <= operator_norm_bound


def save_model(model: KernelModel, path) -> None:
    """Self-describing text artifact (format v3): kernel, indices, inducing
    points, lambda, and the eigen-``coefficients`` of a designed fit or the
    ``alpha`` of any other model."""
    if model.inducing_indices is None or model.kernel is None:
        raise ValueError("save_model stores Nystrom models that carry their kernel")
    payload = {
        "format": "nystrom-krr-model",
        "version": 3,
        "kernel": model.kernel.to_config(),
        "lambda": model.lam,
        "inducing_indices": model.inducing_indices.tolist(),
        "inducing_xs": model.support_xs.tolist(),
    }
    if model.coefficients is not None:
        payload["coefficients"] = model.coefficients.tolist()
    else:
        payload["alpha"] = model.alpha.tolist()
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_model(path) -> KernelModel:
    """Read a ``save_model`` artifact, version 3 or 2 (which stores ``alpha``);
    rejects other versions, a missing or invalid kernel, invalid inducing
    indices or lambda, and mismatched or non-finite arrays."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != "nystrom-krr-model":
        raise ValueError(f"{path} is not a saved model artifact")
    version = payload.get("version")
    if version not in (2, 3):
        raise ValueError(f"{path}: artifact version {version!r} is not 2 or 3")
    if "kernel" not in payload:
        raise ValueError(f"{path}: artifact carries no kernel")
    kernel = KernelSpec.from_config(payload["kernel"])
    idx = _inducing_indices(payload["inducing_indices"])
    support = as_points(payload["inducing_xs"], kernel)
    lam = check_positive(payload["lambda"], f"{path}: lambda")
    if ("alpha" in payload) == ("coefficients" in payload) or version == 2 and "alpha" not in payload:
        raise ValueError(f"{path}: an artifact carries alpha, or (v3) coefficients, not both")
    alpha = as_points(payload["alpha"]) if "alpha" in payload else None
    coeff = None if alpha is not None else as_points(payload["coefficients"])
    if coeff is not None and not (kernel.is_designed and coeff.size == kernel.truncation):
        raise ValueError(f"{path}: coefficients need a designed kernel of truncation {coeff.size}")
    if not idx.size == support.size == (support if alpha is None else alpha).size:
        raise ValueError(
            f"{path}: inducing_indices, inducing_xs and alpha differ in length "
            f"({idx.size}, {support.size}, {(support if alpha is None else alpha).size})"
        )
    return KernelModel(support, alpha, lam, inducing_indices=idx, kernel=kernel, coefficients=coeff)
