"""Property tests: invariants checked over generated inputs.

Few examples each and no deadline, so the suite stays fast and timing noise on
a loaded machine cannot fail a test.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nystrom_krr import krr, nystrom
from nystrom_krr.kernels import (
    KernelSpec,
    basis_moments,
    basis_sum,
    covariance,
    fourier_basis,
    gram,
    sections,
)
from nystrom_krr.linalg import cholesky_psd, solve_regularized
from nystrom_krr.spectral import SpectralProfile, effective_dimension, lambda0
from nystrom_krr.synthetic import Dataset, fitted_coefficients

FEW = settings(max_examples=25, deadline=None, database=None)


@FEW
@given(
    n=st.integers(1, 40),
    rank_frac=st.floats(0.0, 1.0),
    log_shift=st.floats(-6.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_regularized_residual(n, rank_frac, log_shift, seed):
    """(a + shift I) x = b up to backward-stable round-off, for PSD a of any rank."""
    rng = np.random.default_rng(seed)
    k = max(1, round(rank_frac * n))
    b_mat = rng.standard_normal((n, k))
    a = b_mat @ b_mat.T
    shift = 10.0**log_shift
    rhs = rng.standard_normal(n)
    x = solve_regularized(a, shift, rhs)
    resid = (a + shift * np.eye(n)) @ x - rhs
    scale = (np.linalg.norm(a, 2) + shift) * np.linalg.norm(x)
    assert np.linalg.norm(resid) <= 1e-12 * n * scale


@FEW
@given(
    top=st.floats(1e-3, 10.0),
    rest=st.lists(st.floats(0.0, 1.0), max_size=300),
    n=st.integers(1, 10**6),
)
def test_lambda0_solves_balance_equation(top, rest, n):
    """N(lambda0) = lambda0 * n for any descending nonnegative spectrum."""
    eigs = np.sort(np.array([top] + [top * r for r in rest]))[::-1]
    profile = SpectralProfile(eigs, "empirical")
    lam = lambda0(profile, n)
    assert np.isclose(effective_dimension(profile, lam), lam * n, rtol=1e-9, atol=0.0)


@FEW
@given(
    kernel=st.sampled_from(
        [KernelSpec.gaussian(0.8), KernelSpec.laplacian(1.1), KernelSpec.designed(0.5, 256)]
    ),
    n=st.integers(2, 60),
    log_lam=st.floats(-2.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_full_subsample_nystrom_matches_krr(kernel, n, log_lam, seed):
    """With every training point inducing, Nystrom is full KRR: same predictions."""
    rng = np.random.default_rng(seed)
    data = Dataset(xs=rng.uniform(0.0, 1.0, n), ys=rng.standard_normal(n))
    lam = 10.0**log_lam
    grid = np.linspace(0.0, 1.0, 41)
    base = krr.predict(krr.fit_krr(kernel, data, lam), kernel, grid)
    model = nystrom.fit_nystrom(kernel, data, lam, rng.permutation(n))
    ny = krr.predict(model, kernel, grid)
    assert np.linalg.norm(ny - base) <= 1e-8 * np.linalg.norm(base)


@FEW
@given(
    truncation=st.integers(1, 300),
    n=st.integers(1, 500),
    seed=st.integers(0, 2**32 - 1),
)
def test_trig_sums_match_basis_products(truncation, n, seed):
    """Type 2 is Phi f, type 1 is Phi^T w and the covariance is W^T W / n over
    the sections W = Phi M^(1/2), up to the angle round-off both sides share
    (about eps * 2 pi T per entry)."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, n)
    f, w = rng.standard_normal(truncation), rng.standard_normal(n)
    mu = rng.uniform(0.0, 1.0, truncation)
    basis = fourier_basis(xs, truncation)
    tol = 1e-14 * truncation
    assert np.abs(basis_sum(xs, f) - basis @ f).max() <= tol * np.abs(f).sum()
    assert np.abs(basis_moments(xs, w, truncation) - basis.T @ w).max() <= tol * np.abs(w).sum()
    sec = sections(xs, mu)
    assert np.abs(covariance(xs, mu) - sec.T @ sec / n).max() <= tol


@FEW
@given(
    s=st.sampled_from([0.4, 0.5, 0.8]),
    truncation=st.integers(1, 160),
    n=st.integers(2, 4096),
    m_frac=st.floats(0.0, 1.0),
    log_lam=st.floats(-4.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_tspace_fit_matches_generic_fit(s, truncation, n, m_frac, log_lam, seed):
    """Forcing either reduced solve on the same data and the same ``K_mm``
    factor R gives the same eigen-coefficients and predictions: to 1e-10
    relative while cond(R) <= 1e4, and to 1e-14 cond(R) beyond, where both
    paths lose digits to ``R^{-1}`` (m near or above T). ``alpha`` is not
    compared: an ill-conditioned R amplifies round-off in it."""
    kernel = KernelSpec.designed(s, truncation)
    rng = np.random.default_rng(seed)
    data = Dataset(xs=rng.uniform(0.0, 1.0, n), ys=rng.standard_normal(n))
    m = 1 + round(m_frac * (min(n, 2 * truncation) - 1))
    idx = rng.choice(n, m, replace=False)
    lam = 10.0**log_lam
    with mock.patch.object(nystrom, "_reduced_tspace", nystrom._reduced_generic):
        generic = nystrom.fit_nystrom(kernel, data, lam, idx)
    with mock.patch.object(nystrom, "_reduced_generic", nystrom._reduced_tspace):
        tspace = nystrom.fit_nystrom(kernel, data, lam, idx)
    r_factor = cholesky_psd(gram(kernel, data.xs[idx]), jitter_scale=lam * n)
    tol = max(1e-10, 1e-14 * np.linalg.cond(r_factor))
    ref = fitted_coefficients(generic, kernel)
    assert np.linalg.norm(fitted_coefficients(tspace, kernel) - ref) <= tol * np.linalg.norm(ref)
    grid = np.linspace(0.0, 1.0, 41)
    base = krr.predict(generic, kernel, grid)
    assert np.linalg.norm(krr.predict(tspace, kernel, grid) - base) <= tol * np.linalg.norm(base)
