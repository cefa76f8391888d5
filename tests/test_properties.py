"""Property tests: invariants checked over generated inputs.

Few examples each and no deadline, so the suite stays fast and timing noise on
a loaded machine cannot fail a test.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nystrom_krr import diagnostics, krr, nystrom
from nystrom_krr.kernels import (
    DecaySpec,
    KernelSpec,
    basis_moments,
    basis_sum,
    covariance,
    fourier_basis,
    sections,
)
from nystrom_krr.linalg import solve_regularized
from nystrom_krr.spectral import IndexFunction, SpectralProfile, effective_dimension, lambda0
from nystrom_krr.synthetic import Dataset

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
    truncation=st.integers(1, 40),
    m_extra=st.integers(0, 44),
    n_extra=st.integers(0, 200),
    log_lam=st.floats(-4.0, -0.01),  # the size rule needs lambda < 1
    r=st.sampled_from([0.1, 0.25, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagnostics_match_direct_formulas(s, truncation, m_extra, n_extra, log_lam, r, seed):
    """Each check's extreme-eigenvalue closed form equals the direct formula on
    the same draw (one trial): the SVD norm, the inverse square root through
    eigenvectors, and phi(M_P) on the rank-min(m, T) spectrum of the T x T
    M_P. To 1e-10 relative, with an absolute floor of 1e-12 ||M|| where the
    value is round-off (the projection residual at m >= T)."""
    decay = DecaySpec(s)
    m = 1 + m_extra % (truncation + 5)  # m < T, m = T and m > T
    n, lam, phi, delta = m + n_extra, 10.0**log_lam, IndexFunction.holder(r), 0.1
    mu = decay.eigenvalues(truncation)
    root, pop = np.sqrt(mu), np.diag(mu)
    floor = 1e-12 * mu.max()

    def close(value, reference):
        return abs(value - reference) <= 1e-10 * abs(reference) + floor

    # projection and smoothness draw (xs, idx); norm equivalence and
    # concentration draw xs; each with the trial's own generator
    (ss,) = np.random.SeedSequence(seed).spawn(1)
    rng = np.random.default_rng(ss)
    xs = rng.uniform(0.0, 1.0, n)
    q, _ = np.linalg.qr(sections(xs[rng.choice(n, size=m, replace=False)], mu).T)
    resid = np.linalg.norm(root[:, None] * (np.eye(truncation) - q @ q.T), 2) ** 2
    rep = diagnostics.check_projection_bound(decay, truncation, n, m, lam, delta, 1, seed)
    assert close(3.0 * lam * rep.observed_max_ratio, resid)

    evals, evecs = np.linalg.eigh(root[:, None] * (q @ q.T) * root[None, :])
    evals[: truncation - min(m, truncation)] = 0.0
    phi_mp = (evecs * phi(np.clip(evals, 0.0, None))) @ evecs.T
    smooth = np.linalg.norm(np.diag(phi(mu)) - phi_mp, 2)
    rep = diagnostics.check_smoothness_perturbation(
        decay, truncation, n, m, lam, phi, 1, seed, delta
    )
    assert close(phi(lam) * rep.observed_max_ratio, smooth)

    s_hat = covariance(np.random.default_rng(ss).uniform(0.0, 1.0, n), mu)
    evals, evecs = np.linalg.eigh(s_hat)
    inv_root = (evecs * (lam + np.clip(evals, 0.0, None)) ** -0.5) @ evecs.T
    norm_eq = np.linalg.norm(np.sqrt(lam + mu)[:, None] * inv_root, 2)
    rep = diagnostics.check_norm_equivalence(decay, truncation, n, lam, delta, 1, seed)
    assert close(2.0 * rep.observed_max_ratio, norm_eq)

    conc = np.linalg.norm((lam + mu)[:, None] ** -0.5 * (pop - s_hat), 2)
    rate = math.log(1.0 / delta) * math.sqrt(
        effective_dimension(SpectralProfile(mu, "analytic"), lam) / n
    )
    rep = diagnostics.check_concentration(decay, truncation, n, lam, 1, seed, delta=delta)
    assert close(rate * rep.observed_max_ratio, conc)
