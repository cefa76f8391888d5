"""Property tests: invariants checked over generated inputs.

Few examples each and no deadline, so the suite stays fast and timing noise on
a loaded machine cannot fail a test.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nystrom_krr import krr, nystrom
from nystrom_krr.kernels import KernelSpec
from nystrom_krr.linalg import solve_regularized
from nystrom_krr.spectral import SpectralProfile, effective_dimension, lambda0
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
