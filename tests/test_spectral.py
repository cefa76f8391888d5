import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nystrom_krr.kernels import DecaySpec, KernelSpec, basis_sup, fourier_basis
from nystrom_krr.spectral import (
    IndexFunction,
    SpectralProfile,
    analytic_profile,
    c_gamma_for_designed,
    effective_dimension,
    empirical_profile,
    filters,
    lambda0,
    n_infinity,
    nx_empirical,
    nx_empirical_training,
    qualification_margin,
    theta,
)


# ---------------------------------------------------------------------------
# profiles and effective dimension
# ---------------------------------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        SpectralProfile(np.array([0.1, 0.5]), "analytic")  # ascending
    with pytest.raises(ValueError):
        SpectralProfile(np.array([1.0, -0.1]), "analytic")
    prof = SpectralProfile(np.array([2.0, 1.0]), "analytic")
    assert prof.top == 2.0


def test_effective_dimension_hand_values():
    prof = SpectralProfile(np.array([1.0, 0.25]), "analytic")
    assert_allclose(effective_dimension(prof, 0.5), 1.0, rtol=1e-14)
    single = SpectralProfile(np.array([0.7]), "analytic")
    assert_allclose(effective_dimension(single, 0.7), 0.5)
    assert effective_dimension(prof, 1e12) < 1e-11
    zeros = SpectralProfile(np.zeros(4), "analytic")
    assert effective_dimension(zeros, 0.1) == 0.0
    with pytest.raises(ValueError):
        effective_dimension(prof, 0.0)


def test_effective_dimension_decreasing():
    prof = analytic_profile(DecaySpec(0.5), 512)
    lams = np.logspace(-8, 0, 40)
    vals = [effective_dimension(prof, lam) for lam in lams]
    assert np.all(np.diff(vals) < 0)


def test_empirical_profile_fast_path_matches_generic():
    kernel = KernelSpec.designed(0.5, 24)
    rng = np.random.default_rng(2)
    xs = rng.uniform(0.0, 1.0, 60)
    fast = empirical_profile(kernel, xs)  # n > truncation: T x T route
    from nystrom_krr.kernels import gram
    from nystrom_krr.linalg import sym_eigenvalues

    direct = np.clip(sym_eigenvalues(gram(kernel, xs) / xs.size), 0.0, None)
    assert_allclose(fast.eigenvalues, direct[: fast.eigenvalues.size], atol=1e-10)
    assert np.all(direct[fast.eigenvalues.size :] < 1e-10)


# ---------------------------------------------------------------------------
# lambda0 and theta
# ---------------------------------------------------------------------------


def test_lambda0_quadratic_oracle():
    # single eigenvalue 1, n = 2: 1/(1+x) = 2x has root (-1 + sqrt(3)) / 2
    prof = SpectralProfile(np.array([1.0]), "analytic")
    assert_allclose(lambda0(prof, 2), (math.sqrt(3.0) - 1.0) / 2.0, rtol=1e-10)


def test_lambda0_monotone_in_n():
    prof = analytic_profile(DecaySpec(0.5), 256)
    vals = [lambda0(prof, n) for n in (10, 20, 40, 80, 160)]
    assert np.all(np.diff(vals) < 0)
    # root property
    for n, lam in zip((10, 20, 40, 80, 160), vals):
        assert_allclose(effective_dimension(prof, lam), lam * n, rtol=1e-9)


def test_lambda0_degenerate():
    with pytest.raises(ValueError):
        lambda0(SpectralProfile(np.zeros(3), "analytic"), 5)


def test_theta_at_lambda0():
    prof = analytic_profile(DecaySpec(0.5), 512)
    phi = IndexFunction.holder(0.25)
    n = 1000
    lam0 = lambda0(prof, n)
    assert_allclose(theta(phi, prof, n, lam0), 2.0 * phi(lam0), rtol=1e-9)


def test_theta_zero_capacity():
    prof = SpectralProfile(np.zeros(3), "analytic")
    phi = IndexFunction.holder(0.5)
    grid = np.logspace(-6, 0, 30)
    vals = [theta(phi, prof, 100, lam) for lam in grid]
    assert_allclose(vals, phi(grid), rtol=1e-14)
    assert np.argmin(vals) == 0


@pytest.mark.parametrize(
    "phi",
    [IndexFunction.holder(0.1), IndexFunction.holder(0.5), IndexFunction.log_type(0.5)],
)
@pytest.mark.parametrize("n", [100, 10_000])
def test_lambda0_sandwich(phi, n):
    prof = analytic_profile(DecaySpec(0.5), 512)
    lam0 = lambda0(prof, n)
    grid = np.concatenate([np.logspace(-8, math.log10(prof.top), 1500), [lam0]])
    best = min(theta(phi, prof, n, lam) for lam in grid)
    assert phi(lam0) * (1.0 - 1e-6) <= best <= 2.0 * phi(lam0) * (1.0 + 1e-6)


def test_lambda0_feasibility_threshold():
    """Once n is large enough, lambda0 falls inside the admissible window for
    spectra whose capacity grows at least logarithmically."""
    from nystrom_krr.nystrom import lambda_admissible

    prof = analytic_profile(DecaySpec(0.5), 2048)
    # capacity grows like lambda**-0.5, far above log(1/lambda)
    admissible = [
        lambda_admissible(lambda0(prof, n), n, 0.1, prof.top) for n in (16, 64, 256, 1024, 4096)
    ]
    assert admissible[-1]
    first = admissible.index(True)
    assert all(admissible[first:])


# ---------------------------------------------------------------------------
# index functions
# ---------------------------------------------------------------------------


def test_index_function_validation():
    with pytest.raises(ValueError):
        IndexFunction.holder(0.6)
    with pytest.raises(ValueError):
        IndexFunction.holder(0.0)
    with pytest.raises(ValueError):
        IndexFunction.log_type(1.2)
    with pytest.raises(ValueError):
        IndexFunction("power", 0.3)


def test_index_function_values():
    phi = IndexFunction.holder(0.5)
    assert phi(0.0) == 0.0
    assert_allclose(phi(0.25), 0.5)
    log_phi = IndexFunction.log_type(1.0)
    assert log_phi(0.0) == 0.0
    assert_allclose(log_phi(math.exp(-4.0)), 0.25)
    # constant extension above the cap
    assert log_phi(0.9) == log_phi(0.5) == 1.0


def test_index_function_admissibility():
    assert IndexFunction.holder(0.1).is_admissible()
    assert IndexFunction.holder(0.5).is_admissible()
    assert IndexFunction.log_type(0.5).is_admissible()
    # sqrt(t)/phi decreases just below the domain cap when r > 1/2
    for r in (0.501, 0.51, 0.52, 1.0):
        assert not IndexFunction.log_type(r).is_admissible()


# ---------------------------------------------------------------------------
# filters and qualification
# ---------------------------------------------------------------------------


def test_filters_values_and_identity():
    g, r = filters(0.3, 0.0)
    assert_allclose([g, r], [1.0 / 0.3, 1.0])
    _, r_half = filters(0.3, 0.3)
    assert r_half == 0.5
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 5.0, 100)
    for lam in (1e-6, 0.1, 1.0):
        g, r = filters(lam, t)
        assert_allclose(g * t + r, 1.0, rtol=0, atol=1e-15)


def test_qualification_margin_sqrt_calculus_oracle():
    # phi = sqrt(t), q = 0: sup_t lam sqrt(t)/(lam + t) = sqrt(lam)/2 at t = lam
    phi = IndexFunction.holder(0.5)
    for lam in (1e-6, 1e-3, 0.1):
        grid = np.concatenate([np.logspace(-10, 0, 4000), [lam]])
        margin = qualification_margin(phi, lam, 0.0, grid)
        assert_allclose(margin, 0.5, rtol=1e-6)


def test_qualification_margin_bounds():
    grid = np.logspace(-10, 0, 10_000)
    for phi in (IndexFunction.holder(0.25), IndexFunction.holder(0.5), IndexFunction.log_type(0.5)):
        for lam in np.logspace(-8, 0, 9):
            assert qualification_margin(phi, lam, 0.0, grid) <= 1.0 + 1e-9
            for q in (0.25, 0.5):
                assert qualification_margin(phi, lam, q, grid) <= 2.0 + 1e-9


def test_qualification_margin_validation():
    with pytest.raises(ValueError):
        qualification_margin(IndexFunction.holder(0.5), 0.1, 0.6, np.array([0.1]))
    with pytest.raises(ValueError):
        qualification_margin(IndexFunction.holder(0.5), 0.1, 0.0, np.array([0.0, 0.1]))


# ---------------------------------------------------------------------------
# pointwise effective dimensions
# ---------------------------------------------------------------------------


def test_nx_empirical_scalar_woodbury():
    kernel = KernelSpec.gaussian(1.0)
    for lam in (0.1, 1.0, 7.0):
        val = nx_empirical(kernel, [0.4], 0.4, lam)
        assert_allclose(val, 1.0 / (1.0 + lam), rtol=1e-12)


def test_nx_empirical_orthogonal_section():
    # designed s=1, T=2: K(0, 1/2) = 1 - 2 * (1/2) = 0, so the query section is
    # orthogonal to the training one and the value is K(x,x)/lambda
    kernel = KernelSpec.designed(1.0, 2)
    lam = 0.37
    val = nx_empirical(kernel, [0.5], 0.0, lam)
    assert_allclose(val, 2.0 / lam, rtol=1e-12)


def test_nx_empirical_matches_eigenbasis_oracle():
    """At a query point and at every training point, N_x is
    ``w(x)^T (lam I + S_hat)^{-1} w(x)`` in the eigen-coordinates."""
    kernel = KernelSpec.designed(0.5, 64)
    mu = kernel.eigenvalues()
    rng = np.random.default_rng(21)
    xs = rng.uniform(0.0, 1.0, 120)
    w = fourier_basis(xs, 64) * np.sqrt(mu)
    s_hat = w.T @ w / xs.size
    for _ in range(5):
        x = float(rng.uniform(0.0, 1.0))
        lam = float(10 ** rng.uniform(-4, -0.5))
        wx = fourier_basis(np.array([x]), 64)[0] * np.sqrt(mu)
        oracle = float(wx @ np.linalg.solve(lam * np.eye(64) + s_hat, wx))
        assert_allclose(nx_empirical(kernel, xs, x, lam), oracle, rtol=1e-6)
        at_training = np.einsum("ij,ji->i", w, np.linalg.solve(lam * np.eye(64) + s_hat, w.T))
        assert_allclose(nx_empirical_training(kernel, xs, lam), at_training, rtol=1e-6)


@pytest.mark.parametrize(
    "kernel",
    [KernelSpec.gaussian(0.2), KernelSpec.laplacian(0.3), KernelSpec.designed(0.5, 32)],
)
def test_nx_empirical_training_matches_pointwise(kernel):
    """The leverage-score form at the training points equals the Woodbury
    form evaluated at each of them."""
    xs = np.random.default_rng(8).uniform(0.0, 1.0, 60)
    for lam in (1e-4, 0.01, 0.3):
        pointwise = [nx_empirical(kernel, xs, x, lam) for x in xs]
        assert_allclose(nx_empirical_training(kernel, xs, lam), pointwise, rtol=1e-8)


def test_n_infinity_constant_basis():
    kernel = KernelSpec.designed(0.5, 1)
    for lam in (0.01, 0.5):
        assert_allclose(n_infinity(kernel, lam), 1.0 / (1.0 + lam), rtol=1e-12)


def test_n_infinity_kappa_bound():
    from nystrom_krr.kernels import kappa

    kernel = KernelSpec.designed(0.5, 256)
    profile = analytic_profile(DecaySpec(0.5), 256)
    for lam in np.logspace(-6, 0, 13):
        sup = n_infinity(kernel, lam)
        assert effective_dimension(profile, lam) <= sup + 1e-10
        assert sup <= kappa(kernel) / lam + 1e-8


def test_n_infinity_empirical_plugin():
    kernel = KernelSpec.gaussian(0.5)
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 1.0, 80)
    val = n_infinity(kernel, 0.05, xs=xs)
    assert 0.0 < val <= 1.0 / 0.05 + 1e-8
    with pytest.raises(ValueError):
        n_infinity(kernel, 0.05)


def test_empirical_effective_dimension_tracks_analytic():
    kernel = KernelSpec.designed(0.5, 512)
    analytic = analytic_profile(DecaySpec(0.5), 512)
    rng = np.random.default_rng(31)
    emp = empirical_profile(kernel, rng.uniform(0.0, 1.0, 1024))
    lam0 = lambda0(analytic, 1024)
    for lam in np.logspace(math.log10(lam0), 0, 12):
        a = effective_dimension(analytic, lam)
        e = effective_dimension(emp, lam)
        assert abs(e - a) <= 0.1 * a


# ---------------------------------------------------------------------------
# size-rule constant and the power-type envelope
# ---------------------------------------------------------------------------


def test_c_gamma_trivial_single_mode():
    bound = c_gamma_for_designed(DecaySpec(0.5), 1, 1.0)
    assert_allclose(bound.c_gamma, 1.0, rtol=1e-12)


def test_c_gamma_zeta_bound():
    # s = 0.5, gamma = 1: envelope sqrt(2 sum k^-2) <= sqrt(pi^2 / 3)
    bound = c_gamma_for_designed(DecaySpec(0.5), 2048, 1.0)
    assert bound.upper_bound <= math.sqrt(math.pi**2 / 3.0)
    assert bound.c_gamma <= bound.upper_bound + 1e-12


def test_c_gamma_small_gamma_matches_direct_sum():
    """The closed-form sups (c_gamma, N_inf, attained kappa) against a
    brute-force grid maximum, for odd and even truncations."""
    decay, gamma = DecaySpec(0.5), 0.01
    grid = np.linspace(0.0, 1.0, 2048)
    for truncation in (127, 128):
        basis_sq = fourier_basis(grid, truncation) ** 2
        mu = decay.eigenvalues(truncation)
        bound = c_gamma_for_designed(decay, truncation, gamma)
        direct = np.sqrt((basis_sq @ mu ** (2.0 - gamma)).max())
        assert_allclose(bound.c_gamma, direct, rtol=1e-12)
        kernel = KernelSpec.designed(0.5, truncation)
        for lam in np.logspace(-6, 0, 7):
            direct = (basis_sq @ (mu / (mu + lam))).max()
            assert_allclose(n_infinity(kernel, lam), direct, rtol=1e-12)
        assert_allclose(basis_sup(mu), (basis_sq @ mu).max(), rtol=1e-12)


def test_c_gamma_infeasible():
    with pytest.raises(ValueError):
        c_gamma_for_designed(DecaySpec(1.0), 64, 1.0)
    with pytest.raises(ValueError):
        c_gamma_for_designed(DecaySpec(0.5), 64, 1.5)


def test_n_infinity_power_envelope_feasible_gamma():
    """The power-type envelope holds across a wide lambda grid for an exponent
    inside the feasible range of this spectrum (its sup grows like
    lambda**-1/2, so any gamma < 1/2 gives a valid asymptotic envelope)."""
    decay, truncation = DecaySpec(0.5), 2048
    kernel = KernelSpec.designed(0.5, truncation)
    gamma = 0.25
    bound = c_gamma_for_designed(decay, truncation, gamma)
    for lam in np.logspace(-6, math.log10(0.05), 50):
        assert n_infinity(kernel, lam) <= bound.c_gamma**2 * lam ** (gamma - 1.0)
