import numpy as np
import pytest
from numpy.testing import assert_allclose

from nystrom_krr.kernels import (
    DecaySpec,
    KernelSpec,
    cross_gram,
    eval_kernel,
    fourier_basis,
    gram,
    basis_sup,
    kappa,
)


def brute_force_eval(kernel, x, y):
    """Direct summation oracle for the designed kernel."""
    mu = kernel.eigenvalues()
    ex = fourier_basis(np.array([x]), kernel.truncation)[0]
    ey = fourier_basis(np.array([y]), kernel.truncation)[0]
    return float(np.sum(mu * ex * ey))


def test_decay_spec_validation():
    with pytest.raises(ValueError):
        DecaySpec(0.0)
    with pytest.raises(ValueError):
        DecaySpec(1.5)
    assert DecaySpec(1.0).borderline
    mu = DecaySpec(0.5).eigenvalues(4)
    assert_allclose(mu, [1.0, 0.25, 1.0 / 9.0, 0.0625])
    assert np.all(np.diff(mu) < 0)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec.gaussian(0.0)
    for bad in (np.nan, np.inf):
        for make in (KernelSpec.gaussian, KernelSpec.laplacian):
            with pytest.raises(ValueError, match="bandwidth"):
                make(bad)
    with pytest.raises(ValueError):
        KernelSpec.designed(0.5, 0)
    with pytest.raises(ValueError):
        KernelSpec("triangle", bandwidth=1.0)


def test_eval_gaussian_diagonal():
    assert eval_kernel(KernelSpec.gaussian(1.0), 0.3, 0.3) == 1.0
    assert eval_kernel(KernelSpec.laplacian(1.0), 0.0, 0.0) == 1.0


def test_eval_designed_hand_value():
    # mu_1 = 1, mu_2 = 2**-2; at x = y = 0 the cosine column is sqrt(2)
    k = KernelSpec.designed(0.5, 2)
    assert_allclose(eval_kernel(k, 0.0, 0.0), 1.5, rtol=1e-14)
    assert_allclose(eval_kernel(k, 0.0, 0.5), 0.5, rtol=1e-13)


def test_eval_designed_domain_error():
    k = KernelSpec.designed(0.5, 4)
    with pytest.raises(ValueError):
        eval_kernel(k, -0.1, 0.5)
    with pytest.raises(ValueError):
        gram(k, [0.2, 1.3])


def test_designed_domain_rejects_nonfinite():
    """Every public entry taking points rejects NaN/inf for all three kernels;
    the designed kernel fails its [0, 1] domain test first."""
    from nystrom_krr.krr import KernelModel, predict
    from nystrom_krr.spectral import (
        empirical_profile,
        n_infinity,
        nx_empirical,
        nx_empirical_training,
    )
    from nystrom_krr.synthetic import monte_carlo_error

    for k in (KernelSpec.designed(0.5, 4), KernelSpec.gaussian(0.3), KernelSpec.laplacian(0.3)):
        match = r"\[0, 1\]" if k.is_designed else "finite"
        for bad in (np.nan, np.inf, -np.inf):
            model = KernelModel(support_xs=np.array([0.5, bad]), alpha=np.ones(2), lam=0.1)
            calls = [
                lambda: cross_gram(k, [bad], [0.5]),
                lambda: cross_gram(k, [0.5], [0.2, bad]),
                lambda: gram(k, [0.2, bad]),
                lambda: eval_kernel(k, bad, 0.5),
                lambda: predict(model, k, [0.3]),
                lambda: monte_carlo_error(model, k, lambda u: 0.0 * u, n_mc=8, seed=0),
                lambda: empirical_profile(k, [0.2, bad]),
                lambda: nx_empirical(k, [0.2, bad], 0.5, 0.1),
                lambda: nx_empirical(k, [0.2, 0.4], bad, 0.1),
                lambda: nx_empirical_training(k, [0.2, bad], 0.1),
            ]
            if not k.is_designed:  # the designed N_inf is exact and takes no points
                calls.append(lambda: n_infinity(k, 0.1, xs=[0.2, bad]))
            for call in calls:
                with pytest.raises(ValueError, match=match):
                    call()


def test_gram_trivial_and_hand_case():
    assert_allclose(gram(KernelSpec.gaussian(1.0), [0.0]), [[1.0]])
    k = KernelSpec.designed(0.5, 2)
    assert_allclose(gram(k, [0.0, 0.5]), [[1.5, 0.5], [0.5, 1.5]], rtol=1e-13)


def test_gram_empty_errors():
    with pytest.raises(ValueError):
        gram(KernelSpec.gaussian(1.0), [])
    with pytest.raises(ValueError):
        cross_gram(KernelSpec.gaussian(1.0), [0.1], [])


@pytest.mark.parametrize(
    "kernel",
    [
        KernelSpec.gaussian(0.7),
        KernelSpec.laplacian(1.3),
        KernelSpec.designed(0.5, 64),
        KernelSpec.designed(1.0, 33),
    ],
)
def test_symmetry_and_bound(kernel):
    """``gram`` is exactly symmetric by construction, with no repair pass."""
    rng = np.random.default_rng(3)
    repeated = np.repeat(rng.uniform(0.0, 1.0, 7), 3)
    for xs in ([0.3], rng.uniform(0.0, 1.0, 40), rng.uniform(0.0, 1.0, 301), repeated):
        g = gram(kernel, xs)
        assert np.array_equal(g, g.T)
        assert np.abs(g).max() <= kappa(kernel) + 1e-12
    for _ in range(20):
        x, y = rng.uniform(0.0, 1.0, 2)
        assert abs(eval_kernel(kernel, x, y) - eval_kernel(kernel, y, x)) <= 1e-12 * kappa(kernel)


@pytest.mark.parametrize(
    "kernel",
    [KernelSpec.gaussian(0.5), KernelSpec.laplacian(0.8), KernelSpec.designed(0.5, 128)],
)
def test_gram_psd(kernel):
    rng = np.random.default_rng(11)
    for n in (5, 60, 200):
        xs = rng.uniform(0.0, 1.0, n)
        eig = np.linalg.eigvalsh(gram(kernel, xs))
        assert eig.min() >= -1e-10 * n * kappa(kernel)


def test_cross_gram_consistency():
    k = KernelSpec.designed(0.5, 16)
    xs = np.linspace(0.05, 0.95, 7)
    assert_allclose(cross_gram(k, xs, xs), gram(k, xs), atol=1e-14)
    single = cross_gram(k, xs, [0.3])[:, 0]
    assert_allclose(single, [eval_kernel(k, x, 0.3) for x in xs], rtol=1e-12)
    assert_allclose(cross_gram(KernelSpec.designed(0.5, 2), [0.0], [0.5]), [[0.5]], rtol=1e-13)


def test_designed_matches_brute_force():
    k = KernelSpec.designed(0.7, 41)
    rng = np.random.default_rng(5)
    for _ in range(25):
        x, y = rng.uniform(0.0, 1.0, 2)
        assert_allclose(eval_kernel(k, x, y), brute_force_eval(k, x, y), rtol=1e-12, atol=1e-14)


def test_kappa_values():
    assert kappa(KernelSpec.gaussian(2.0)) == 1.0
    k1 = KernelSpec.designed(0.5, 1)
    assert_allclose(basis_sup(k1.eigenvalues()), 1.0, rtol=1e-12)
    k2 = KernelSpec.designed(0.5, 2)
    assert_allclose(kappa(k2), 1.5)
    # the attained sup never exceeds the analytic envelope
    k3 = KernelSpec.designed(0.5, 256)
    assert basis_sup(k3.eigenvalues()) <= kappa(k3) + 1e-10


def test_integral_operator_identity():
    """Composite-Simpson check that the basis diagonalizes the kernel integral
    operator: integral K(x, t) e_k(t) dt = mu_k e_k(x)."""
    truncation = 512
    k = KernelSpec.designed(0.5, truncation)
    mu = k.eigenvalues()
    nodes = 2**14 + 1
    t = np.linspace(0.0, 1.0, nodes)
    h = t[1] - t[0]
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= h / 3.0
    basis_t = fourier_basis(t, truncation)

    rng = np.random.default_rng(17)
    xs = rng.uniform(0.0, 1.0, 25)
    ks = rng.integers(1, truncation + 1, 20)
    basis_x = fourier_basis(xs, truncation)
    # K(x, t) rows for all xs at once
    kx_t = (basis_x * mu) @ basis_t.T
    for kk in ks:
        lhs = kx_t @ (weights * basis_t[:, kk - 1])
        rhs = mu[kk - 1] * basis_x[:, kk - 1]
        assert np.abs(lhs - rhs).max() < 1e-6


def test_config_roundtrip():
    for k in (KernelSpec.gaussian(0.9), KernelSpec.designed(0.5, 32)):
        assert KernelSpec.from_config(k.to_config()) == k
    with pytest.raises(ValueError):
        KernelSpec.from_config({"variant": "designed_spectral"})
    with pytest.raises(ValueError):
        KernelSpec.from_config({"bandwidth": 2.0})
    with pytest.raises(ValueError, match="bandwidth"):
        KernelSpec.from_config({"variant": "gaussian", "bandwidth": "nan"})
