import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nystrom_krr.kernels import DecaySpec, KernelSpec
from nystrom_krr.krr import KernelModel, fit_krr
from nystrom_krr.spectral import IndexFunction
from nystrom_krr.synthetic import (
    Dataset,
    NoiseSpec,
    TargetSpec,
    dataset_from_csv,
    dataset_to_csv,
    fitted_coefficients,
    hk_norm_proxy,
    l2_rho_error,
    make_target,
    monte_carlo_error,
    sample_dataset,
    target_values,
)

DECAY = DecaySpec(0.5)


def test_make_target_unit_sphere():
    target = make_target(DECAY, 64, IndexFunction.holder(0.25), seed=1)
    assert_allclose(np.linalg.norm(target.v_coefficients), 1.0, rtol=1e-12)
    mu = DECAY.eigenvalues(64)
    assert_allclose(target.f_coefficients, target.phi(mu) * target.v_coefficients)


def test_make_target_single_mode_boundary():
    # T = 1, phi = sqrt: f_1 = sqrt(mu_1) v_1 with |v_1| = 1, so the
    # RKHS-norm proxy sits exactly on the boundary
    target = make_target(DECAY, 1, IndexFunction.holder(0.5), seed=0)
    assert_allclose(abs(target.v_coefficients[0]), 1.0)
    assert_allclose(hk_norm_proxy(target, DECAY), 1.0, rtol=1e-12)
    quarter = make_target(DECAY, 1, IndexFunction.holder(0.25), seed=0)
    assert_allclose(abs(quarter.f_coefficients[0]), 1.0)  # phi(1) = 1


def test_make_target_norm_bound():
    target = make_target(DECAY, 128, IndexFunction.holder(0.3), seed=4)
    mu = DECAY.eigenvalues(128)
    assert np.sum(target.f_coefficients**2) <= target.phi(mu[0]) ** 2 + 1e-12


def test_make_target_boundary_profile_norm():
    target = make_target(DECAY, 256, IndexFunction.holder(0.25), seed=2, profile="power_boundary")
    assert_allclose(np.linalg.norm(target.v_coefficients), 1.0, rtol=1e-12)


def test_make_target_inadmissible_phi():
    with pytest.raises(ValueError):
        make_target(DECAY, 16, IndexFunction.log_type(1.0), seed=0)
    with pytest.raises(ValueError):
        make_target(DECAY, 16, IndexFunction.holder(0.25), seed=0, profile="spiky")


def test_misspecification_witness():
    """Holder r < 1/2 leaves the RKHS as the truncation grows; r = 1/2 stays
    on the unit ball boundary."""
    for r, seeds in ((0.25, range(20)),):
        proxies = []
        for truncation in (64, 128, 256, 512):
            vals = [
                hk_norm_proxy(make_target(DECAY, truncation, IndexFunction.holder(r), seed=s), DECAY)
                for s in seeds
            ]
            proxies.append(float(np.median(vals)))
        assert all(b > a for a, b in zip(proxies, proxies[1:]))
    for truncation in (64, 256):
        for seed in range(10):
            target = make_target(DECAY, truncation, IndexFunction.holder(0.5), seed=seed)
            assert hk_norm_proxy(target, DECAY) <= 1.0 + 1e-9


def test_sample_dataset_noiseless_and_deterministic():
    target = make_target(DECAY, 32, IndexFunction.holder(0.25), seed=5)
    noise = NoiseSpec.uniform_bounded(0.0)
    data = sample_dataset(DECAY, 32, target, noise, 50, seed=11)
    assert_allclose(data.ys, target_values(target, data.xs), atol=1e-14)
    again = sample_dataset(DECAY, 32, target, noise, 50, seed=11)
    assert np.array_equal(data.xs, again.xs) and np.array_equal(data.ys, again.ys)


def test_sample_dataset_zero_target_moments():
    zero_target = TargetSpec(
        phi=IndexFunction.holder(0.5),
        coeff_seed=0,
        profile="sphere",
        v_coefficients=np.zeros(8),
        f_coefficients=np.zeros(8),
    )
    data = sample_dataset(DECAY, 8, zero_target, NoiseSpec.gaussian(1.0), 100_000, seed=3)
    assert abs(np.mean(data.ys)) < 0.02
    assert abs(np.var(data.ys) - 1.0) < 0.05


def test_noise_moment_bounds():
    """Empirical absolute moments p = 2, 3, 4 against p! M^(p-2) sigma^2 / 2."""
    rng = np.random.default_rng(8)
    n = 10**6
    for noise in (NoiseSpec.gaussian(0.7), NoiseSpec.uniform_bounded(1.3)):
        eps = noise.sample(rng, n)
        m_const, sigma = noise.bernstein_m, noise.bernstein_sigma
        for p in (2, 3, 4):
            emp = np.mean(np.abs(eps) ** p)
            bound = 0.5 * math.factorial(p) * m_const ** (p - 2) * sigma**2
            assert emp <= bound * 1.05, (noise.variant, p)


def test_parseval_consistency():
    target = make_target(DECAY, 256, IndexFunction.holder(0.25), seed=9)
    nodes = 2**14 + 1
    t = np.linspace(0.0, 1.0, nodes)
    h = t[1] - t[0]
    weights = np.ones(nodes)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    weights *= h / 3.0
    f_vals = target_values(target, t)
    quad = float(weights @ (f_vals**2))
    assert abs(quad - float(np.sum(target.f_coefficients**2))) < 1e-6


def test_l2_error_zero_coefficients():
    kernel = KernelSpec.designed(0.5, 32)
    target = make_target(DECAY, 32, IndexFunction.holder(0.25), seed=2)
    data = sample_dataset(DECAY, 32, target, NoiseSpec.gaussian(0.1), 20, seed=1)
    zero = KernelModel(support_xs=data.xs, alpha=np.zeros(20), lam=0.1)
    assert_allclose(
        l2_rho_error(zero, kernel, data), np.linalg.norm(target.f_coefficients), rtol=1e-12
    )
    zero_target = TargetSpec(
        phi=target.phi,
        coeff_seed=0,
        profile="sphere",
        v_coefficients=np.zeros(32),
        f_coefficients=np.zeros(32),
    )
    zdata = Dataset(xs=data.xs, ys=np.zeros(20), decay=DECAY, truncation=32, target=zero_target)
    assert l2_rho_error(zero, kernel, zdata) == 0.0


def test_l2_error_requires_designed_and_truth():
    target = make_target(DECAY, 16, IndexFunction.holder(0.25), seed=2)
    data = sample_dataset(DECAY, 16, target, NoiseSpec.gaussian(0.1), 10, seed=1)
    model = fit_krr(KernelSpec.designed(0.5, 16), data, 0.1)
    with pytest.raises(NotImplementedError):
        l2_rho_error(model, KernelSpec.gaussian(1.0), data)
    with pytest.raises(ValueError, match="fitted with"):
        l2_rho_error(model, KernelSpec.designed(0.75, 16), data)
    bare = Dataset(xs=data.xs, ys=data.ys)
    with pytest.raises(ValueError):
        l2_rho_error(model, KernelSpec.designed(0.5, 16), bare)


def test_trig_paths_check_their_inputs():
    """Target values and fitted coefficients run on the trig sums, which
    take points through the one point check and one weight per point."""
    kernel = KernelSpec.designed(0.5, 16)
    target = make_target(DECAY, 16, IndexFunction.holder(0.25), seed=2)
    with pytest.raises(ValueError, match="finite"):
        target_values(target, [0.2, math.nan])
    support = np.array([0.1, 0.5, 0.9])
    for bad in (
        KernelModel(support, np.ones(5), 0.1, kernel=kernel),
        KernelModel(np.array([0.1, math.nan, 0.9]), np.ones(3), 0.1, kernel=kernel),
        KernelModel(np.array([0.1, 1.7, 0.9]), np.ones(3), 0.1, kernel=kernel),
    ):
        with pytest.raises(ValueError):
            fitted_coefficients(bad, kernel)


def test_l2_error_quadrature_oracle():
    """Two-point fit: coefficient-space error against brute-force quadrature
    of (f_hat - f)^2 on a dense grid."""
    truncation = 64
    kernel = KernelSpec.designed(0.5, truncation)
    target = make_target(DECAY, truncation, IndexFunction.holder(0.25), seed=3)
    data = sample_dataset(DECAY, truncation, target, NoiseSpec.gaussian(0.1), 2, seed=7)
    model = fit_krr(kernel, data, 0.5)
    exact = l2_rho_error(model, kernel, data)

    nodes = 2**14 + 1
    t = np.linspace(0.0, 1.0, nodes)
    h = t[1] - t[0]
    weights = np.ones(nodes)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    weights *= h / 3.0
    from nystrom_krr.krr import predict

    diff = predict(model, kernel, t) - target_values(target, t)
    quad = math.sqrt(float(weights @ diff**2))
    assert abs(quad - exact) < 1e-4


def test_monte_carlo_error_cases():
    kernel = KernelSpec.designed(0.5, 32)
    target = make_target(DECAY, 32, IndexFunction.holder(0.25), seed=2)
    data = sample_dataset(DECAY, 32, target, NoiseSpec.gaussian(0.1), 40, seed=1)
    model = fit_krr(kernel, data, 0.05)
    from nystrom_krr.krr import predict

    # f_hat itself as the target: zero error
    self_err = monte_carlo_error(model, kernel, lambda u: predict(model, kernel, u), 2000, seed=0)
    assert self_err.value < 1e-12
    # constant offset c: error |c|
    offset = monte_carlo_error(
        model, kernel, lambda u: predict(model, kernel, u) + 0.7, 2000, seed=0
    )
    assert_allclose(offset.value, 0.7, rtol=1e-12)
    # agreement with the exact coefficient-space error within 3 standard errors
    exact = l2_rho_error(model, kernel, data)
    mc = monte_carlo_error(model, kernel, lambda u: target_values(target, u), 100_000, seed=5)
    assert abs(mc.value - exact) <= 3.0 * mc.stderr + 1e-9


def test_monte_carlo_error_rejects_bad_target_values():
    """A target that returns the wrong shape or a non-finite value fails
    instead of broadcasting to an n x n array or reporting NaN."""
    kernel = KernelSpec.gaussian(0.2)
    target = make_target(DECAY, 32, IndexFunction.holder(0.25), seed=2)
    data = sample_dataset(DECAY, 32, target, NoiseSpec.gaussian(0.1), 40, seed=1)
    model = fit_krr(kernel, data, 0.05)
    good = monte_carlo_error(model, kernel, lambda u: target_values(target, u), 500, seed=3)
    assert math.isfinite(good.value)
    for bad in (
        lambda u: target_values(target, u)[:, None],
        lambda u: target_values(target, u)[:-1],
        lambda u: 0.0,
        lambda u: np.full(u.shape, np.nan),
        lambda u: np.where(u < 0.5, np.inf, 0.0),
    ):
        with pytest.raises(ValueError, match="target_fn"):
            monte_carlo_error(model, kernel, bad, 500, seed=3)


def test_dataset_csv_roundtrip(tmp_path):
    target = make_target(DECAY, 16, IndexFunction.holder(0.25), seed=2)
    data = sample_dataset(DECAY, 16, target, NoiseSpec.gaussian(0.1), 25, seed=1)
    csv_path, meta_path = tmp_path / "data.csv", tmp_path / "data.json"
    dataset_to_csv(data, csv_path, meta_path)
    loaded = dataset_from_csv(csv_path)
    assert np.array_equal(loaded.xs, data.xs)
    assert np.array_equal(loaded.ys, data.ys)
    import json

    meta = json.loads(meta_path.read_text())
    assert meta["decay_s"] == 0.5 and meta["coeff_seed"] == 2


def test_dataset_coerces_to_float_arrays():
    data = Dataset(xs=[0.1, 0.2], ys=[1, 2])
    assert data.xs.dtype == data.ys.dtype == np.float64
    model = fit_krr(KernelSpec.gaussian(0.5), data, 0.1)
    assert model.alpha.shape == (2,)


def test_noise_validation():
    with pytest.raises(ValueError):
        NoiseSpec("poisson", 1.0)
    with pytest.raises(ValueError):
        NoiseSpec.gaussian(-0.1)
