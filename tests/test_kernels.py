import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nystrom_krr import kernels
from nystrom_krr.kernels import (
    DecaySpec,
    KernelSpec,
    basis_moments,
    basis_sum,
    cross_gram,
    eval_kernel,
    fourier_basis,
    gram,
    basis_sup,
    kappa,
    trig_moments,
    trig_sum,
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


def test_designed_truncation_is_checked_at_construction():
    """Direct construction checks the truncation as the config does: an
    integral float becomes an int, a fraction or a bool is rejected instead
    of building round(T) or one eigenvalue."""
    spec = KernelSpec.designed(0.5, 64.0)
    assert spec.truncation == 64 and type(spec.truncation) is int
    assert spec.eigenvalues().size == 64
    for bad in (64.5, True, np.bool_(True), "64", None):
        with pytest.raises(ValueError, match="kernel.truncation must be an integer"):
            KernelSpec.designed(0.5, bad)


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


@pytest.mark.parametrize("degree", [0, 1, 2, 1024, 2048, 8192])
def test_exponential_powers_match_long_double_reference(degree):
    """The trig sums' blocks come from two exponentials per point and their
    powers. Every frequency ``l = q B + r <= L`` (B = 1 and Q = 1 included)
    must match ``exp(2 pi i l x)`` to within ``1.5 * 2 pi eps L``, the angle
    round-off the direct route ``exp(1j * (2 pi x) l)`` carries. The reference
    takes ``exp(2 pi i q B x) exp(2 pi i r x)`` in long double, each factor
    from its turns ``l x`` reduced mod 1."""
    xs = np.random.default_rng(degree).uniform(0.0, 1.0, 4096)
    b, q = kernels._split(degree)
    two_pi = 2 * np.arccos(np.longdouble(-1.0))

    def exact(freq, x):
        turns = np.multiply.outer(freq.astype(np.longdouble), x)
        return np.exp(1j * (two_pi * (turns - np.floor(turns))))

    worst = 0.0
    for lo, hi, e_q, e_b in kernels._exp_power_chunks(xs, b, q):
        x = xs[lo:hi].astype(np.longdouble)
        ref_q, ref_b = exact(b * np.arange(q), x), exact(np.arange(b), x)
        for k in range(q):
            width = min(b, degree + 1 - k * b)
            diff = e_q[k] * e_b[:width] - ref_q[k] * ref_b[:width]
            worst = max(worst, float(np.abs(diff.astype(np.complex128)).max()))
    assert worst <= 1.5 * 2 * math.pi * np.finfo(np.float64).eps * degree


@pytest.mark.parametrize("truncation", [1, 2, 3, 64, 65, 2048])
def test_fourier_basis_is_direct_exponentials_bit_for_bit(truncation):
    """``fourier_basis`` (and so ``sections``) evaluates one exponential per
    block entry, not the trig sums' powers. The benchmark's verify_pass
    reference pins its diagnostics' smoothness ratios to these exact values
    (tolerance 1e-3, one case at 9.98e-4), so the basis must equal the direct
    per-entry products ``exp(1j (2 pi x) q B) exp(1j (2 pi x) r)`` bit for bit."""
    xs = np.random.default_rng(truncation).uniform(0.0, 1.0, 300)
    basis = fourier_basis(xs, truncation)
    ang = 2.0 * math.pi * xs
    n_cos, n_sin = truncation // 2, (truncation - 1) // 2
    b = kernels._split(n_cos)[0] if n_cos else 1
    assert np.array_equal(basis[:, 0], np.ones(xs.size))
    for freq in range(1, n_cos + 1):
        k, r = divmod(freq, b)
        entry = np.exp(1j * (ang * (b * k))) * np.exp(1j * (ang * r))
        assert np.array_equal(basis[:, 2 * freq - 1], entry.real * math.sqrt(2.0))
        if freq <= n_sin:
            assert np.array_equal(basis[:, 2 * freq], entry.imag * math.sqrt(2.0))


def test_trig_sums_across_row_chunks(monkeypatch):
    """Chunks of 7 rows, the last one partial, reuse the blocks of the first:
    both sums still match the basis products."""
    truncation, n = 65, 50
    rng = np.random.default_rng(4)
    xs, f, w = rng.uniform(0.0, 1.0, n), rng.standard_normal(truncation), rng.standard_normal(n)
    b, q = kernels._split(truncation // 2)
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 2 * (q + b) * 7)
    assert len(list(kernels._row_chunks(n, q + b))) == 8
    basis = fourier_basis(xs, truncation)
    assert np.abs(basis_sum(xs, f) - basis @ f).max() <= 1e-12
    assert np.abs(basis_moments(xs, w, truncation) - basis.T @ w).max() <= 1e-12


_XS = np.linspace(0.0, 1.0, 5)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: trig_sum(_XS, [1.0, math.nan]), "coeffs must be finite"),
        (lambda: basis_sum(_XS, [1.0, 0.5, math.inf]), "coeffs must be finite"),
        (lambda: trig_moments(_XS, [1.0, math.nan, 0.0, 0.0, 0.0], 3), "weights must be finite"),
        (lambda: basis_moments(_XS, [0.0, 0.0, math.nan, 0.0, 0.0], 8), "weights must be finite"),
        (lambda: trig_sum(_XS, []), "coeffs must be a nonempty 1-D"),
        (lambda: basis_sum(_XS, []), "coeffs must be a nonempty 1-D"),
        (lambda: trig_moments(_XS, np.ones(5), -1), "degree must be >= 0"),
        (lambda: trig_moments(_XS, np.ones(5), 2.5), "degree must be an integer"),
        (lambda: basis_moments(_XS, np.ones(5), 0), "truncation must be >= 1"),
        (lambda: trig_sum(_XS, np.ones((2, 3))), "coeffs must be a nonempty 1-D"),
        (lambda: basis_sum(_XS, np.ones((3, 2))), "coeffs must be a nonempty 1-D"),
    ],
    ids=[
        "nan-coefficient", "inf-basis-coefficient", "nan-weight", "nan-basis-weight",
        "empty-coefficients", "empty-basis-coefficients", "negative-degree",
        "fractional-degree", "zero-truncation", "2d-coefficients", "2d-basis-coefficients",
    ],
)
def test_trig_sums_check_their_inputs(call, match):
    """A bad coefficient, weight or degree is a ValueError naming the input,
    not an all-NaN result or an error from deep inside the blocking."""
    with pytest.raises(ValueError, match=match):
        call()
