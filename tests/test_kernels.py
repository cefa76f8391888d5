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
    covariance,
    cross_gram,
    eval_kernel,
    fourier_basis,
    gram,
    basis_sup,
    kappa,
    pivoted_gram,
    trig_moments,
    trig_sum,
)
from nystrom_krr.linalg import pivoted_cholesky


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
    """Chunks of 7 rows, the last one partial, reuse the blocks of the first
    (type 1 only: ``trig_moments`` builds blocks, ``trig_sum`` does not, and
    runs here in chunks of 3 rows): both sums still match the basis products."""
    truncation, n = 65, 50
    rng = np.random.default_rng(4)
    xs, f, w = rng.uniform(0.0, 1.0, n), rng.standard_normal(truncation), rng.standard_normal(n)
    b, q = kernels._split(truncation // 2)
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 2 * (q + b) * 7)
    assert len(list(kernels._row_blocks(n, 2 * (q + b)))) == 8
    basis = fourier_basis(xs, truncation)
    assert np.abs(basis_sum(xs, f) - basis @ f).max() <= 1e-12
    assert np.abs(basis_moments(xs, w, truncation) - basis.T @ w).max() <= 1e-12


def _direct_trig_sum(xs, coeffs):
    """``Re sum_l F_l exp(2 pi i l x)`` in long double, each angle from its
    turns ``l x`` reduced mod 1."""
    two_pi = 2 * np.arccos(np.longdouble(-1.0))
    freq = np.arange(coeffs.size).astype(np.longdouble)
    re, im = coeffs.real.astype(np.longdouble), coeffs.imag.astype(np.longdouble)
    out = np.empty(xs.size, dtype=np.longdouble)
    for lo in range(0, xs.size, 256):
        turns = np.multiply.outer(xs[lo : lo + 256].astype(np.longdouble), freq)
        ang = two_pi * (turns - np.floor(turns))
        out[lo : lo + 256] = np.cos(ang) @ re - np.sin(ang) @ im
    return out


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 64, 1024, 2048, 8192])
def test_trig_sum_matches_long_double_direct_sum(degree):
    """The non-uniform FFT is within ``(32 + 1.5 * 2 pi L) eps ||F||_1`` of a
    long-double direct sum: the angle round-off bound of the blocked route it
    replaced, plus a constant for the kernel's truncation. Points: uniform
    draws, 0, 0.5 and 1, grid nodes ``k / nf`` (where a point's kernel window
    ends on a node), and draws shifted by 1, -1 and -3, as the sum is
    1-periodic. Measured maxima in eps ||F||_1, by L (the blocked route on the
    same points): 0: 9.6 (0), 1: 13.3 (6.6), 2: 7.3 (4.6), 3: 11.0 (7.1),
    64: 25.6 (64.6), 1024: 81.2 (299.4), 2048: 83.7 (402.1), 8192: 244.9 (592.1)."""
    rng = np.random.default_rng(degree)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    nf = kernels._nufft_grid(degree)[0]
    draws = rng.uniform(0.0, 1.0, 500)
    nodes = np.append(np.arange(0, nf, -(-nf // 64)), nf - 1) / nf
    xs = np.concatenate([draws, [0.0, 0.5, 1.0], nodes, draws[:50] + 1, draws[:50] - 1, draws[:50] - 3])
    err = np.abs(trig_sum(xs, coeffs) - _direct_trig_sum(xs, coeffs)).max()
    eps = np.finfo(np.float64).eps
    assert float(err) <= (32 + 1.5 * 2 * math.pi * degree) * eps * np.abs(coeffs).sum()


def test_trig_sum_in_row_chunks_bit_for_bit(monkeypatch):
    """``trig_sum`` in chunks of 64 rows, the last one partial (40 rows),
    equals one chunk bit for bit: each point's weights and sum do not depend
    on the chunk it falls in."""
    rng = np.random.default_rng(9)
    xs, coeffs = rng.uniform(0.0, 1.0, 1000), rng.standard_normal(1025) + 1j * rng.standard_normal(1025)
    whole = trig_sum(xs, coeffs)
    width = kernels._NUFFT_DEGREE + 1 + 2 * kernels._NUFFT_WIDTH
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", width * 64)
    assert [p.stop - p.start for p in kernels._row_blocks(xs.size, width)][-2:] == [64, 40]
    assert np.array_equal(trig_sum(xs, coeffs), whole)


def test_trig_sum_of_a_point_does_not_depend_on_its_batch(monkeypatch):
    """200 single-point calls, and the last point of calls with n = 1 modulo the
    chunk's 64 rows, equal the batched values bit for bit: a one-row weight
    product would go to gemv, not gemm, and round differently (before, 124 of
    these 200 single points moved by up to 2.8e-14)."""
    rng = np.random.default_rng(10)
    xs, coeffs = rng.uniform(0.0, 1.0, 200), rng.standard_normal(1025) + 1j * rng.standard_normal(1025)
    whole = trig_sum(xs, coeffs)
    assert np.array_equal([trig_sum(x, coeffs)[0] for x in xs], whole)
    width = kernels._NUFFT_DEGREE + 1 + 2 * kernels._NUFFT_WIDTH
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", width * 64)
    assert [p.stop - p.start for p in kernels._row_blocks(129, width)] == [64, 64, 1]
    for i in range(128, 200):
        got = trig_sum(np.append(xs[:128], xs[i]), coeffs)
        assert np.array_equal(got, np.append(whole[:128], whole[i]))


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


@pytest.mark.parametrize("bandwidth, m", [(0.3, 400), (0.1, 920), (0.05, 1500), (0.02, 900)])
def test_pivoted_gram_factors_k_mm_one_column_per_pivot(monkeypatch, bandwidth, m):
    """A Gaussian ``K_mm`` of rank below m / 6 is factored one kernel column per
    pivot, with no m x m Gram: the kept count is within one pivot of
    ``pivoted_cholesky(gram(...))``, the kept points are distinct, R is upper
    triangular and ``K_kk - R^T R`` is at round-off."""
    eps = np.finfo(float).eps
    kernel = KernelSpec.gaussian(bandwidth)
    xs = np.random.default_rng(23).uniform(0.0, 1.0, m)
    ref_keep = pivoted_cholesky(gram(kernel, xs))[1]

    def no_gram(*args):
        raise AssertionError("pivoted_gram formed the m x m Gram")

    monkeypatch.setattr(kernels, "gram", no_gram)
    r_mat, keep = pivoted_gram(kernel, xs)
    assert abs(keep.size - ref_keep.size) <= 1, (keep.size, ref_keep.size)
    assert np.unique(keep).size == keep.size and np.array_equal(r_mat, np.triu(r_mat))
    k_kk = cross_gram(kernel, xs[keep], xs[keep])
    assert np.abs(k_kk - r_mat.T @ r_mat).max() <= keep.size * eps


def test_pivoted_gram_above_its_cap_is_the_dense_factor():
    """Laplacian(0.1) at m = 900 has full rank, far above the cap m / 6: the
    factor is ``pivoted_cholesky(gram(...))`` bit for bit."""
    kernel = KernelSpec.laplacian(0.1)
    xs = np.random.default_rng(24).uniform(0.0, 1.0, 900)
    r_mat, keep = pivoted_gram(kernel, xs)
    ref_r, ref_keep = pivoted_cholesky(gram(kernel, xs))
    assert keep.size == 900 and np.array_equal(keep, ref_keep) and np.array_equal(r_mat, ref_r)


@pytest.mark.parametrize("truncation", [64, 65, 2048])
def test_covariance_mirror_entries_differ_by_rounding_only(truncation):
    """Each entry of ``covariance`` differs from its mirror by at most 2 eps of
    the larger of the two, so the factor reads its lower triangle unchecked.
    Before the scaling the matrix is exactly symmetric: every entry and its
    mirror are one moment, one sum or difference of the same two moments, or
    a transposed copy. Entry (j, k) is then ``fl(fl(p r_j) r_k)`` and (k, j)
    is ``fl(fl(p r_k) r_j)``, ``r = sqrt(mu)``: each is ``x (1 + d1)(1 + d2)``
    with ``x = p r_j r_k`` and ``|d| <= u = eps / 2``, so both lie in
    ``[(1 - u)^2 |x|, (1 + u)^2 |x|]`` in magnitude. If the larger is at least
    ``|x|``, the gap is at most ``((1 + u)^2 - (1 - u)^2) |x| = 2 eps |x|``, at
    most 2 eps times the larger; else both lie below ``|x|``, and the gap is at
    most ``(2u - u^2) |x| <= 2 eps (1 - u)^2 |x|``, again at most 2 eps times
    the larger."""
    xs = np.random.default_rng(truncation).uniform(0.0, 1.0, 1000)
    s_mat = covariance(xs, KernelSpec.designed(0.5, truncation).eigenvalues())
    gap = np.abs(s_mat - s_mat.T)
    larger = np.maximum(np.abs(s_mat), np.abs(s_mat.T))
    assert (gap <= 2 * np.finfo(np.float64).eps * larger).all()
    assert gap.max() > 0.0  # the scaling does round: the bound is what holds
