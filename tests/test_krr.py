from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import scipy.linalg as sla

from nystrom_krr import krr
from nystrom_krr.kernels import KernelSpec, cross_gram, gram, low_rank_gram
from nystrom_krr.krr import KernelModel, empirical_risk, fit_krr, fitted_coefficients, predict
from nystrom_krr.linalg import OpCount, cholesky_psd, solve_regularized
from nystrom_krr.nystrom import SizeRuleParams, subsample_size
from nystrom_krr.spectral import nx_empirical_training
from nystrom_krr.synthetic import Dataset


def _dataset(xs, ys):
    return Dataset(xs=np.asarray(xs, float), ys=np.asarray(ys, float))


def test_fit_scalar_oracle():
    # (K + lam * n) c = y with K = 1, n = 1, lam = 1, y = 2  ->  c = 1
    kernel = KernelSpec.gaussian(1.0)
    model = fit_krr(kernel, _dataset([0.3], [2.0]), 1.0)
    assert_allclose(model.alpha, [1.0], rtol=1e-14)


def test_fit_zero_labels():
    kernel = KernelSpec.gaussian(1.0)
    model = fit_krr(kernel, _dataset([0.1, 0.4, 0.8], [0.0, 0.0, 0.0]), 0.5)
    assert_allclose(model.alpha, np.zeros(3), atol=1e-15)


def test_fit_huge_lambda_shrinks():
    kernel = KernelSpec.gaussian(1.0)
    rng = np.random.default_rng(0)
    xs, ys = rng.uniform(0, 1, 30), rng.standard_normal(30)
    lam = 1e6
    model = fit_krr(kernel, _dataset(xs, ys), lam)
    assert np.linalg.norm(model.alpha) <= np.linalg.norm(ys) / (lam * 30)
    assert np.abs(predict(model, kernel, xs)).max() < 1e-4


def test_fit_validation():
    kernel = KernelSpec.gaussian(1.0)
    with pytest.raises(ValueError):
        fit_krr(kernel, _dataset([], []), 0.1)
    with pytest.raises(ValueError):
        fit_krr(kernel, _dataset([0.1], [1.0]), 0.0)


def test_fit_rejects_nonfinite_and_unequal_training_arrays():
    """Non-finite training points, labels or lambda fail for every kernel at
    every entry that takes them, and so does a non-finite lambda elsewhere."""
    from nystrom_krr.kernels import DecaySpec
    from nystrom_krr.nystrom import fit_nystrom
    from nystrom_krr.spectral import (
        IndexFunction,
        analytic_profile,
        effective_dimension,
        n_infinity,
        theta,
    )

    def fit_sub(kernel, data, lam):
        return fit_nystrom(kernel, data, lam, [0])

    good = _dataset([0.1, 0.2], [1.0, 2.0])
    for kernel in (KernelSpec.designed(0.5, 4), KernelSpec.gaussian(1.0), KernelSpec.laplacian(1.0)):
        x_match = r"\[0, 1\]" if kernel.is_designed else "finite"
        model = fit_krr(kernel, good, 0.1)
        for bad in (np.nan, np.inf, -np.inf):
            for fit in (fit_krr, fit_sub):
                with pytest.raises(ValueError, match=x_match):
                    fit(kernel, _dataset([0.1, bad], [1.0, 2.0]), 0.1)
                with pytest.raises(ValueError, match="finite"):
                    fit(kernel, _dataset([0.1, 0.2], [1.0, bad]), 0.1)
                with pytest.raises(ValueError, match="lambda"):
                    fit(kernel, good, bad)
            with pytest.raises(ValueError, match=x_match):
                empirical_risk(model, kernel, _dataset([0.1, bad], [1.0, 2.0]), 0.1)
            with pytest.raises(ValueError, match="lambda"):
                n_infinity(kernel, bad, xs=good.xs)
        # a plain (xs, ys) holder skips Dataset's own length check
        with pytest.raises(ValueError, match="length mismatch"):
            fit_krr(kernel, SimpleNamespace(xs=[0.1, 0.2], ys=[1.0]), 0.1)
    profile = analytic_profile(DecaySpec(0.5), 8)
    for bad in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="lambda"):
            effective_dimension(profile, bad)
        with pytest.raises(ValueError, match="lambda"):
            theta(IndexFunction.holder(0.25), profile, 10, bad)


def test_predict_cases():
    kernel = KernelSpec.gaussian(1.0)
    model = KernelModel(support_xs=np.array([0.2, 0.7]), alpha=np.zeros(2), lam=0.1)
    assert_allclose(predict(model, kernel, [0.1, 0.5]), [0.0, 0.0])
    single = KernelModel(support_xs=np.array([0.4]), alpha=np.array([1.0]), lam=0.1)
    assert_allclose(predict(single, kernel, [0.4]), [1.0])


def test_predict_matches_direct_summation():
    kernel = KernelSpec.laplacian(0.9)
    xs = np.array([0.2, 0.8])
    ys = np.array([1.0, -0.5])
    lam = 0.3
    model = fit_krr(kernel, _dataset(xs, ys), lam)
    grid = np.linspace(0, 1, 11)
    direct = np.array(
        [sum(c * np.exp(-abs(g - x) / 0.9) for c, x in zip(model.alpha, xs)) for g in grid]
    )
    assert_allclose(predict(model, kernel, grid), direct, rtol=1e-12)
    # hand solve the 2x2 system as an independent check
    k_mat = gram(kernel, xs)
    c_hand = np.linalg.solve(k_mat + lam * 2 * np.eye(2), ys)
    assert_allclose(model.alpha, c_hand, rtol=1e-12)


def test_coefficient_residual():
    kernel = KernelSpec.gaussian(0.6)
    rng = np.random.default_rng(5)
    xs, ys = rng.uniform(0, 1, 80), rng.standard_normal(80)
    lam = 0.05
    model = fit_krr(kernel, _dataset(xs, ys), lam)
    k_mat = gram(kernel, xs)
    resid = (k_mat + lam * 80 * np.eye(80)) @ model.alpha - ys
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(ys)


def test_empirical_risk_hand_value():
    kernel = KernelSpec.gaussian(1.0)
    data = _dataset([0.3], [2.0])
    model = fit_krr(kernel, data, 1.0)
    # c = 1: (f(x) - 2)^2 + 1 * c K c = 1 + 1
    assert_allclose(empirical_risk(model, kernel, data, 1.0), 2.0, rtol=1e-12)
    zero = KernelModel(support_xs=np.array([0.3]), alpha=np.zeros(1), lam=1.0)
    assert empirical_risk(zero, kernel, _dataset([0.3], [0.0]), 1.0) == 0.0


def test_minimizer_property():
    kernel = KernelSpec.gaussian(0.8)
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = int(rng.integers(3, 100))
        data = _dataset(rng.uniform(0, 1, n), rng.standard_normal(n))
        lam = float(10 ** rng.uniform(-3, 0))
        model = fit_krr(kernel, data, lam)
        base = empirical_risk(model, kernel, data, lam)
        for _ in range(100):
            perturbed = KernelModel(
                support_xs=model.support_xs,
                alpha=model.alpha + rng.standard_normal(n) * 0.1,
                lam=lam,
            )
            assert empirical_risk(perturbed, kernel, data, lam) >= base - 1e-12


def test_rkhs_norm_nonincreasing_in_lambda():
    kernel = KernelSpec.gaussian(0.8)
    rng = np.random.default_rng(11)
    xs, ys = rng.uniform(0, 1, 60), rng.standard_normal(60)
    k_mat = gram(kernel, xs)
    norms = []
    for lam in np.logspace(-4, 1, 12):
        c = fit_krr(kernel, _dataset(xs, ys), lam).alpha
        norms.append(float(c @ k_mat @ c))
    assert np.all(np.diff(norms) <= 1e-12)


def test_opcount_recorded():
    kernel = KernelSpec.gaussian(1.0)
    model = fit_krr(kernel, _dataset(np.linspace(0, 1, 50), np.ones(50)), 0.1)
    assert model.opcount.flops == 50**3 // 3 + 50**2


def test_designed_predict_allocates_o_n():
    """A designed model predicts through one type-2 trig sum, in memory fixed
    by its row chunk: no n x m kernel block (512 MiB here)."""
    import tracemalloc

    kernel = KernelSpec.designed(0.5, 2048)
    rng = np.random.default_rng(3)
    model = KernelModel(
        rng.uniform(0.0, 1.0, 1000), rng.standard_normal(1000), 1e-3, kernel=kernel
    )
    xs = rng.uniform(0.0, 1.0, 1 << 16)
    tracemalloc.start()
    try:
        preds = predict(model, kernel, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert preds.shape == xs.shape and np.all(np.isfinite(preds))
    assert peak < 160 * 2**20, peak / 2**20


def test_designed_fit_above_truncation_matches_nxn_reference():
    """Above T a designed fit solves ``(S + lam I) u = b`` in the T
    eigen-coordinates and returns eigen-coefficients; it is the n x n fit to
    1e-10 relative in grid predictions and coefficients, also on training sets
    with fewer than T distinct points."""
    rng = np.random.default_rng(12)
    grid = np.linspace(0.0, 1.0, 257)
    cells = [
        (s, t, n, False) for s in (0.4, 0.5, 0.8) for t in (63, 64, 256) for n in (t + 1, 2 * t)
    ]
    cells += [(0.5, 63, 4096, True), (0.4, 64, 128, True), (0.8, 256, 300, True)]
    for s, t, n, repeated in cells:
        kernel = KernelSpec.designed(s, t)
        xs = rng.uniform(0.0, 1.0, n)
        if repeated:
            xs = rng.choice(xs[: t // 2], n)  # t // 2 distinct points
        ys = rng.standard_normal(n)
        lam = float(10 ** rng.uniform(-5.0, -1.0))
        model = fit_krr(kernel, _dataset(xs, ys), lam)
        ref = KernelModel(xs, solve_regularized(gram(kernel, xs), lam * n, ys), lam, kernel=kernel)
        assert model.coefficients is not None
        assert model.opcount == OpCount.krr(n)
        for got, want in (
            (predict(model, kernel, grid), predict(ref, kernel, grid)),
            (fitted_coefficients(model, kernel), fitted_coefficients(ref, kernel)),
        ):
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= 1e-10, (s, t, n, repeated, lam, rel)


def test_designed_fit_above_truncation_allocates_no_nxn_array():
    """T = 2048, n = 8192: the closed form holds T x T arrays; the n x n Gram
    alone would be 512 MiB."""
    import tracemalloc

    kernel = KernelSpec.designed(0.5, 2048)
    rng = np.random.default_rng(8)
    data = _dataset(rng.uniform(0.0, 1.0, 8192), rng.standard_normal(8192))
    tracemalloc.start()
    try:
        model = fit_krr(kernel, data, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20, peak / 2**20
    assert model.coefficients.shape == (2048,)


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_closed_form_low_rank_route_matches_dense_reference():
    """Gaussian fits and leverage scores on the partial-Cholesky factor equal
    the n x n references to 1e-9 relative in ``alpha``, grid predictions and
    N_x, over bandwidths whose numerical rank lies below and above the cap."""
    rng = np.random.default_rng(14)
    grid = np.linspace(0.0, 1.0, 301)
    low_rank = 0
    for bandwidth in (0.05, 0.1, 0.3, 0.8, 2.0):
        kernel = KernelSpec.gaussian(bandwidth)
        for n in (50, 500, 2048):
            xs, ys = rng.uniform(0.0, 1.0, n), rng.standard_normal(n)
            lam = float(10 ** rng.uniform(-5.0, -1.0))
            low_rank += low_rank_gram(kernel, xs, lam * n) is not None
            k_mat = gram(kernel, xs)
            ref = KernelModel(xs, solve_regularized(k_mat, lam * n, ys), lam, kernel=kernel)
            nx_ref = n * (1.0 - lam * np.diag(np.linalg.inv(k_mat / n + lam * np.eye(n))))
            model = fit_krr(kernel, _dataset(xs, ys), lam)
            for got, want in (
                (model.alpha, ref.alpha),
                (predict(model, kernel, grid), predict(ref, kernel, grid)),
                (nx_empirical_training(kernel, xs, lam), nx_ref),
            ):
                assert _rel(got, want) <= 1e-9, (bandwidth, n, lam, _rel(got, want))
    assert low_rank >= 4, low_rank


@pytest.mark.parametrize("kernel", [KernelSpec.laplacian(0.1), KernelSpec.gaussian(0.005)])
def test_closed_form_rank_above_cap_takes_dense_route(kernel):
    """A numerical rank above the cap (n = 4096) gives the n x n solve and the
    n x n leverage scores, bit for bit."""
    rng = np.random.default_rng(15)
    n, lam = 4096, 2.5e-3
    xs, ys = rng.uniform(0.0, 1.0, n), rng.standard_normal(n)
    assert low_rank_gram(kernel, xs, lam * n) is None
    k_mat = gram(kernel, xs)
    alpha = fit_krr(kernel, _dataset(xs, ys), lam).alpha
    assert np.array_equal(alpha, solve_regularized(k_mat, lam * n, ys))
    r_inv = sla.lapack.dtrtri(cholesky_psd(k_mat / n, lam), lower=0)[0]
    nx_ref = n * (1.0 - lam * np.einsum("ij,ij->i", r_inv, r_inv))
    assert np.array_equal(nx_empirical_training(kernel, xs, lam), nx_ref)


def test_gaussian_size_rule_and_fit_allocate_no_nxn_array():
    """Gaussian(0.1) at n = 2^16: the plug-in size rule and full KRR run on the
    rank-r factor; the n x n Gram alone would be 32 GiB."""
    import tracemalloc

    kernel = KernelSpec.gaussian(0.1)
    rng = np.random.default_rng(16)
    n, lam = 1 << 16, 1e-3
    data = _dataset(rng.uniform(0.0, 1.0, n), rng.standard_normal(n))
    tracemalloc.start()
    try:
        m = subsample_size(n, lam, SizeRuleParams(c=2.0, delta=0.1), kernel=kernel, xs=data.xs)
        model = fit_krr(kernel, data, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20, peak / 2**20
    assert 1 <= m < n and model.alpha.shape == (n,) and np.all(np.isfinite(model.alpha))


def test_closed_form_predict_in_row_blocks(monkeypatch):
    """``predict`` sums ``cross_gram @ alpha`` over row blocks of at most
    ``_CHUNK_ELEMENTS`` doubles; with a small chunk it splits into several
    blocks (and into single rows when the support alone exceeds the chunk) and
    matches the direct sum."""
    rng = np.random.default_rng(17)
    xs = rng.uniform(0.0, 1.0, 1000)
    for kernel, chunk in ((KernelSpec.gaussian(0.1), 4000), (KernelSpec.laplacian(0.2), 30)):
        model = KernelModel(rng.uniform(0.0, 1.0, 40), rng.standard_normal(40), 1e-3, kernel=kernel)
        direct = cross_gram(kernel, xs, model.support_xs) @ model.alpha
        monkeypatch.setattr(krr, "_CHUNK_ELEMENTS", chunk)
        assert_allclose(predict(model, kernel, xs), direct, rtol=1e-13, atol=1e-13)
