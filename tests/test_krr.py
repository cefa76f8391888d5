from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import scipy.linalg as sla

from nystrom_krr import kernels, krr, nystrom
from nystrom_krr.kernels import KernelSpec, cross_gram, gram, low_rank_gram, pivoted_gram
from nystrom_krr.krr import KernelModel, empirical_risk, fit_krr, fitted_coefficients, predict
from nystrom_krr.linalg import OpCount, cholesky_psd, solve_regularized
from nystrom_krr.nystrom import SizeRuleParams, fit_nystrom, subsample_plain, subsample_size
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


def test_right_side_solves_match_left_side_arithmetic():
    """The three n x r triangular solves taken from the right (leverage scores
    ``L C^-1``, low-rank prediction ``k(x, P) L_P^-T`` and the Nystrom rows
    ``G = K_nr R^-1``) give the same leverage scores, predictions and Nystrom
    fit as the arithmetic from the left, to 1e-13 relative, on a
    Gaussian(0.1) ``gaussian_rule_4k``-sized problem."""
    rng = np.random.default_rng(25)
    kernel, n, lam = KernelSpec.gaussian(0.1), 4096, 2.5e-3
    xs, ys = rng.uniform(0.0, 1.0, n), rng.standard_normal(n)
    factor_t = low_rank_gram(kernel, xs, lam * n)[0]
    z = sla.solve_triangular(cholesky_psd(factor_t @ factor_t.T, lam * n), factor_t, trans="T")
    assert _rel(nx_empirical_training(kernel, xs, lam), n * np.einsum("ij,ij->j", z, z)) <= 1e-13

    low_rank = fit_krr(kernel, _dataset(xs, ys), lam)._low_rank
    grid = rng.uniform(0.0, 1.0, 4096)
    got = np.empty(grid.size)
    krr._low_rank_predict(low_rank, kernel, grid, got)
    h = sla.solve_triangular(low_rank.chol, cross_gram(kernel, grid, low_rank.points).T, lower=True)
    assert _rel(got, low_rank.weights @ h) <= 1e-13

    # G itself carries cond(R) times round-off in its late columns, and so does
    # beta; the fitted function does not
    idx = subsample_plain(n, 900, 5)
    r_factor, keep = pivoted_gram(kernel, xs[idx])
    support = xs[idx][keep]
    g_mat = sla.solve_triangular(r_factor, cross_gram(kernel, xs, support).T, trans="T").T
    beta = solve_regularized(g_mat.T @ g_mat, lam * n, g_mat.T @ ys)
    want = cross_gram(kernel, grid, support) @ sla.solve_triangular(r_factor, beta)
    model = fit_nystrom(kernel, _dataset(xs, ys), lam, idx)
    assert _rel(cross_gram(kernel, grid, model.support_xs) @ model.alpha, want) <= 1e-13


@pytest.mark.parametrize("route", ["fit_krr", "nx_empirical_training"])
def test_dense_closed_form_routes_hold_one_gram(route):
    """Laplacian(0.1) at n = 2048 takes the dense n x n route; the full-KRR
    solve and the leverage scores factor the Gram in its own memory, so the
    peak stays under 1.25 Grams (32 MiB each)."""
    import tracemalloc

    rng = np.random.default_rng(26)
    kernel, n, lam = KernelSpec.laplacian(0.1), 2048, 1e-3
    data = _dataset(rng.uniform(0.0, 1.0, n), rng.standard_normal(n))
    tracemalloc.start()
    try:
        if route == "fit_krr":
            fit_krr(kernel, data, lam)
        else:
            nx_empirical_training(kernel, data.xs, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * n * 8, peak / 2**20


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
        monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", chunk)
        assert_allclose(predict(model, kernel, xs), direct, rtol=1e-13, atol=1e-13)


def _spy_refusals(monkeypatch):
    """Record the indices each ``predict`` call leaves to the exact block sum."""
    calls = []
    real = krr._low_rank_predict

    def spy(*args):
        refused = real(*args)
        calls.append(refused)
        return refused

    monkeypatch.setattr(krr, "_low_rank_predict", spy)
    return calls


def test_certified_low_rank_predict_matches_block_sum(monkeypatch):
    """A fit on the factor predicts within ``2 n eps ||alpha||_1`` of the exact
    block sum of a copy without the factor, at 4096 uniform points and three
    outside [0, 1]. Every uniform point takes the factor; 5.0, where ``h``
    vanishes, is refused at every bandwidth, as are -0.3 and 1.5 up to 0.2;
    refused points equal the block sum bit for bit. Cells whose rank is above
    the cap (every n = 500 cell, and bandwidth 0.05 at lam = 1e-5) carry no
    factor and predict as the copy does."""
    calls = _spy_refusals(monkeypatch)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(18)
    factored = 0
    for bandwidth in (0.05, 0.1, 0.2, 0.8):
        kernel = KernelSpec.gaussian(bandwidth)
        for lam in (1e-5, 2.5e-3):
            for n in (500, 4096):
                xs, ys = rng.uniform(0.0, 1.0, n), rng.standard_normal(n)
                model = fit_krr(kernel, _dataset(xs, ys), lam)
                copy = KernelModel(xs, model.alpha, lam, kernel=kernel)
                grid = np.concatenate([rng.uniform(0.0, 1.0, 4096), [-0.3, 1.5, 5.0]])
                calls.clear()
                got, want = predict(model, kernel, grid), predict(copy, kernel, grid)
                cell = (bandwidth, lam, n)
                if model._low_rank is None:
                    assert not calls and np.array_equal(got, want), cell
                    continue
                factored += 1
                (refused,) = calls
                err = np.abs(got - want).max()
                assert err <= 2 * n * eps * np.abs(model.alpha).sum(), (cell, err)
                assert 4098 in refused and refused.min() >= 4096, (cell, refused)
                if bandwidth <= 0.2:
                    assert refused.tolist() == [4096, 4097, 4098], cell
                assert np.array_equal(got[refused], predict(copy, kernel, grid[refused])), cell
    assert factored == 7, factored


def test_certificate_refuses_exactly_where_its_bound_fails(monkeypatch):
    """The refused points are those where
    ``sqrt(max(1 - ||h||^2, 0) + (r + 1) eps) ||alpha||_2 sqrt(n eps lam n)``
    exceeds ``n eps ||alpha||_1`` (``h`` from the same LAPACK solve, so that
    round-off cannot flip a point). At lambda = 100 the round-off term
    ``(r + 1) eps`` decides some points."""
    calls = _spy_refusals(monkeypatch)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(24)
    kernel, n = KernelSpec.gaussian(0.2), 4096
    xs, ys = rng.uniform(0.0, 1.0, n), rng.standard_normal(n)
    for lam in (2.5e-3, 1.0, 1e2):
        model = fit_krr(kernel, _dataset(xs, ys), lam)
        low_rank, alpha = model._low_rank, model.alpha
        grid = np.concatenate([low_rank.points, rng.uniform(0.0, 1.0, 1000), [1.5]])
        h = sla.solve_triangular(low_rank.chol, cross_gram(kernel, grid, low_rank.points).T, lower=True)
        resid = np.maximum(1.0 - np.einsum("ij,ij->j", h, h), 0.0)
        scale, tol = np.linalg.norm(alpha) * np.sqrt(n * eps * lam * n), n * eps * np.abs(alpha).sum()
        refused = np.sqrt(resid + (low_rank.points.size + 1) * eps) * scale > tol
        calls.clear()
        predict(model, kernel, grid)
        assert np.array_equal(calls[0], np.flatnonzero(refused)), lam
    assert np.any(refused != (np.sqrt(resid) * scale > tol))


def test_low_rank_predictor_keeps_pivot_rows_of_the_factor():
    """The model keeps the pivot points, ``L_P = tril(L[P])``, ``c = L^T alpha``
    and the certificate's scalars; ``L_P^-1 k(P, x_j)`` rebuilds ``L``'s rows
    at the training points, to the round-off that the smallest pivot of
    ``L_P`` amplifies. Hand-built, Laplacian and Nystrom models carry no
    factor, nor does a fit whose factor has rank 0."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20)
    kernel, n, lam = KernelSpec.gaussian(0.1), 4096, 2.5e-3
    xs, ys = rng.uniform(0.0, 1.0, n), rng.standard_normal(n)
    factor_t, pivots = low_rank_gram(kernel, xs, lam * n)
    model = fit_krr(kernel, _dataset(xs, ys), lam)
    low_rank = model._low_rank
    assert np.array_equal(low_rank.points, xs[pivots])
    assert np.array_equal(low_rank.chol, np.tril(factor_t[:, pivots].T))
    assert np.array_equal(low_rank.weights, factor_t @ model.alpha)
    assert low_rank.scale == np.linalg.norm(model.alpha) * np.sqrt(n * eps * lam * n)
    assert low_rank.tol == n * eps * np.abs(model.alpha).sum()
    rebuilt = sla.solve_triangular(low_rank.chol, cross_gram(kernel, xs[pivots], xs), lower=True)
    atol = pivots.size * eps / np.diag(low_rank.chol).min()
    assert_allclose(rebuilt, factor_t, rtol=0, atol=atol)
    others = (
        KernelModel(xs, model.alpha, lam, kernel=kernel),
        fit_krr(KernelSpec.laplacian(0.1), _dataset(xs, ys), lam),
        fit_nystrom(kernel, _dataset(xs, ys), lam, np.arange(200)),
        fit_krr(kernel, _dataset(xs[:128], ys[:128]), 1e15),  # rank 0: lam n >= 1 / eps
    )
    assert all(other._low_rank is None for other in others)
    assert np.all(np.isfinite(predict(others[-1], kernel, [0.3, 0.5])))


def test_nystrom_gaussian_predict_skips_zero_weights(monkeypatch):
    """A Gaussian Nystrom fit's weights vanish off the kept inducing points;
    predict sums the others only (``cross_gram`` is as wide as they are) and
    matches the full sum to round-off."""
    widths = []
    real = krr.cross_gram

    def spy(kernel, xs, inducing):
        widths.append(np.size(inducing))
        return real(kernel, xs, inducing)

    monkeypatch.setattr(krr, "cross_gram", spy)
    rng = np.random.default_rng(21)
    kernel, n, lam = KernelSpec.gaussian(0.1), 4096, 2.5e-3
    data = _dataset(rng.uniform(0.0, 1.0, n), rng.standard_normal(n))
    model = fit_nystrom(kernel, data, lam, subsample_plain(n, 600, 3))
    assert 0 < np.count_nonzero(model.alpha) < model.alpha.size / 4
    grid = rng.uniform(0.0, 1.0, 4096)
    full = cross_gram(kernel, grid, model.support_xs) @ model.alpha
    tol = 2 * model.alpha.size * np.finfo(float).eps * np.abs(model.alpha).sum()
    assert np.abs(predict(model, kernel, grid) - full).max() <= tol
    assert widths == [np.count_nonzero(model.alpha)]


def test_closed_form_full_krr_predicts_at_2_16_points_in_o_n_memory(monkeypatch):
    """Gaussian(0.1) full KRR at n = 2^16 predicts at 2^16 points on the factor
    with a small peak: the block route would compute 2^32 kernel values."""
    import tracemalloc

    calls = _spy_refusals(monkeypatch)
    kernel = KernelSpec.gaussian(0.1)
    rng = np.random.default_rng(22)
    n = 1 << 16
    model = fit_krr(kernel, _dataset(rng.uniform(0.0, 1.0, n), rng.standard_normal(n)), 1e-3)
    grid = rng.uniform(0.0, 1.0, n)
    tracemalloc.start()
    try:
        preds = predict(model, kernel, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak / 2**20
    assert preds.shape == (n,) and np.all(np.isfinite(preds))
    assert [c.size for c in calls] == [0]


def test_empirical_risk_norm_term_matches_gram_formula(monkeypatch):
    """The RKHS-norm term ``alpha^T K_ss alpha``, now from ``predict`` at the
    support points, matches the Gram formula for full KRR on and off the
    factor, a Gaussian Nystrom fit and a hand-built model; ``empirical_risk``
    builds no Gram."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(23)
    for kernel, n, lam in (
        (KernelSpec.gaussian(0.1), 2048, 2.5e-3),
        (KernelSpec.gaussian(0.2), 2048, 1e-5),
        (KernelSpec.laplacian(0.3), 500, 1e-3),
        (KernelSpec.gaussian(0.05), 300, 1e-2),
    ):
        data = _dataset(rng.uniform(0.0, 1.0, n), rng.standard_normal(n))
        models = (
            fit_krr(kernel, data, lam),
            fit_nystrom(kernel, data, lam, subsample_plain(n, n // 4, 5)),
            KernelModel(data.xs[:50], rng.standard_normal(50), lam, kernel=kernel),
        )
        for model in models:
            preds = predict(model, kernel, data.xs)
            alpha = model.alpha
            want = np.mean((preds - data.ys) ** 2) + lam * alpha @ gram(kernel, model.support_xs) @ alpha
            tol = 4 * lam * alpha.size * eps * np.abs(alpha).sum() ** 2 + 1e-14 * want
            with monkeypatch.context() as patch:
                patch.setattr(krr, "gram", None)
                got = empirical_risk(model, kernel, data, lam)
            assert abs(got - want) <= tol, (kernel, n)


def _spy_calls(monkeypatch, module, name):
    """A list that gets ``name`` at each call of ``module.name``."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_size_rule_krr_and_nystrom_share_the_held_factor(monkeypatch):
    """Gaussian(0.1), n = 4096: the plug-in size rule and then ``fit_krr`` on the
    same points and lam build one low-rank factor, and the fit's ``alpha``
    equals a cold fit's bit for bit. Designed T = 64, n = 300: ``fit_nystrom``
    and then ``fit_krr`` on one dataset factor ``S + lam I`` once, and the KRR
    coefficients equal a cold fit's bit for bit."""
    low_rank = _spy_calls(monkeypatch, krr, "low_rank_gram")
    kernel = KernelSpec.gaussian(0.1)
    rng = np.random.default_rng(30)
    n, lam = 4096, 2.5e-3
    data = _dataset(rng.uniform(0.0, 1.0, n), rng.standard_normal(n))
    subsample_size(n, lam, SizeRuleParams(c=2.0, delta=0.1), kernel=kernel, xs=data.xs)
    shared = fit_krr(kernel, data, lam)
    assert low_rank == ["low_rank_gram"]
    krr._drop_cell()
    assert np.array_equal(fit_krr(kernel, data, lam).alpha, shared.alpha) and len(low_rank) == 2

    factors = _spy_calls(monkeypatch, krr, "cholesky_psd")
    kernel = KernelSpec.designed(0.5, 64)
    data = _dataset(rng.uniform(0.0, 1.0, 300), rng.standard_normal(300))
    fit_nystrom(kernel, data, 1e-3, np.arange(20))
    shared = fit_krr(kernel, data, 1e-3)
    assert factors == ["cholesky_psd"]
    krr._drop_cell()
    cold = fit_krr(kernel, data, 1e-3)
    assert np.array_equal(cold.coefficients, shared.coefficients) and len(factors) == 2


def test_nystrom_and_krr_with_other_labels_share_the_moment_factor(monkeypatch):
    """Designed T = 64, n = 300: ``fit_nystrom`` and then ``fit_krr`` with other
    labels on the same points and lam build one ``covariance`` and one
    ``cholesky_psd``, and each model's coefficients equal a cold fit's bit for
    bit."""
    built = _spy_calls(monkeypatch, krr, "covariance")
    factored = _spy_calls(monkeypatch, krr, "cholesky_psd")
    kernel, lam = KernelSpec.designed(0.5, 64), 1e-3
    rng = np.random.default_rng(34)
    xs = rng.uniform(0.0, 1.0, 300)
    first, other = _dataset(xs, rng.standard_normal(300)), _dataset(xs, rng.standard_normal(300))
    shared = fit_nystrom(kernel, first, lam, np.arange(20)), fit_krr(kernel, other, lam)
    assert built == ["covariance"] and factored == ["cholesky_psd"]
    krr._drop_cell()
    cold_nystrom = fit_nystrom(kernel, first, lam, np.arange(20))
    krr._drop_cell()
    cold = cold_nystrom, fit_krr(kernel, other, lam)
    assert len(built) == len(factored) == 3
    for warm, fresh in zip(shared, cold):
        assert np.array_equal(warm.coefficients, fresh.coefficients)


def test_held_factor_is_read_only():
    """Every array of the held cell, the low-rank factor's three or the moment
    factor's U, refuses writes."""
    xs = np.random.default_rng(32).uniform(0.0, 1.0, 2048)
    low_rank = krr._shifted_factor(KernelSpec.gaussian(0.2), xs, 2048 * 1e-3)
    u_mat, _ = krr._moment_factor(xs, KernelSpec.designed(0.5, 64).eigenvalues(), 1e-3)
    assert low_rank[0] is not None
    for arr in [*low_rank, u_mat]:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0


def test_changed_points_lambda_kernel_or_labels_rebuild_the_held_factor(monkeypatch):
    """The held factor is found by value: the same call again reads it, while
    points changed in place, another lam or another kernel build afresh; other
    labels rebuild neither the low-rank nor the moment factor, as no key holds
    labels (each fit forms its own right-hand side)."""
    low_rank = _spy_calls(monkeypatch, krr, "low_rank_gram")
    moments = _spy_calls(monkeypatch, krr, "covariance")
    rng = np.random.default_rng(31)
    for kernel, other, n, calls, built in (
        (KernelSpec.gaussian(0.2), KernelSpec.gaussian(0.25), 2048, low_rank, [1, 1, 2, 3, 4, 4]),
        (KernelSpec.designed(0.5, 64), KernelSpec.designed(0.6, 64), 300, moments, [1, 1, 2, 3, 4, 4]),
    ):
        data = _dataset(rng.uniform(0.0, 1.0, n), rng.standard_normal(n))
        counts = []
        for step in ("first", "again", "xs", "lam", "kernel", "ys"):
            if step in ("xs", "ys"):
                getattr(data, step)[7] = 0.5  # in place: the same array
            lam = 1e-3 if step in ("first", "again", "xs") else 2e-3
            fit_krr(other if step in ("kernel", "ys") else kernel, data, lam)
            counts.append(len(calls))
        assert counts == built, kernel


def test_two_designed_fits_in_a_row_never_hold_two_factors():
    """Designed T = 1024, n = 4096, m = 200: a fit on new data drops the held
    T x T factor before it builds its own, so a Nystrom fit and full KRR on each
    of two datasets peak below two T x T float64 arrays."""
    import tracemalloc

    t = 1024
    kernel = KernelSpec.designed(0.5, t)
    rng = np.random.default_rng(33)
    sets = [_dataset(rng.uniform(0.0, 1.0, 4096), rng.standard_normal(4096)) for _ in range(2)]
    tracemalloc.start()
    try:
        for data in sets:
            fit_nystrom(kernel, data, 1e-3, np.arange(200))
            fit_krr(kernel, data, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * t * t, peak / 2**20
