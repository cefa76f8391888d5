import itertools
import json
import logging
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nystrom_krr import krr, nystrom
from nystrom_krr.krr import KernelModel
from nystrom_krr.kernels import (
    DecaySpec,
    KernelSpec,
    basis_moments,
    covariance,
    cross_gram,
    gram,
    sections,
)
from nystrom_krr.nystrom import (
    SizeRuleParams,
    fit_nystrom,
    lambda_admissible,
    load_model,
    predict,
    save_model,
    subsample_plain,
    subsample_size,
)
from nystrom_krr.linalg import pivoted_cholesky, solve_regularized
from nystrom_krr.spectral import analytic_profile, lambda0
from nystrom_krr.synthetic import (
    Dataset,
    NoiseSpec,
    fitted_coefficients,
    l2_rho_error,
    make_target,
    sample_dataset,
)
from nystrom_krr.spectral import IndexFunction


EPS = np.finfo(float).eps


def _dataset(xs, ys):
    return Dataset(xs=np.asarray(xs, float), ys=np.asarray(ys, float))


def _svd_oracle(kernel, xs, ys, idx, lam):
    """The restricted minimizer's eigen-coefficients on an SVD orthonormal basis
    V of ``range(W^T)``, W the m x T inducing sections, with the rank threshold
    ``max(m, T) eps sigma_max``: ``sqrt(mu) V c``, ``(V^T S V + lam I) c = V^T b``,
    ``S = W_n^T W_n / n`` and ``b = W_n^T y / n`` (from the trig moments beyond
    n = 4096). Also returns ``kappa(W) eps``, ``kappa(W) = sigma_max / sigma_min``."""
    mu = kernel.eigenvalues()
    n, m = xs.size, idx.size
    _, sv, vt = np.linalg.svd(sections(xs[idx], mu), full_matrices=False)
    kept = sv > max(m, mu.size) * EPS * sv[0]
    basis = vt[kept].T
    if n > 4096:
        s_mat, b_vec = covariance(xs, mu), np.sqrt(mu) * basis_moments(xs, ys, mu.size) / n
    else:
        w_n = sections(xs, mu)
        s_mat, b_vec = w_n.T @ w_n / n, w_n.T @ ys / n
    reduced = basis.T @ s_mat @ basis + lam * np.eye(basis.shape[1])
    c = np.linalg.solve(reduced, basis.T @ b_vec)
    return np.sqrt(mu) * (basis @ c), sv[0] / sv[-1] * EPS


def _oracle_error(kernel, data, lam, idx):
    """Relative distance of the fit's eigen-coefficients from ``_svd_oracle``,
    the fit and ``kappa(W) eps``."""
    model = fit_nystrom(kernel, data, lam, idx)
    ref, kappa_eps = _svd_oracle(kernel, data.xs, data.ys, np.asarray(idx), lam)
    got = fitted_coefficients(model, kernel)
    return np.linalg.norm(got - ref) / np.linalg.norm(ref), model, kappa_eps


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------


def test_subsample_full_is_permutation():
    idx = subsample_plain(5, 5, seed=3)
    assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]
    assert subsample_plain(1, 1, seed=0).tolist() == [0]


def test_subsample_validation():
    with pytest.raises(ValueError):
        subsample_plain(4, 5, seed=0)
    with pytest.raises(ValueError):
        subsample_plain(4, 0, seed=0)


def test_subsample_deterministic():
    a = subsample_plain(100, 10, seed=42)
    b = subsample_plain(100, 10, seed=42)
    assert np.array_equal(a, b)


def test_subsample_uniform_over_pairs():
    # n = 4, m = 2: each unordered pair should appear with frequency 1/6
    counts = {pair: 0 for pair in itertools.combinations(range(4), 2)}
    trials = 30_000
    for seed in range(trials):
        pair = tuple(sorted(subsample_plain(4, 2, seed=seed).tolist()))
        counts[pair] += 1
    for pair, count in counts.items():
        assert abs(count / trials - 1.0 / 6.0) < 0.01, pair


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_zero_labels():
    kernel = KernelSpec.gaussian(1.0)
    data = _dataset([0.1, 0.5, 0.9], np.zeros(3))
    model = fit_nystrom(kernel, data, 0.2, [0, 2])
    assert_allclose(model.alpha, np.zeros(2), atol=1e-14)


def test_fit_validation():
    kernel = KernelSpec.gaussian(1.0)
    data = _dataset([0.1, 0.5, 0.9], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_nystrom(kernel, data, 0.0, [0, 1])
    with pytest.raises(ValueError):
        fit_nystrom(kernel, data, 0.1, [0, 0])
    with pytest.raises(ValueError):
        fit_nystrom(kernel, data, 0.1, [0, 3])
    with pytest.raises(ValueError):
        fit_nystrom(kernel, data, 0.1, [])


def test_fit_two_point_scalar_reduction_oracle():
    # n = 2, m = 1: alpha = (sum k_i^2 + lam n K11)^-1 sum k_i y_i
    kernel = KernelSpec.gaussian(0.7)
    xs = np.array([0.2, 0.6])
    ys = np.array([1.5, -0.7])
    lam = 0.3
    model = fit_nystrom(kernel, _dataset(xs, ys), lam, [0])
    k_col = cross_gram(kernel, xs, [xs[0]])[:, 0]
    k11 = gram(kernel, [xs[0]])[0, 0]
    expected = (k_col @ ys) / (k_col @ k_col + lam * 2 * k11)
    assert_allclose(model.alpha, [expected], rtol=1e-12)


def test_reduced_system_residual():
    """The designed fit's eigen-coefficients ``f = sqrt(mu) v`` solve the
    Nystrom system ``(K_nm^T K_nm + lam n K_mm) alpha = K_nm^T y`` for any
    ``alpha`` with ``W_m^T alpha = v``: ``W_m ((W_n^T W_n + lam n I) v - W_n^T y)
    = 0``, and ``v`` lies in ``range(W_m^T)``."""
    kernel = KernelSpec.designed(0.5, 128)
    mu = kernel.eigenvalues()
    rng = np.random.default_rng(8)
    xs, ys = rng.uniform(0, 1, 200), rng.standard_normal(200)
    lam = 0.05
    idx = subsample_plain(200, 40, seed=1)
    model = fit_nystrom(kernel, _dataset(xs, ys), lam, idx)
    v = fitted_coefficients(model, kernel) / np.sqrt(mu)
    w_n, w_m = sections(xs, mu), sections(xs[idx], mu)
    lhs = w_m @ (w_n.T @ (w_n @ v) + lam * 200 * v)
    rhs = cross_gram(kernel, xs, xs[idx]).T @ ys
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)
    in_span = w_m.T @ np.linalg.lstsq(w_m.T, v, rcond=None)[0]
    assert np.linalg.norm(in_span - v) <= 1e-10 * np.linalg.norm(v)


@pytest.mark.parametrize(
    "kernel",
    [KernelSpec.gaussian(0.8), KernelSpec.laplacian(1.1), KernelSpec.designed(0.5, 512)],
)
def test_full_subsample_matches_krr(kernel):
    rng = np.random.default_rng(13)
    grid = np.linspace(0.0, 1.0, 83)
    for _ in range(10):
        n = int(rng.integers(5, 201))
        lam = float(10 ** rng.uniform(-2, 0))
        xs, ys = rng.uniform(0, 1, n), rng.standard_normal(n)
        data = _dataset(xs, ys)
        base = krr.predict(krr.fit_krr(kernel, data, lam), kernel, grid)
        model = fit_nystrom(kernel, data, lam, subsample_plain(n, n, seed=7))
        ny = predict(model, kernel, grid)
        assert np.linalg.norm(ny - base) <= 1e-8 * np.linalg.norm(base)


def test_duplicate_inputs_resolved_by_jitter():
    kernel = KernelSpec.gaussian(1.0)
    xs = np.array([0.4, 0.4, 0.4, 0.9])
    ys = np.array([1.0, 1.0, 1.0, 0.0])
    model = fit_nystrom(kernel, _dataset(xs, ys), 0.1, [0, 1, 3])
    assert np.all(np.isfinite(model.alpha))


def test_designed_fit_matches_svd_oracle():
    """The designed fit is the restricted minimizer: within
    ``10 max(1e-10, kappa(W) eps)`` relative of ``_svd_oracle`` near m = T
    (m = T - 1, T, T + 1, 2T; n below and above T), within 1e-12 on degenerate
    inducing sets (exact repeats, x = 0 with x = 1, identical sections at T = 2),
    and with the generic flop model for every kernel."""
    rng = np.random.default_rng(90)
    for s, t in itertools.product((0.4, 0.5, 0.8), (63, 64, 90, 91)):
        kernel = KernelSpec.designed(s, t)
        for m, n in itertools.product((t - 1, t, t + 1, 2 * t), (t - 1, 3 * t)):
            if m > n:
                continue
            for _ in range(2):
                data = _dataset(rng.uniform(0, 1, n), rng.standard_normal(n))
                lam = float(10 ** rng.uniform(-4, -1))
                idx = subsample_plain(n, m, seed=int(rng.integers(2**31)))
                err, model, kappa_eps = _oracle_error(kernel, data, lam, idx)
                assert err <= 10 * max(1e-10, kappa_eps), (s, t, m, n, err, kappa_eps)
                assert model.opcount.flops == n * m * m + 2 * (m**3 // 3) + m * m

    rng = np.random.default_rng(91)
    repeats = np.concatenate([np.full(6, 0.25), rng.uniform(0, 1, 94)])
    ends = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 98)])
    twin = np.concatenate([[0.3, 0.7], rng.uniform(0, 1, 48)])
    cases = [
        (KernelSpec.designed(0.5, 16), repeats, list(range(10))),
        (KernelSpec.designed(0.5, 256), repeats, list(range(10))),
        (KernelSpec.designed(0.5, 8), repeats, list(range(30))),
        (KernelSpec.designed(0.5, 64), ends, [0, 1, 5, 9]),
        (KernelSpec.designed(0.5, 256), ends, [0, 1, 5, 9]),
        (KernelSpec.designed(0.5, 2), twin, [0, 1]),
        (KernelSpec.designed(0.5, 2), twin[:2], [0, 1]),
    ]
    for kernel, xs, idx in cases:
        data = _dataset(xs, rng.standard_normal(xs.size))
        err, _, _ = _oracle_error(kernel, data, 1e-3, idx)
        assert err <= 1e-12, (kernel.truncation, xs.size, len(idx), err)

    # the flop model is the generic algorithm's on every path
    flop_cases = [
        (KernelSpec.designed(0.5, 64), 64),
        (KernelSpec.designed(0.5, 64), 65),
        (KernelSpec.designed(0.5, 33), 200),
        (KernelSpec.gaussian(0.3), 200),
    ]
    for kernel, n in flop_cases:
        data = _dataset(rng.uniform(0, 1, n), rng.standard_normal(n))
        model = fit_nystrom(kernel, data, 0.05, subsample_plain(n, 10, seed=n))
        assert model.opcount.flops == n * 100 + 2 * (1000 // 3) + 100


def test_designed_fit_matches_svd_oracle_on_rate_cells():
    """Four rule-sized criterion-3 rate cells (n = 16384, T = 2048, lambda0,
    c = 2): the fit is within 1e-12 relative of ``_svd_oracle``."""
    kernel = KernelSpec.designed(0.5, 2048)
    target = make_target(kernel.decay, 2048, IndexFunction.holder(0.25), 7, "power_boundary")
    n = 16384
    lam = lambda0(analytic_profile(kernel.decay, 2048), n)
    m = subsample_size(n, lam, SizeRuleParams(c=2.0, delta=0.1), kernel=kernel)
    for seed in range(4):
        data = sample_dataset(kernel.decay, 2048, target, NoiseSpec.gaussian(0.1), n, seed=seed)
        err, _, _ = _oracle_error(kernel, data, lam, subsample_plain(n, m, seed=100 + seed))
        assert err <= 1e-12, (seed, err)


@settings(max_examples=25, deadline=None, database=None)
@given(
    s=st.sampled_from([0.4, 0.5, 0.8]),
    truncation=st.integers(1, 160),
    n_frac=st.floats(0.0, 1.0),
    m_frac=st.floats(0.0, 1.0),
    log_lam=st.floats(-4.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_designed_fit_matches_svd_oracle_property(s, truncation, n_frac, m_frac, log_lam, seed):
    """Over s, T in 1..160, n in 1..4T (both sides of T) and m in
    1..min(n, 2T): the fit is within ``10 max(1e-10, kappa(W) eps)`` relative
    of ``_svd_oracle``."""
    kernel = KernelSpec.designed(s, truncation)
    rng = np.random.default_rng(seed)
    n = 1 + round(n_frac * (4 * truncation - 1))
    m = 1 + round(m_frac * (min(n, 2 * truncation) - 1))
    data = _dataset(rng.uniform(0.0, 1.0, n), rng.standard_normal(n))
    idx = rng.choice(n, m, replace=False)
    err, _, kappa_eps = _oracle_error(kernel, data, 10.0**log_lam, idx)
    assert err <= 10 * max(1e-10, kappa_eps), (err, kappa_eps)


def test_opcount_composition():
    kernel = KernelSpec.gaussian(1.0)
    rng = np.random.default_rng(0)
    n, m = 100, 12
    data = _dataset(rng.uniform(0, 1, n), rng.standard_normal(n))
    model = fit_nystrom(kernel, data, 0.1, subsample_plain(n, m, seed=0))
    assert model.opcount.flops == n * m * m + 2 * (m**3 // 3) + m * m


def test_cost_scaling_fits_n_m_squared():
    kernel = KernelSpec.gaussian(1.0)
    rng = np.random.default_rng(1)
    rows = []
    for n in (1024, 2048, 4096):
        data = _dataset(rng.uniform(0, 1, n), rng.standard_normal(n))
        for m in (8, 16, 32):
            model = fit_nystrom(kernel, data, 0.1, subsample_plain(n, m, seed=2))
            rows.append((n, m, model.opcount.flops))
    design = np.array([[1.0, n * m * m] for n, m, _ in rows])
    flops = np.array([f for *_, f in rows], dtype=float)
    coef, *_ = np.linalg.lstsq(design, flops, rcond=None)
    rel = np.abs(design @ coef - flops) / flops
    assert rel.max() <= 0.05


def test_predict_cases():
    kernel = KernelSpec.gaussian(1.0)
    data = _dataset([0.2, 0.8], [1.0, 2.0])
    model = fit_nystrom(kernel, data, 0.5, [0, 1])
    zeroed = fit_nystrom(kernel, _dataset([0.2, 0.8], [0.0, 0.0]), 0.5, [0, 1])
    assert_allclose(predict(zeroed, kernel, [0.3]), [0.0], atol=1e-14)
    direct = sum(
        a * np.exp(-0.5 * (0.3 - x) ** 2) for a, x in zip(model.alpha, model.support_xs)
    )
    assert_allclose(predict(model, kernel, [0.3]), [direct], rtol=1e-12)

    # A designed expansion predicts through its eigen-coefficients and one
    # type-2 sum; pointwise it matches the cross-Gram expansion to round-off of
    # the terms' magnitudes, also with m > T support points and at x = 0 and 1.
    rng = np.random.default_rng(17)
    grid = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 200)])
    for truncation in (1, 2, 3, 8, 63, 64):
        kernel = KernelSpec.designed(0.5, truncation)
        for m in {max(1, truncation // 3), truncation, 3 * truncation}:
            support, alpha = rng.uniform(0.0, 1.0, m), rng.standard_normal(m)
            model = KernelModel(support, alpha, 1e-3, kernel=kernel)
            k_block = cross_gram(kernel, grid, support)
            scale = np.abs(k_block) @ np.abs(alpha)
            err = np.abs(predict(model, kernel, grid) - k_block @ alpha)
            assert np.all(err <= 1e-12 * scale), (truncation, m)


def test_designed_fit_alpha_on_request():
    """A designed fit carries eigen-coefficients only; asked for ``alpha``, it
    returns an expansion over its support points with the same predictions,
    to round-off of the terms' magnitudes (m below, at and above T)."""
    kernel = KernelSpec.designed(0.5, 32)
    rng = np.random.default_rng(29)
    data = _dataset(rng.uniform(0, 1, 150), rng.standard_normal(150))
    grid = np.linspace(0, 1, 23)
    for m in (10, 32, 70):
        model = fit_nystrom(kernel, data, 1e-3, subsample_plain(150, m, seed=m))
        assert model.coefficients.shape == (32,) and model.alpha.shape == (m,)
        k_block = cross_gram(kernel, grid, model.support_xs)
        err = np.abs(k_block @ model.alpha - predict(model, kernel, grid))
        assert np.all(err <= 1e-12 * (np.abs(k_block) @ np.abs(model.alpha))), m
    support, coeff = np.array([0.2, 0.6]), np.ones(32)
    for args, kwargs in (
        ((support, None, 0.1), {"kernel": kernel}),
        ((support, np.ones(2), 0.1), {"kernel": kernel, "coefficients": coeff}),
        ((support, None, 0.1), {"coefficients": coeff}),
        ((support, None, 0.1), {"kernel": KernelSpec.gaussian(0.5), "coefficients": coeff}),
    ):
        with pytest.raises(ValueError, match="carries alpha"):
            KernelModel(*args, **kwargs)


def test_restricted_minimizer_property():
    kernel = KernelSpec.designed(0.5, 64)
    rng = np.random.default_rng(23)
    xs, ys = rng.uniform(0, 1, 120), rng.standard_normal(120)
    data = _dataset(xs, ys)
    lam = 0.05
    idx = subsample_plain(120, 15, seed=5)
    model = fit_nystrom(kernel, data, lam, idx)
    base = krr.empirical_risk(model, kernel, data, lam)
    mu = kernel.eigenvalues()
    for _ in range(100):
        # alpha + delta in eigen-coordinates: a step inside the span
        step = mu * basis_moments(xs[idx], rng.standard_normal(15) * 0.05, 64)
        other = KernelModel(
            xs[idx], None, lam, kernel=kernel, coefficients=model.coefficients + step
        )
        assert krr.empirical_risk(other, kernel, data, lam) >= base - 1e-12


def test_designed_fit_logs_rank_cut(caplog):
    """A designed fit logs one INFO line ``kept r of m`` when its span keeps
    fewer than m directions (m > T, or repeated inducing points), else none."""
    kernel = KernelSpec.designed(0.5, 16)
    rng = np.random.default_rng(5)
    xs = np.concatenate([np.full(4, 0.5), rng.uniform(0, 1, 60)])
    data = _dataset(xs, rng.standard_normal(64))
    for idx, message in (
        (range(32), "kept 16 of 32"),
        (range(8), "kept 5 of 8"),
        (range(4, 12), None),
    ):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="nystrom_krr"):
            fit_nystrom(kernel, data, 1e-2, list(idx))
        assert [r.getMessage() for r in caplog.records] == ([message] if message else [])


@pytest.mark.parametrize("s", [0.4, 0.5, 0.8])
def test_m_above_truncation_matches_svd_restricted_minimizer(s):
    """With m > T the inducing sections span at most T directions; the fit
    matches ``_svd_oracle``, the restricted minimizer on an SVD orthonormal
    basis of ``range(W^T)``, to 1e-10 relative."""
    kernel = KernelSpec.designed(s, 64)
    rng = np.random.default_rng(31)
    n, m, lam = 500, 100, 1e-3
    data = _dataset(rng.uniform(0, 1, n), rng.standard_normal(n))
    err, _, _ = _oracle_error(kernel, data, lam, subsample_plain(n, m, seed=3))
    assert err <= 1e-10


def _whitened_routes(monkeypatch):
    """A list that gets, per designed fit with n > T > m, True when the
    whitened route solved it and False when its certificate refused."""
    taken, solve = [], nystrom._whitened_solve

    def spy(*args):
        v_vec = solve(*args)
        taken.append(v_vec is not None)
        return v_vec

    monkeypatch.setattr(nystrom, "_whitened_solve", spy)
    return taken


def test_whitened_route_matches_svd_oracle(monkeypatch):
    """n > T > m on uniform points and on a rule-sized rate cell (n = 16384,
    T = 2048): the certificate admits every fit, which is within
    ``10 max(1e-10, kappa(W) eps)`` (1e-12 on the rate cell) of ``_svd_oracle``."""
    taken = _whitened_routes(monkeypatch)
    rng = np.random.default_rng(93)
    for s, t in itertools.product((0.4, 0.5, 0.8), (64, 91)):
        kernel = KernelSpec.designed(s, t)
        for m in (1, t // 3, t // 2):
            data = _dataset(rng.uniform(0, 1, 3 * t), rng.standard_normal(3 * t))
            lam = float(10 ** rng.uniform(-4, -1))
            err, _, kappa_eps = _oracle_error(kernel, data, lam, subsample_plain(3 * t, m, seed=m))
            assert taken[-1] and err <= 10 * max(1e-10, kappa_eps), (s, t, m, err, kappa_eps)
    assert len(taken) == 18

    kernel = KernelSpec.designed(0.5, 2048)
    target = make_target(kernel.decay, 2048, IndexFunction.holder(0.25), 7, "power_boundary")
    n, lam = 16384, lambda0(analytic_profile(kernel.decay, 2048), 16384)
    m = subsample_size(n, lam, SizeRuleParams(c=2.0, delta=0.1), kernel=kernel)
    data = sample_dataset(kernel.decay, 2048, target, NoiseSpec.gaussian(0.1), n, seed=0)
    err, _, _ = _oracle_error(kernel, data, lam, subsample_plain(n, m, seed=100))
    assert taken[-1] and err <= 1e-12, err


def test_whitened_route_falls_back_on_ill_conditioned_and_repeated_points(monkeypatch, caplog):
    """T = 64, n > T, inducing points on a short interval: at width 0.01, m = 10
    (kappa(W) ~ 1e12, full rank) the certificate admits the fit; at width
    0.003, m = 8 (kappa(W) ~ 3e12, full rank) it refuses and the QR/SVD route
    keeps all 8; with an exact repeat it refuses and the rank rule logs the cut.
    Each fit is within the oracle's tolerance: ``10 max(1e-10, kappa(W) eps)``,
    1e-12 on the degenerate set."""
    taken = _whitened_routes(monkeypatch)
    kernel = KernelSpec.designed(0.5, 64)
    rng = np.random.default_rng(3)
    rest = rng.uniform(0, 1, 300)
    cases = (
        (0.5 + 0.01 * np.linspace(0, 1, 10), True, None, None),
        (0.5 + 0.003 * np.linspace(0, 1, 8), False, None, None),
        (np.array([0.25, 0.25, 0.25, 0.7, 0.9]), False, "kept 3 of 5", 1e-12),
    )
    for cluster, route, message, tol in cases:
        xs = np.concatenate([cluster, rest])
        data = _dataset(xs, rng.standard_normal(xs.size))
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="nystrom_krr"):
            err, model, kappa_eps = _oracle_error(kernel, data, 1e-3, list(range(cluster.size)))
        assert taken[-1] == route, cluster
        assert [r.getMessage() for r in caplog.records] == ([message] if message else [])
        assert err <= (tol or 10 * max(1e-10, kappa_eps)), (cluster, err, kappa_eps)
    assert len(taken) == 3


def test_designed_fit_above_truncation_factors_once(monkeypatch, caplog):
    """n > T: every designed fit factors ``S + lam I`` once (``cholesky_psd``)
    and solves no second system (``solve_regularized``), on each branch: the
    certified whitened span, a refused certificate without and with a rank cut
    (``kappa(W) ~ 3e12``, an exact repeat), and m >= T with and without a cut.
    Designed full KRR too, on fresh data; on the data of the last Nystrom fit it
    reads the held factor and factors nothing. Each Nystrom fit stays within the
    oracle's tolerance."""
    from nystrom_krr import linalg

    calls, taken = [], _whitened_routes(monkeypatch)

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for mod, name in itertools.product((linalg, krr, nystrom), ("cholesky_psd", "solve_regularized")):
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    kernel = KernelSpec.designed(0.5, 64)
    rng = np.random.default_rng(3)
    rest = rng.uniform(0, 1, 300)
    cases = (
        (rest[:20], [True], None, None),
        (0.5 + 0.003 * np.linspace(0, 1, 8), [False], None, None),
        (np.array([0.25, 0.25, 0.25, 0.7, 0.9]), [False], "kept 3 of 5", 1e-12),
        (rest[:100], [], "kept 64 of 100", None),
        (np.repeat(rest[:20], 5), [], "kept 20 of 100", 1e-12),
    )
    for cluster, route, message, tol in cases:
        xs = np.concatenate([cluster, rest])
        data = _dataset(xs, rng.standard_normal(xs.size))
        calls.clear(), taken.clear(), caplog.clear()
        with caplog.at_level(logging.INFO, logger="nystrom_krr"):
            err, _, kappa_eps = _oracle_error(kernel, data, 1e-3, list(range(cluster.size)))
        assert calls == ["cholesky_psd"] and taken == route, (cluster.size, calls, taken)
        assert [r.getMessage() for r in caplog.records] == ([message] if message else [])
        assert err <= (tol or 10 * max(1e-10, kappa_eps)), (cluster.size, err, kappa_eps)
    calls.clear()
    krr.fit_krr(kernel, data, 1e-3)
    assert calls == []
    krr.fit_krr(kernel, _dataset(rest, rng.standard_normal(rest.size)), 1e-3)
    assert calls == ["cholesky_psd"]


def test_whitened_route_holds_one_truncation_square_array():
    """n = 8192 > T = 2048 > m = 978: the fit holds at most one T x T float64
    array at a time (32 MiB; the explicit Q and Q^T S beside S held 70 MiB)."""
    import tracemalloc

    kernel = KernelSpec.designed(0.5, 2048)
    rng = np.random.default_rng(8)
    data = _dataset(rng.uniform(0.0, 1.0, 8192), rng.standard_normal(8192))
    idx = subsample_plain(8192, 978, seed=1)
    tracemalloc.start()
    try:
        model = fit_nystrom(kernel, data, 1e-3, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * 2048**2, peak / 2**20
    assert model.coefficients.shape == (2048,)


def test_designed_fits_hold_one_blas_thread(monkeypatch):
    """T = 256: every designed route, the Nystrom fit on n <= T, on the
    whitened span, after a refused certificate and at m >= T, and full KRR on
    the n x n Gram (n = 150 <= 0.65 T) and on the moment factor (n = 200 and
    2048), runs at one BLAS thread and gives the same coefficients bit for bit
    under ``blas_threads(2)`` as under ``blas_threads(1)``. Each fit starts
    without a held factor."""
    from nystrom_krr import linalg

    seen = []

    def spy(fn):
        def wrapper(*args):
            seen.append([get() for get, _ in linalg._blas_thread_calls()])
            return fn(*args)

        return wrapper

    for module, name in ((nystrom, "_designed_fit"), (krr, "_moment_factor"), (krr, "_shifted_factor")):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    kernel = KernelSpec.designed(0.5, 256)
    coeffs = {}
    for threads in (1, 2):
        with linalg.blas_threads(threads):
            for route, n, m in (("n <= 0.65 T", 150, 100), ("n <= T", 200, 100),
                                ("whitened", 2048, 100), ("refused", 2048, 100),
                                ("m >= T", 2048, 300)):
                rng = np.random.default_rng(n + m)
                xs = rng.uniform(0.0, 1.0, n)
                if route == "refused":
                    xs[m // 2 : m] = xs[: m // 2]
                data = _dataset(xs, rng.standard_normal(n))
                krr._drop_cell()
                model = fit_nystrom(kernel, data, 1e-3, np.arange(m))
                coeffs.setdefault(route, []).append(model.coefficients)
                krr._drop_cell()
                krr_coeffs = krr.fitted_coefficients(krr.fit_krr(kernel, data, 1e-3), kernel)
                coeffs.setdefault(f"KRR {route}", []).append(krr_coeffs)
    assert seen == [[1] * len(linalg._blas_thread_calls())] * 20
    for route, (one, two) in coeffs.items():
        assert np.array_equal(one, two), route


def _streamed_blocks(monkeypatch):
    """A list that gets, per ``_normal_equations`` call, the row counts of the
    blocks it summed and the relative distance of its ``G^T G`` and ``G^T y``
    from those of the one-shot G, ``rows`` over all n points at once."""
    calls, accumulate = [], nystrom._normal_equations

    def spy(rows, ys, width):
        sizes = []

        def counted(part):
            g_part = rows(part)
            sizes.append(g_part.shape[0])
            return g_part

        gtg, gty = accumulate(counted, ys, width)
        g_mat = rows(slice(0, ys.size))
        ref_gtg, ref_gty = g_mat.T @ g_mat, g_mat.T @ ys
        calls.append((sizes, max(np.linalg.norm(gtg - ref_gtg) / np.linalg.norm(ref_gtg),
                                 np.linalg.norm(gty - ref_gty) / np.linalg.norm(ref_gty))))
        return gtg, gty

    monkeypatch.setattr(nystrom, "_normal_equations", spy)
    return calls


def test_designed_fit_streams_row_blocks(monkeypatch):
    """n = 1024 <= T = 2048: ``G = W_n Q`` is summed over 8 row blocks of 128
    points (``_CHUNK_ELEMENTS`` doubles of sections each), within 1e-13 relative
    of the one-shot G, and the fit meets ``_svd_oracle``'s gate."""
    calls = _streamed_blocks(monkeypatch)
    kernel = KernelSpec.designed(0.5, 2048)
    target = make_target(kernel.decay, 2048, IndexFunction.holder(0.25), 7, "power_boundary")
    data = sample_dataset(kernel.decay, 2048, target, NoiseSpec.gaussian(0.1), 1024, seed=4)
    lam = lambda0(analytic_profile(kernel.decay, 2048), 1024)
    err, model, kappa_eps = _oracle_error(kernel, data, lam, subsample_plain(1024, 276, seed=5))
    [(sizes, dist)] = calls
    assert sizes == [128] * 8 and dist <= 1e-13, (sizes, dist)
    assert err <= 10 * max(1e-10, kappa_eps), (err, kappa_eps)


def test_generic_fit_streams_row_blocks(monkeypatch):
    """Laplacian(0.1), n = 3000, m = 400 (all kept): ``G = K_nr R^-1`` is summed
    over 5 row blocks, within 1e-13 relative of the one-shot G, and ``alpha``
    matches the one-shot arithmetic (``K_nr``, one triangular solve, one
    ``solve_regularized``) to 1e-12 relative."""
    calls = _streamed_blocks(monkeypatch)
    kernel = KernelSpec.laplacian(0.1)
    rng = np.random.default_rng(12)
    n, m, lam = 3000, 400, 1e-4
    data = _dataset(rng.uniform(0, 1, n), rng.standard_normal(n))
    idx = subsample_plain(n, m, seed=6)
    model = fit_nystrom(kernel, data, lam, idx)
    [(sizes, dist)] = calls
    assert len(sizes) == 5 and sum(sizes) == n and dist <= 1e-13, (sizes, dist)
    r_factor, keep = pivoted_cholesky(gram(kernel, data.xs[idx]))
    assert keep.size == m
    g_mat = sla.solve_triangular(
        r_factor, cross_gram(kernel, data.xs, data.xs[idx][keep]).T, trans="T"
    ).T
    beta = solve_regularized(g_mat.T @ g_mat, lam * n, g_mat.T @ data.ys)
    ref = np.zeros(m)
    ref[keep] = sla.solve_triangular(r_factor, beta)
    assert np.linalg.norm(model.alpha - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "kernel, n, m, limit",
    # the bounds: half of one n x T array (32 MiB), half of the 74.8 MiB the
    # Laplacian fit peaked at with its n x r K_nr and G, and a quarter of the
    # 32 MiB m x m K_mm the Gaussian fit formed before its column-wise factor
    [(KernelSpec.designed(0.5, 2048), 2048, 256, 16 * 2**20),
     (KernelSpec.laplacian(0.1), 4096, 900, 37 * 2**20),
     (KernelSpec.gaussian(0.1), 4096, 2048, 8 * 2**20)],
    ids=["designed", "laplacian", "gaussian"],
)
def test_streamed_fit_holds_no_n_row_array(kernel, n, m, limit):
    import tracemalloc

    rng = np.random.default_rng(9)
    data = _dataset(rng.uniform(0.0, 1.0, n), rng.standard_normal(n))
    idx = subsample_plain(n, m, seed=2)
    tracemalloc.start()
    try:
        fit_nystrom(kernel, data, 1e-3, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, peak / 2**20


def test_error_nonincreasing_as_m_doubles():
    kernel = KernelSpec.designed(0.5, 256)
    decay = DecaySpec(0.5)
    target = make_target(decay, 256, IndexFunction.holder(0.25), seed=3, profile="power_boundary")
    noise = NoiseSpec.gaussian(0.1)
    n = 256
    profile = analytic_profile(decay, 256)
    lam = lambda0(profile, n)
    ms = [4, 8, 16, 32, 64, 128, 256]
    means = []
    for m in ms:
        errs = []
        for seed in range(20):
            data = sample_dataset(decay, 256, target, noise, n, seed=seed)
            model = fit_nystrom(kernel, data, lam, subsample_plain(n, m, seed=1000 + seed))
            errs.append(l2_rho_error(model, kernel, data))
        means.append(float(np.mean(errs)))
    increases = [
        (b - a) / a for a, b in zip(means, means[1:]) if b > a
    ]
    assert len(increases) <= 1
    assert all(inc <= 0.05 for inc in increases)


# ---------------------------------------------------------------------------
# size rule and admissibility
# ---------------------------------------------------------------------------


def test_subsample_size_gamma_one():
    params = SizeRuleParams(c=1.0, delta=0.1, gamma=1.0, c_gamma=1.0)
    for lam in (0.5, 0.1, 0.01):
        expected = math.ceil(math.log(1 / lam) * math.log(10.0))
        assert subsample_size(10**6, lam, params) == expected


def test_subsample_size_plugin_arithmetic():
    # c_gamma = 1, gamma = 0.5, lam = 0.01, delta = 0.1:
    # ceil(10 * log(100) * log(10)) = 107
    params = SizeRuleParams(c=1.0, delta=0.1, gamma=0.5, c_gamma=1.0)
    assert subsample_size(10**6, 0.01, params) == 107


def test_size_rule_envelope_needs_both_constants():
    for half in ({"gamma": 0.5}, {"c_gamma": 1.0}):
        with pytest.raises(ValueError, match="together"):
            SizeRuleParams(**half)
    for bad, match in (
        ({"c": math.nan}, "rule constant c"),
        ({"c": math.inf}, "rule constant c"),
        ({"gamma": 0.5, "c_gamma": math.nan}, "c_gamma"),
        ({"gamma": 7.0, "c_gamma": 1.0}, "gamma must be in"),
        ({"gamma": math.nan, "c_gamma": 1.0}, "gamma must be in"),
    ):
        with pytest.raises(ValueError, match=match):
            SizeRuleParams(**bad)


def test_subsample_size_clamps():
    params = SizeRuleParams(c=100.0, delta=0.01, gamma=0.5, c_gamma=10.0)
    assert subsample_size(50, 0.01, params) == 50


def test_subsample_size_designed_and_empirical():
    kernel = KernelSpec.designed(0.5, 256)
    m = subsample_size(10_000, 0.01, SizeRuleParams(), kernel=kernel)
    assert 1 <= m <= 10_000
    gauss = KernelSpec.gaussian(0.5)
    xs = np.random.default_rng(0).uniform(0, 1, 100)
    m2 = subsample_size(100, 0.05, SizeRuleParams(), kernel=gauss, xs=xs)
    assert 1 <= m2 <= 100
    with pytest.raises(ValueError):
        subsample_size(100, 0.05, SizeRuleParams(), kernel=gauss)
    with pytest.raises(ValueError):
        subsample_size(100, 1.5, SizeRuleParams(), kernel=kernel)


def test_sizes_are_checked_integers():
    """``n`` and ``m`` of the size rule, the subsampler, ``lambda0`` and the
    admissibility window take ints or integral floats only, never a bool or a
    fraction; the size rule returns an int."""
    params = SizeRuleParams(c=1.0, delta=0.1, gamma=1.0, c_gamma=1.0)
    m = subsample_size(10.0, 0.01, params)
    assert type(m) is int and m == 10
    assert subsample_plain(10.0, 3.0, 1).tolist() == subsample_plain(10, 3, 1).tolist()
    profile = analytic_profile(DecaySpec(0.5), 64)
    assert lambda0(profile, 100.0) == lambda0(profile, 100)
    for call in (
        lambda: subsample_size(10.5, 0.01, params),
        lambda: subsample_size(True, 0.01, params),
        lambda: subsample_plain(True, 1, 1),
        lambda: subsample_plain(10, 2.5, 1),
        lambda: lambda0(profile, 100.5),
        lambda: lambda_admissible(0.1, 100.5, 0.1, 1.0),
        lambda: lambda_admissible(0.1, True, 0.1, 1.0),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            call()


def test_lambda_admissible():
    assert lambda_admissible(1.0, 100, 0.1, operator_norm_bound=1.0)
    assert not lambda_admissible(1e-9, 100, 0.1, operator_norm_bound=1.0)
    # n = 1000, delta = 0.1: lower endpoint log(1e4)/1000 = 0.0092103
    assert lambda_admissible(0.01, 1000, 0.1, operator_norm_bound=1.0)
    assert not lambda_admissible(0.009, 1000, 0.1, operator_norm_bound=1.0)
    assert not lambda_admissible(1.1, 1000, 0.1, operator_norm_bound=1.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_model_roundtrip(tmp_path):
    kernel = KernelSpec.gaussian(0.9)
    rng = np.random.default_rng(2)
    data = _dataset(rng.uniform(0, 1, 30), rng.standard_normal(30))
    model = fit_nystrom(kernel, data, 0.2, subsample_plain(30, 6, seed=9))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.inducing_indices, model.inducing_indices)
    assert_allclose(loaded.alpha, model.alpha)
    assert loaded.lam == model.lam
    grid = np.linspace(0, 1, 17)
    assert predict is krr.predict  # one predict for every model
    assert_allclose(predict(loaded, kernel, grid), predict(model, kernel, grid))
    assert loaded.kernel == kernel
    for other in (KernelSpec.gaussian(0.1), KernelSpec.designed(0.5, 32)):
        for m in (model, loaded):
            with pytest.raises(ValueError, match="fitted with"):
                predict(m, other, grid)
    with pytest.raises(ValueError):
        (tmp_path / "bogus.json").write_text('{"format": "other"}')
        load_model(tmp_path / "bogus.json")


def test_designed_model_roundtrip_v3(tmp_path):
    """A designed fit saves its eigen-coefficients (format v3, no alpha) and
    loads with the same coefficients and predictions."""
    kernel = KernelSpec.designed(0.5, 64)
    rng = np.random.default_rng(3)
    data = _dataset(rng.uniform(0, 1, 200), rng.standard_normal(200))
    model = fit_nystrom(kernel, data, 1e-3, subsample_plain(200, 20, seed=4))
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    assert payload["version"] == 3 and "alpha" not in payload
    assert len(payload["coefficients"]) == 64
    loaded = load_model(path)
    assert np.array_equal(loaded.coefficients, model.coefficients)
    assert np.array_equal(loaded.inducing_indices, model.inducing_indices)
    grid = np.linspace(0, 1, 17)
    assert np.array_equal(predict(loaded, kernel, grid), predict(model, kernel, grid))
    assert krr.empirical_risk(loaded, kernel, data, 1e-3) == krr.empirical_risk(
        model, kernel, data, 1e-3
    )
    for bad, match in (
        ({"alpha": [0.0] * 20}, "not both"),
        ({"coefficients": [0.0] * 63}, "truncation"),
        ({"coefficients": [float("nan")] + [0.0] * 63}, "finite"),
    ):
        path.write_text(json.dumps({**payload, **bad}))
        with pytest.raises(ValueError, match=match):
            load_model(path)


def test_load_model_reads_v2_artifact(tmp_path):
    """A v2 artifact (an ``alpha`` expansion, designed kernels included) still
    loads, and its model predicts ``sum_j alpha_j K(x, x_j)``."""
    kernel = KernelSpec.designed(0.5, 32)
    payload = {
        "format": "nystrom-krr-model",
        "version": 2,
        "kernel": kernel.to_config(),
        "lambda": 0.01,
        "inducing_indices": [3, 7],
        "inducing_xs": [0.2, 0.9],
        "alpha": [1.5, -0.5],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    loaded = load_model(path)
    assert loaded.coefficients is None and loaded.alpha.tolist() == [1.5, -0.5]
    grid = np.linspace(0, 1, 11)
    expected = cross_gram(kernel, grid, [0.2, 0.9]) @ np.array([1.5, -0.5])
    assert_allclose(predict(loaded, kernel, grid), expected, rtol=1e-12, atol=1e-14)


def test_load_model_rejects_inconsistent_artifact(tmp_path):
    base = {
        "format": "nystrom-krr-model",
        "version": 2,
        "kernel": {"variant": "gaussian", "bandwidth": 0.1},
        "lambda": 0.1,
        "inducing_indices": [0, 1, 2],
        "inducing_xs": [0.1, 0.5, 0.9],
    }
    path = tmp_path / "model.json"
    for alpha, match in (([1.0], "differ in length"), ([1.0, float("nan"), 0.0], "finite")):
        path.write_text(json.dumps({**base, "alpha": alpha}))
        with pytest.raises(ValueError, match=match):
            load_model(path)
    valid = {**base, "alpha": [1.0, 0.0, 0.0]}
    no_kernel = {k: v for k, v in valid.items() if k != "kernel"}
    for payload, match in (
        ({**valid, "version": 1}, "version"),
        (no_kernel, "no kernel"),
        ({**valid, "kernel": {"variant": "gaussian", "bandwidth": "nan"}}, "bandwidth"),
    ):
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match):
            load_model(path)


def test_integer_inputs_are_checked_not_truncated(tmp_path):
    """Inducing indices, saved artifacts and integer config values take ints or
    integral floats only: a fractional value or a bool raises ``ValueError``
    naming the input instead of being truncated to an int."""
    from nystrom_krr.experiments import config_from_dict
    from nystrom_krr.linalg import check_integer

    assert check_integer(np.int64(3), "k") == 3 and check_integer(64.0, "k") == 64
    for bad in (True, np.bool_(False), 64.9, float("nan"), float("inf"), "64", None, [64]):
        with pytest.raises(ValueError, match="k must be an integer"):
            check_integer(bad, "k")

    kernel = KernelSpec.gaussian(0.5)
    data = _dataset(np.linspace(0.0, 1.0, 5), np.ones(5))
    assert fit_nystrom(kernel, data, 0.1, [0.0, 2.0]).inducing_indices.tolist() == [0, 2]
    for bad, match in (
        ([0.9, 2.7], "integer"),
        ([True, False], "integer"),
        ([[1], [4]], "1-D"),
        ([-1, 2], "out of range"),
    ):
        with pytest.raises(ValueError, match=match):
            fit_nystrom(kernel, data, 0.1, bad)

    base = {
        "format": "nystrom-krr-model",
        "version": 2,
        "kernel": {"variant": "gaussian", "bandwidth": 0.1},
        "lambda": 0.1,
        "inducing_indices": [1, 4],
        "inducing_xs": [0.1, 0.5],
        "alpha": [1.0, 0.0],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(base))
    assert load_model(path).inducing_indices.tolist() == [1, 4]
    for key, bad, match in (
        ("inducing_indices", [1.5, -4.2], "integer"),
        ("inducing_indices", [[1], [4]], "1-D"),
        ("inducing_indices", [1, -4], "out of range"),
        ("inducing_indices", [True, False], "integer"),
        ("lambda", -3.0, "lambda"),
        ("lambda", 0.0, "lambda"),
        ("lambda", "0.1", "lambda must be a number"),
        ("lambda", True, "lambda must be a number"),
        ("kernel", {"variant": "gaussian", "bandwidth": True}, "kernel.bandwidth"),
    ):
        path.write_text(json.dumps({**base, key: bad}))
        with pytest.raises(ValueError, match=match):
            load_model(path)

    raw = {
        "kernel": {"variant": "designed_spectral", "s": 0.5, "truncation": 64},
        "target": {"family": "holder", "r": 0.25},
        "noise": {"variant": "gaussian", "scale": 0.1},
        "n_grid": [100, 200, 400],
    }
    config = config_from_dict({**raw, "repetitions": 2.0, "seed": 5})
    assert (config.kernel.truncation, config.repetitions, config.seed) == (64, 2, 5)
    for override, name in (
        ({"kernel": {**raw["kernel"], "truncation": 64.9}}, "kernel.truncation"),
        ({"n_grid": [100.7, 200.2, 400.9]}, "'n_grid'"),
        ({"repetitions": 2.9}, "'repetitions'"),
        ({"seed": True}, "'seed'"),
        ({"seed": [1, 2]}, "'seed'"),
        ({"repetitions": [2]}, "'repetitions'"),
        ({"kernel": {**raw["kernel"], "truncation": [64]}}, "kernel.truncation"),
        ({"n_grid": [100, True, 400]}, "'n_grid'"),
        ({"target": {**raw["target"], "coeff_seed": 1.5}}, "'target.coeff_seed'"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            config_from_dict({**raw, **override})


def test_inducing_indices_reject_bool_in_list(tmp_path):
    """A bool inside a list or tuple of ints is rejected like a bool array,
    by ``fit_nystrom`` and by ``load_model``, instead of being read as 0 or 1."""
    kernel = KernelSpec.gaussian(0.5)
    data = _dataset(np.linspace(0.0, 1.0, 5), np.ones(5))
    for bad in ([0, True], (2, np.bool_(False)), [1.0, True]):
        with pytest.raises(ValueError, match="integers, not bools"):
            nystrom._inducing_indices(bad, 5)
        with pytest.raises(ValueError, match="integers, not bools"):
            fit_nystrom(kernel, data, 0.1, bad)
    assert nystrom._inducing_indices((0, np.int64(3)), 5).tolist() == [0, 3]

    payload = {
        "format": "nystrom-krr-model",
        "version": 2,
        "kernel": {"variant": "gaussian", "bandwidth": 0.1},
        "lambda": 0.1,
        "inducing_indices": [0, True],
        "inducing_xs": [0.1, 0.5],
        "alpha": [1.0, 0.0],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="integers, not bools"):
        load_model(path)
