import numpy as np
import pytest
import scipy.linalg as sla

from nystrom_krr import diagnostics
from nystrom_krr.diagnostics import (
    CSV_FIELDS,
    check_concentration,
    check_norm_equivalence,
    check_projection_bound,
    check_smoothness_perturbation,
    report_rows,
)
from nystrom_krr.experiments import ExperimentConfig, LambdaPolicy, run_diagnostics, write_rows
from nystrom_krr.kernels import DecaySpec, KernelSpec, sections
from nystrom_krr.nystrom import SizeRuleParams, subsample_size
from nystrom_krr.spectral import IndexFunction, analytic_profile, lambda0
from nystrom_krr.synthetic import NoiseSpec, TargetSpec

DECAY = DecaySpec(0.5)


def test_projection_bound_single_inducing_point():
    # m = 1 with lambda >= mu_1 / 3: the residual norm is at most mu_1, so
    # the 3-lambda threshold cannot be crossed
    report = check_projection_bound(
        DECAY, truncation=16, n=50, m=1, lam=0.5, delta=0.1, trials=20, seed=0
    )
    assert report.violation_rate == 0.0
    assert report.warnings  # m = 1 is far below the rule size


def test_projection_bound_rule_sized():
    decay, truncation, n = DECAY, 64, 512
    lam = lambda0(analytic_profile(decay, truncation), n)
    from nystrom_krr.nystrom import SizeRuleParams, subsample_size

    m = subsample_size(n, lam, SizeRuleParams(), kernel=KernelSpec.designed(decay.s, truncation))
    report = check_projection_bound(decay, truncation, n, m, lam, 0.1, trials=60, seed=1)
    assert not report.warnings
    assert report.violation_rate <= 0.1 + 2.0 * np.sqrt(0.1 / 60)


def test_projection_bound_full_rank_subsample():
    # m = n = 40 distinct points spanning a 16-dim basis: the projector is
    # (numerically) the identity on the span and the residual vanishes
    report = check_projection_bound(
        DECAY, truncation=16, n=40, m=40, lam=0.3, delta=0.1, trials=10, seed=2
    )
    assert report.violation_rate == 0.0
    assert report.observed_max_ratio < 1e-6


def _projection_residual(mu, q):
    """The direct formula ``||M^(1/2) (I - Q Q^T)||^2``: an SVD norm."""
    return np.linalg.norm(np.sqrt(mu)[:, None] * (np.eye(mu.size) - q @ q.T), 2) ** 2


def test_projection_complement_matches_direct_formula():
    """The projection's left-hand side, the largest eigenvalue of the
    (T - m)-square ``B^T B`` (0 at m >= T), equals the SVD norm of
    ``M^(1/2) (I - P)`` at m = T - 1, T and T + 3, to 1e-10 relative with a
    floor of 1e-12 ||M|| (the direct formula is round-off at m >= T). With an
    inducing point repeated, P is the projector onto the economic Q's columns,
    one of them set by round-off; ``B`` is that Q's complement, so the two
    still agree."""
    truncation, lam = 24, 0.05
    mu = DECAY.eigenvalues(truncation)
    for m in (truncation - 1, truncation, truncation + 3):
        (ss,) = np.random.SeedSequence(m).spawn(1)
        rng = np.random.default_rng(ss)
        xs = rng.uniform(0.0, 1.0, 2 * m)
        q, _ = np.linalg.qr(sections(xs[rng.choice(2 * m, size=m, replace=False)], mu).T)
        report = check_projection_bound(DECAY, truncation, 2 * m, m, lam, 0.1, 1, m)
        direct = _projection_residual(mu, q)
        assert abs(3.0 * lam * report.observed_max_ratio - direct) <= 1e-10 * direct + 1e-12 * mu[0]
        assert (report.observed_max_ratio == 0.0) == (m >= truncation), m

    check = diagnostics._projection(mu=mu, lam=lam)
    for m in (5, truncation - 1):
        draw = diagnostics._Draw(np.random.default_rng(m), 40, m, mu)
        draw.idx[-1] = draw.idx[0]
        q, _ = sla.qr(sections(draw.xs[draw.idx], mu).T, mode="economic")
        direct = _projection_residual(mu, q)
        assert abs(check.lhs(draw) - direct) <= 1e-10 * direct + 1e-12 * mu[0], m


def test_draw_v_is_the_economic_qr_bit_for_bit():
    """``V`` from the raw QR's reflectors is bit for bit ``sqrt(mu) Q`` with Q
    the economic factor of ``sla.qr`` (m < T, m = T, m > T), so the smoothness
    check reads the same V as when it took that QR itself."""
    truncation = 40
    mu = DECAY.eigenvalues(truncation)
    for m in (17, truncation, truncation + 9):
        draw = diagnostics._Draw(np.random.default_rng(m), 3 * m, m, mu)
        q, _ = sla.qr(sections(draw.xs[draw.idx], mu).T, mode="economic", check_finite=False)
        assert np.array_equal(draw.v, np.sqrt(mu)[:, None] * q), m
        assert draw.perp.shape == (truncation, max(truncation - m, 0)), m


def test_norm_equivalence_population_limit():
    report = check_norm_equivalence(DECAY, truncation=16, n=100_000, lam=0.01, delta=0.1, trials=5, seed=3)
    assert report.violation_rate == 0.0
    # norm should sit near 1 in the large-n limit
    assert report.observed_max_ratio < 0.75


def test_norm_equivalence_rule_scale_settings():
    decay, truncation, n = DECAY, 256, 2048
    lam = lambda0(analytic_profile(decay, truncation), n)
    report = check_norm_equivalence(decay, truncation, n, lam, 0.1, trials=100, seed=21)
    assert report.violation_rate <= 0.1 + 2.0 * np.sqrt(0.1 / 100)


def test_norm_equivalence_shift_dominance():
    report = check_norm_equivalence(DECAY, truncation=32, n=50, lam=50.0, delta=0.1, trials=5, seed=4)
    assert report.violation_rate == 0.0


def test_concentration_operator_shrinks_with_n():
    decay, truncation = DECAY, 8
    lam = 0.05
    meds = []
    for n in (1_000, 10_000, 100_000):
        report = check_concentration(decay, truncation, n, lam, trials=30, seed=5, which="operator")
        meds.append(report.quantile_ratio)
    # the rate factor already carries 1/sqrt(n), so the normalized quantile
    # should be roughly flat; the raw quantiles shrink like 1/sqrt(n)
    assert max(meds) / min(meds) < 3.0


def test_concentration_quantile_stable_across_lambda():
    from nystrom_krr.spectral import analytic_profile, lambda0

    truncation, n = 16, 2000
    lam0 = lambda0(analytic_profile(DECAY, truncation), n)
    ratios = []
    for lam in (lam0 / 4.0, lam0, 4.0 * lam0):
        report = check_concentration(DECAY, truncation, n, lam, trials=40, seed=12, which="operator")
        ratios.append(report.quantile_ratio)
    assert max(ratios) / min(ratios) < 3.0


def test_concentration_vector_with_target_and_noise():
    from nystrom_krr.spectral import IndexFunction as IF
    from nystrom_krr.synthetic import make_target

    target = make_target(DECAY, 16, IF.holder(0.25), seed=2)
    report = check_concentration(
        DECAY,
        16,
        n=500,
        lam=0.05,
        trials=20,
        seed=13,
        which="vector",
        target=target,
        noise=NoiseSpec.gaussian(0.2),
    )
    assert report.quantile_ratio is not None and report.quantile_ratio > 0.0
    assert np.isfinite(report.observed_max_ratio)


def test_concentration_vector_zero_target_noiseless():
    truncation = 8
    zero_target = TargetSpec(
        phi=IndexFunction.holder(0.5),
        coeff_seed=0,
        profile="sphere",
        v_coefficients=np.zeros(truncation),
        f_coefficients=np.zeros(truncation),
    )
    report = check_concentration(
        DECAY,
        truncation,
        n=200,
        lam=0.1,
        trials=10,
        seed=6,
        which="vector",
        target=zero_target,
        noise=NoiseSpec.uniform_bounded(0.0),
    )
    assert report.observed_max_ratio == 0.0


def test_concentration_validation():
    with pytest.raises(ValueError):
        check_concentration(DECAY, 8, 100, 0.1, trials=5, seed=0, which="both")
    with pytest.raises(ValueError):
        check_concentration(DECAY, 8, 100, 0.1, trials=5, seed=0, which="vector")
    # a target of another truncation is refused before the first trial
    from nystrom_krr.synthetic import make_target

    target = make_target(DECAY, 16, IndexFunction.holder(0.25), seed=2)
    noise = NoiseSpec.gaussian(0.1)
    with pytest.raises(ValueError, match="truncation does not match"):
        check_concentration(DECAY, 8, 100, 0.1, 5, 0, "vector", target, noise)


def test_smoothness_perturbation_identity_projector():
    # n = m with many distinct points spanning the 8-dim basis: P = I and the
    # operator difference vanishes
    report = check_smoothness_perturbation(
        DECAY, truncation=8, n=30, m=30, lam=0.1, phi=IndexFunction.holder(0.5), trials=8, seed=7
    )
    assert report.observed_max_ratio < 1e-6


def test_smoothness_perturbation_rule_sized_finite():
    decay, truncation, n = DECAY, 32, 256
    lam = lambda0(analytic_profile(decay, truncation), n)
    from nystrom_krr.nystrom import SizeRuleParams, subsample_size

    m = subsample_size(n, lam, SizeRuleParams(), kernel=KernelSpec.designed(decay.s, truncation))
    report = check_smoothness_perturbation(
        decay, truncation, n, m, lam, IndexFunction.holder(0.5), trials=30, seed=8
    )
    assert np.isfinite(report.quantile_ratio)
    assert report.quantile_ratio > 0.0


def test_smoothness_perturbation_rejects_log_type():
    with pytest.raises(NotImplementedError):
        check_smoothness_perturbation(
            DECAY, 8, 30, 10, 0.1, IndexFunction.log_type(0.5), trials=2, seed=0
        )


def test_reports_deterministic_and_csv(tmp_path):
    kwargs = dict(decay=DECAY, truncation=16, n=128, m=20, lam=0.05, delta=0.1, trials=10, seed=9)
    a = check_projection_bound(**kwargs)
    b = check_projection_bound(**kwargs)
    assert a.violation_rate == b.violation_rate
    assert a.observed_max_ratio == b.observed_max_ratio

    path = tmp_path / "reports.csv"
    write_rows(path, CSV_FIELDS, report_rows([a]))
    text = path.read_text()
    assert "np.float" not in text  # plain scalars only
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("bound_name,")
    assert lines[1].startswith("projection,128,20,")


def test_checks_reject_bad_settings():
    """lambda, delta, T, n, m and trials pass one input check in all four
    checks: a NaN lambda, a delta outside (0, 1), no trials, m > n, a fraction
    or a bool is a ``ValueError`` naming the input, not an SVD, division,
    quantile or sampling error."""
    phi = IndexFunction.holder(0.5)
    checks = {
        "projection": lambda **kw: check_projection_bound(
            DECAY, kw["T"], kw["n"], kw["m"], kw["lam"], kw["delta"], kw["trials"], 0
        ),
        "smoothness": lambda **kw: check_smoothness_perturbation(
            DECAY, kw["T"], kw["n"], kw["m"], kw["lam"], phi, kw["trials"], 0, kw["delta"]
        ),
        "norm_equivalence": lambda **kw: check_norm_equivalence(
            DECAY, kw["T"], kw["n"], kw["lam"], kw["delta"], kw["trials"], 0
        ),
        "concentration": lambda **kw: check_concentration(
            DECAY, kw["T"], kw["n"], kw["lam"], kw["trials"], 0, delta=kw["delta"]
        ),
    }
    good = dict(T=16, n=50, m=5, lam=0.1, delta=0.1, trials=3)
    bad_cases = [
        ({"lam": float("nan")}, "lambda must be finite and positive"),
        ({"lam": 0.0}, "lambda must be finite and positive"),
        ({"trials": 0}, "trials must be >= 1"),
        ({"trials": 2.5}, "trials must be an integer"),
        ({"T": 16.5}, "truncation must be an integer"),
        ({"n": True}, "n must be an integer"),
        ({"n": 0}, "n must be >= 1"),
        ({"m": 51}, "m=51 exceeds the sample size n=50"),
        ({"m": 0}, "m must be >= 1"),
        *[
            ({"delta": delta}, r"delta must be in \(0, 1\)")
            for delta in (0.0, 1.0, 1.5, float("nan"))
        ],
    ]
    for name, check in checks.items():
        base = check(**good)
        # integral floats are accepted as their int
        same = check(**{**good, "T": 16.0, "n": 50.0, "m": 5.0, "trials": 3.0})
        assert same.observed_max_ratio == base.observed_max_ratio, name
        for override, match in bad_cases:
            if "m" in override and name not in ("projection", "smoothness"):
                continue  # these two draw no subsample
            with pytest.raises(ValueError, match=match):
                check(**{**good, **override})


def test_smoothness_matches_rank_truncated_reference():
    """At the README diagnostics settings (T=256, n=2048, rule-sized m with
    c=1) and phi = t^0.25, the check equals the direct formula on the rank-m
    spectrum of M_P: eigh with eigenvectors of the T x T matrix, its T - m
    round-off eigenvalues set to zero, and the SVD norm of the difference."""
    decay, truncation, n, delta, trials, seed = DECAY, 256, 2048, 0.1, 12, 31415
    phi = IndexFunction.holder(0.25)
    lam = lambda0(analytic_profile(decay, truncation), n)
    kernel = KernelSpec.designed(decay.s, truncation)
    m = subsample_size(n, lam, SizeRuleParams(c=1.0, delta=delta), kernel=kernel)
    report = check_smoothness_perturbation(decay, truncation, n, m, lam, phi, trials, seed, delta)

    mu = decay.eigenvalues(truncation)
    root = np.sqrt(mu)
    ratios = []
    for ss in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(ss)
        xs = rng.uniform(0.0, 1.0, n)
        idx = rng.choice(n, size=m, replace=False)
        q, _ = np.linalg.qr(sections(xs[idx], mu).T)
        evals, evecs = np.linalg.eigh(root[:, None] * (q @ q.T) * root[None, :])
        evals[: truncation - min(m, truncation)] = 0.0
        phi_mp = (evecs * phi(np.clip(evals, 0.0, None))) @ evecs.T
        ratios.append(np.linalg.norm(np.diag(phi(mu)) - phi_mp, 2) / phi(lam))
    assert m < truncation
    assert report.observed_max_ratio == pytest.approx(max(ratios), rel=1e-10, abs=0.0)
    assert report.quantile_ratio == pytest.approx(
        np.quantile(ratios, 1.0 - delta), rel=1e-10, abs=0.0
    )


def _diagnostics_config(phi, trials):
    return ExperimentConfig(
        kernel=KernelSpec.designed(DECAY.s, 64),
        phi=phi,
        target_profile="power_boundary",
        coeff_seed=7,
        noise=NoiseSpec.gaussian(0.1),
        n_grid=[256],
        repetitions=1,
        seed=17,
        size_rule=SizeRuleParams(),
        lambda_policy=LambdaPolicy("lambda0"),
        diagnostics={"T": 32, "n": 256, "trials": trials, "delta": 0.2},
    )


def test_run_diagnostics_equals_separate_checks():
    """One draw per trial shared by the four checks gives, field by field, the
    reports of four separate calls, which each draw the trial on their own. A
    log_type target falls back to holder(0.5) for the smoothness check."""
    truncation, n, trials, delta, seed = 32, 256, 10, 0.2, 17
    lam = lambda0(analytic_profile(DECAY, truncation), n)
    kernel = KernelSpec.designed(DECAY.s, truncation)
    m = subsample_size(n, lam, SizeRuleParams(c=1.0, delta=delta), kernel=kernel)
    for phi, smooth_phi in [
        (IndexFunction.holder(0.25), IndexFunction.holder(0.25)),
        (IndexFunction.log_type(0.5), IndexFunction.holder(0.5)),
    ]:
        reports, _, _ = run_diagnostics(_diagnostics_config(phi, trials))
        separate = [
            check_projection_bound(DECAY, truncation, n, m, lam, delta, trials, seed),
            check_norm_equivalence(DECAY, truncation, n, lam, delta, trials, seed),
            check_concentration(DECAY, truncation, n, lam, trials, seed, delta=delta),
            check_smoothness_perturbation(
                DECAY, truncation, n, m, lam, smooth_phi, trials, seed, delta
            ),
        ]
        assert len(reports) == len(separate) == 4
        for joint, alone in zip(reports, separate):
            assert vars(joint) == vars(alone), alone.bound_name


def test_diagnostics_summary_names_a_substituted_phi():
    """A log_type target's summary is that of holder(0.5), which its smoothness
    row checks, and one line that says so; a Hoelder target's summary is the
    four check lines alone."""
    _, holder, _ = run_diagnostics(_diagnostics_config(IndexFunction.holder(0.5), 2))
    _, log_type, _ = run_diagnostics(_diagnostics_config(IndexFunction.log_type(0.5), 2))
    assert len(holder) == 4 and log_type[:4] == holder[:4] and log_type[4:] == [
        "smoothness_perturbation checked phi holder r=0.5 in place of the configured "
        "log_type r=0.5"
    ]


def test_run_diagnostics_builds_each_trial_once(monkeypatch, tmp_path):
    """A run of k trials builds k empirical covariances and k QRs of the
    inducing sections: each trial's draw is shared by the four checks. The
    trials may run in forked processes, so every call appends its name to one
    file, which counts the calls of all of them."""
    log = tmp_path / "calls"

    def counted(name, func):
        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(name + "\n")
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(diagnostics, "covariance", counted("covariance", diagnostics.covariance))
    monkeypatch.setattr(diagnostics.sla, "qr", counted("qr", diagnostics.sla.qr))
    trials = 7
    run_diagnostics(_diagnostics_config(IndexFunction.holder(0.25), trials))
    calls = log.read_text().split()
    assert {name: calls.count(name) for name in set(calls)} == {"covariance": trials, "qr": trials}
