"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The heavy sweeps (criteria 3, 4, 7) dominate the runtime;
the whole suite stays within the stated per-criterion budgets.
"""

import math
import time

import numpy as np

from nystrom_krr import experiments as exp
from nystrom_krr import krr, nystrom
from nystrom_krr.diagnostics import check_concentration, check_projection_bound
from nystrom_krr.kernels import DecaySpec, KernelSpec
from nystrom_krr.nystrom import SizeRuleParams, subsample_plain, subsample_size
from nystrom_krr.spectral import (
    IndexFunction,
    SpectralProfile,
    analytic_profile,
    c_gamma_for_designed,
    effective_dimension,
    empirical_profile,
    lambda0,
    n_infinity,
    qualification_margin,
)
from nystrom_krr.synthetic import Dataset, NoiseSpec, hk_norm_proxy, make_target


def _report(criterion, ok, detail, budget_s, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({detail}) [{elapsed:.1f}s / budget {budget_s}s]")
    return ok and elapsed < budget_s


def test_criterion_1_full_subsample_equivalence():
    """Nystrom with every training point as inducing point reproduces full
    ridge regression on held-out predictions to 1e-8 relative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = np.linspace(0.0, 1.0, 97)
    worst = 0.0
    for inst in range(50):
        if inst % 2:
            kernel = KernelSpec.designed(float(rng.choice([0.4, 0.5, 0.8])), 512)
        else:
            kernel = KernelSpec.gaussian(float(rng.uniform(0.2, 2.0)))
        n = int(rng.integers(5, 201))
        lam = float(10 ** rng.uniform(-2, 0))
        data = Dataset(xs=rng.uniform(0.0, 1.0, n), ys=rng.standard_normal(n))
        base = krr.predict(krr.fit_krr(kernel, data, lam), kernel, grid)
        model = nystrom.fit_nystrom(kernel, data, lam, subsample_plain(n, n, seed=inst))
        rel = np.linalg.norm(nystrom.predict(model, kernel, grid) - base) / np.linalg.norm(base)
        worst = max(worst, rel)
    ok = worst <= 1e-8
    assert _report(1, ok, f"worst relative mismatch {worst:.2e} over 50 instances",
                   10, time.perf_counter() - t0)


def test_criterion_2_lambda0_sandwich():
    """Grid minimum of the bound factor lies in [phi(lambda0), 2 phi(lambda0)]
    for 5 spectral profiles x 4 smoothness functions x 3 sample sizes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    profiles = [
        analytic_profile(DecaySpec(0.3), 2048),
        analytic_profile(DecaySpec(0.5), 2048),
        analytic_profile(DecaySpec(0.8), 2048),
        SpectralProfile(0.5 ** np.arange(1, 41), "analytic"),
        empirical_profile(KernelSpec.designed(0.5, 512), rng.uniform(0.0, 1.0, 512)),
    ]
    phis = [
        IndexFunction.holder(0.1),
        IndexFunction.holder(0.25),
        IndexFunction.holder(0.5),
        IndexFunction.log_type(0.5),
    ]
    worst_low, worst_high = np.inf, -np.inf
    checks = 0
    for profile in profiles:
        eig = profile.eigenvalues
        for n in (100, 10_000, 1_000_000):
            lam0 = lambda0(profile, n)
            lams = np.concatenate(
                [np.logspace(-8, math.log10(profile.top), 2000), [lam0]]
            )
            cap = np.sum(eig[None, :] / (eig[None, :] + lams[:, None]), axis=1)
            root = np.sqrt(cap / (n * lams))
            for phi in phis:
                vals = phi(lams) * (1.0 + root)
                best = float(vals.min())
                low, high = best / phi(lam0), best / (2.0 * phi(lam0))
                worst_low, worst_high = min(worst_low, low), max(worst_high, high)
                checks += 1
    ok = worst_low >= 1.0 - 1e-6 and worst_high <= 1.0 + 1e-6
    assert _report(
        2,
        ok,
        f"{checks} combos, min ratio above phi(lambda0): {worst_low:.6f}, "
        f"max ratio against 2 phi(lambda0): {worst_high:.6f}",
        30,
        time.perf_counter() - t0,
    )


def test_criterion_3_rate_reproduction():
    """Fitted learning-rate exponent matches -r/(s+1) = -1/6 within 0.15 with
    r^2 >= 0.9, for the boundary-profile target under the a-priori lambda and
    the rule-sized subsample."""
    t0 = time.perf_counter()
    config = exp.ExperimentConfig(
        kernel=KernelSpec.designed(0.5, 2048),
        phi=IndexFunction.holder(0.25),
        target_profile="power_boundary",
        coeff_seed=7,
        noise=NoiseSpec.gaussian(0.1),
        n_grid=[256, 512, 1024, 2048, 4096, 8192, 16384],
        repetitions=20,
        seed=31415,
        size_rule=SizeRuleParams(c=2.0, delta=0.1),
        lambda_policy=exp.LambdaPolicy("lambda0"),
    )
    fit, rows, timing, summary, _ = exp.run_rate_sweep(config)
    expected = -0.25 / 1.5
    ok = abs(fit.exponent - expected) <= 0.15 and fit.r_squared >= 0.9
    assert _report(
        3,
        ok,
        f"exponent {fit.exponent:.4f} vs {expected:.4f} +- 0.15, r^2 {fit.r_squared:.4f}",
        900,
        time.perf_counter() - t0,
    )


def test_criterion_4_subquadratic_cost():
    """Fitted flop exponent under the power-envelope size rule stays below 1.8
    and within 0.2 of (3 + s - 2 gamma)/(1 + s) = 4/3."""
    t0 = time.perf_counter()
    config = exp.ExperimentConfig(
        kernel=KernelSpec.designed(0.5, 2048),
        phi=IndexFunction.holder(0.25),
        target_profile="power_boundary",
        coeff_seed=7,
        noise=NoiseSpec.gaussian(0.1),
        n_grid=[1024, 2048, 4096, 8192, 16384, 32768],
        repetitions=1,
        seed=271828,
        size_rule=SizeRuleParams(c=1.0, delta=0.1),
        lambda_policy=exp.LambdaPolicy("lambda0"),
        gamma=0.75,
    )
    slope, predicted, rows, timing, summary, _ = exp.run_cost_sweep(config)
    ok = slope < 1.8 and abs(slope - predicted) <= 0.2
    assert _report(
        4,
        ok,
        f"flop exponent {slope:.4f} vs predicted {predicted:.4f} +- 0.2 and < 1.8",
        600,
        time.perf_counter() - t0,
    )


def test_criterion_5_power_envelope_at_gamma_one():
    """gamma = 1 with the zeta-series constant: the constant envelope
    c_gamma^2 * lambda^0 is asserted against the computed sup across a 50-point
    log grid.

    The first clause (the grid-validated constant stays within pi^2/3) holds.
    The second cannot: this spectrum's sup grows like lambda**-1/2 as lambda
    decreases (its feasible envelope exponents stop at gamma = 1/2), so a
    lambda-independent bound fails on any grid reaching small lambda. The
    assertion is kept as stated rather than weakened; see the repository notes
    for the analysis. Expected FAIL.
    """
    t0 = time.perf_counter()
    decay, truncation, gamma = DecaySpec(0.5), 2048, 1.0
    kernel = KernelSpec.designed(0.5, truncation)
    bound = c_gamma_for_designed(decay, truncation, gamma)
    clause_constant = bound.c_gamma**2 <= math.pi**2 / 3.0 + 1e-9
    lams = np.logspace(-6, 0, 50)
    sups = np.array([n_infinity(kernel, lam) for lam in lams])
    envelope = bound.c_gamma**2 * lams ** (gamma - 1.0)
    clause_envelope = bool(np.all(sups <= envelope * (1.0 + 1e-9)))
    ok = clause_constant and clause_envelope
    _report(
        5,
        ok,
        f"c_gamma^2 {bound.c_gamma**2:.4f} <= pi^2/3 {math.pi**2 / 3.0:.4f}: "
        f"{clause_constant}; envelope holds on grid: {clause_envelope} "
        f"(max excess ratio {float((sups / envelope).max()):.1f})",
        30,
        time.perf_counter() - t0,
    )
    assert clause_constant
    assert clause_envelope  # documented expected failure


def test_criterion_6_qualification_suite():
    """Residual-filter qualification margins: <= 1 at q = 0 and <= 2 for
    q in {0.25, 0.5}, across both smoothness families and lambda in
    [1e-8, 1] with a 10^4-point t-grid."""
    t0 = time.perf_counter()
    t_grid = np.logspace(-10, 0, 10_000)
    phis = [IndexFunction.holder(0.25), IndexFunction.holder(0.5), IndexFunction.log_type(0.5)]
    worst = {0.0: 0.0, 0.25: 0.0, 0.5: 0.0}
    for phi in phis:
        for lam in np.logspace(-8, 0, 17):
            for q in (0.0, 0.25, 0.5):
                margin = qualification_margin(phi, lam, q, np.concatenate([t_grid, [lam]]))
                worst[q] = max(worst[q], margin)
    ok = worst[0.0] <= 1.0 + 1e-9 and worst[0.25] <= 2.0 and worst[0.5] <= 2.0
    assert _report(
        6,
        ok,
        f"worst margins: q=0 {worst[0.0]:.4f} (<=1), "
        f"q=0.25 {worst[0.25]:.4f}, q=0.5 {worst[0.5]:.4f} (<=2)",
        10,
        time.perf_counter() - t0,
    )


def test_criterion_7_probabilistic_bounds():
    """Projection bound violation rate stays within delta + slack at the
    rule-sized subsample; the covariance concentration shrinks like
    n**-1/2 (log-log slope -0.5 +- 0.1)."""
    t0 = time.perf_counter()
    decay, truncation, n = DecaySpec(0.5), 256, 2048
    profile = analytic_profile(decay, truncation)
    lam = lambda0(profile, n)
    m = subsample_size(
        n, lam, SizeRuleParams(c=1.0, delta=0.1), kernel=KernelSpec.designed(decay.s, truncation)
    )
    report = check_projection_bound(decay, truncation, n, m, lam, 0.1, trials=200, seed=99)
    ok_proj = report.violation_rate <= 0.15 and not report.warnings

    meds = []
    ns = (1_000, 10_000, 100_000)
    for n_c in ns:
        conc = check_concentration(
            decay, 8, n_c, 0.05, trials=100, seed=1234, which="operator"
        )
        # recover the raw median lhs from the normalized quantile field:
        # simpler to recompute the rate factor
        rate = math.log(10.0) * math.sqrt(
            effective_dimension(analytic_profile(decay, 8), 0.05) / n_c
        )
        meds.append(conc.quantile_ratio * rate)
    slope_fit = exp.fit_loglog(ns, meds)
    ok_slope = abs(slope_fit.exponent + 0.5) <= 0.1
    ok = ok_proj and ok_slope
    assert _report(
        7,
        ok,
        f"projection violations {report.violation_rate:.3f} (<=0.15, m={m}); "
        f"concentration slope {slope_fit.exponent:.3f} (-0.5 +- 0.1)",
        300,
        time.perf_counter() - t0,
    )


def test_criterion_8_empirical_effective_dimension():
    """Effective dimension from Gram eigenvalues at n = 4096 tracks the
    analytic value within 10 percent for all lambda >= lambda0."""
    t0 = time.perf_counter()
    truncation = 2048
    kernel = KernelSpec.designed(0.5, truncation)
    analytic = analytic_profile(DecaySpec(0.5), truncation)
    rng = np.random.default_rng(808)
    emp = empirical_profile(kernel, rng.uniform(0.0, 1.0, 4096))
    lam0 = lambda0(analytic, 4096)
    worst = 0.0
    for lam in np.logspace(math.log10(lam0), 0, 25):
        a = effective_dimension(analytic, lam)
        e = effective_dimension(emp, lam)
        worst = max(worst, abs(e - a) / a)
    ok = worst <= 0.10
    assert _report(
        8,
        ok,
        f"worst relative deviation {worst:.4f} for lambda >= lambda0 = {lam0:.5f}",
        60,
        time.perf_counter() - t0,
    )


def test_criterion_9_misspecification_witness():
    """The RKHS-norm proxy grows at every truncation doubling for r = 0.25
    (outside the space) and stays at most 1 for r = 0.5 (boundary)."""
    t0 = time.perf_counter()
    decay = DecaySpec(0.5)
    doublings = (128, 256, 512, 1024, 2048)
    medians = []
    for truncation in doublings:
        vals = [
            hk_norm_proxy(
                make_target(decay, truncation, IndexFunction.holder(0.25), seed=s), decay
            )
            for s in range(20)
        ]
        medians.append(float(np.median(vals)))
    grows = all(b > a for a, b in zip(medians, medians[1:]))
    bounded = all(
        hk_norm_proxy(make_target(decay, t, IndexFunction.holder(0.5), seed=s), decay)
        <= 1.0 + 1e-9
        for t in doublings
        for s in range(20)
    )
    ok = grows and bounded
    assert _report(
        9,
        ok,
        f"r=0.25 proxy medians {['%.1f' % m for m in medians]} strictly growing: {grows}; "
        f"r=0.5 bounded by 1: {bounded}",
        10,
        time.perf_counter() - t0,
    )
