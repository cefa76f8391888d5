"""The three benchmark workloads: set-up, one op, and the outputs the oracle checks.

Every op draws its inputs from a fixed pool of ``POOL_SIZE`` cases per
workload. Case ``i`` is a pure function of ``(workload tag, i)``, so the
reference outputs committed in ``reference.json`` cover every op any seed can
produce; the benchmark seed only picks the order in which a run visits the
pool (see ``case_order``).

All designed-kernel ops use the criterion-3 settings: s=0.5, T=2048, a
``power_boundary`` target with Hoelder r=0.25, Gaussian noise 0.1, the
a-priori ``lambda0`` and the size rule c=2, delta=0.1.

Calls into the package go through module attributes (``nystrom.fit_nystrom``
and so on) at call time, so the tracer in ``layertrace.py`` sees them when it
swaps those attributes for timed wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nystrom_krr import experiments, krr, kernels, nystrom, spectral, synthetic

POOL_SIZE = 40

# Relative tolerance of the oracle on floating outputs. Going from 2 BLAS
# threads to 1 moved the exact L2 error of rate_cell_16k by up to 1.1e-6
# relative over its 40 cases (the worst case flips a Cholesky jitter
# escalation); lambda off by 0.1% moves it by 2.5e-4.
RTOL = 1e-5
# The smoothness-perturbation diagnostic raises round-off-level eigenvalues to
# the power r=0.25, which turns 1e-16 noise into ~4e-5 relative.
RTOL_BY_KEY = {"diagnostics": 1e-3}

S, T = 0.5, 2048
PHI = spectral.IndexFunction.holder(0.25)
NOISE = synthetic.NoiseSpec.gaussian(0.1)
RULE = nystrom.SizeRuleParams(c=2.0, delta=0.1)
COEFF_SEED = 7

RATE_N = 16384
README_N = 1024
DIAG = {"T": 256, "n": 2048, "trials": 12, "delta": 0.1}
GAUSS_N = 4096
GAUSS_BANDWIDTH = 0.1
# Near the plug-in lambda0 at n=4096; fixing it avoids an n x n eigensolve.
GAUSS_LAM = 2.5e-3
MC_DRAWS = 4096


def _designed():
    kernel = kernels.KernelSpec.designed(S, T)
    return kernel, kernel.decay


def _fixed_target(decay):
    return synthetic.make_target(decay, T, PHI, COEFF_SEED, profile=synthetic.POWER_BOUNDARY)


def _case_rng(tag: int, i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([tag, i]))


def _seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(v) for v in rng.integers(0, 2**62, size=k)]


# ---------------------------------------------------------------------------
# rate_cell_16k: one criterion-3 rate cell; n, lambda0, m and target shared
# ---------------------------------------------------------------------------


def rate_setup() -> dict:
    kernel, decay = _designed()
    lam = spectral.lambda0(spectral.analytic_profile(decay, T), RATE_N)
    m = nystrom.subsample_size(RATE_N, lam, RULE, kernel=kernel)
    return {"kernel": kernel, "decay": decay, "target": _fixed_target(decay), "lam": lam, "m": m}


def rate_case(i: int) -> dict:
    ds_seed, sub_seed = _seeds(_case_rng(1, i), 2)
    return {"ds_seed": ds_seed, "sub_seed": sub_seed}


def rate_op(ctx: dict, case: dict) -> dict:
    kernel, lam, m = ctx["kernel"], ctx["lam"], ctx["m"]
    data = synthetic.sample_dataset(ctx["decay"], T, ctx["target"], NOISE, RATE_N, case["ds_seed"])
    idx = nystrom.subsample_plain(RATE_N, m, case["sub_seed"])
    model = nystrom.fit_nystrom(kernel, data, lam, idx)
    err = synthetic.l2_rho_error(model, kernel, data)
    return {"error": err, "m": int(idx.size), "flops": int(model.opcount.flops)}


# ---------------------------------------------------------------------------
# verify_pass: one verification pass; ops share no computed input
# ---------------------------------------------------------------------------


def verify_setup() -> dict:
    kernel, decay = _designed()
    return {"kernel": kernel, "decay": decay}


def verify_case(i: int) -> dict:
    rng = _case_rng(2, i)
    coeff_seed, ds_seed, sub_seed, diag_seed = _seeds(rng, 4)
    return {
        "coeff_seed": coeff_seed,
        "ds_seed": ds_seed,
        "sub_seed": sub_seed,
        "diag_seed": diag_seed,
        # gamma and the grid offset vary per case so that no two ops of a
        # run repeat a spectral computation a memo cache could reuse.
        "gamma": float(rng.uniform(0.74, 0.76)),
        "grid_offset": float(rng.uniform(-0.5, 0.0)),
    }


def verify_op(ctx: dict, case: dict) -> dict:
    kernel, decay = ctx["kernel"], ctx["decay"]
    # README-API cell: lambda0, exact N_inf size rule, fit and exact error.
    target = synthetic.make_target(
        decay, T, PHI, case["coeff_seed"], profile=synthetic.POWER_BOUNDARY
    )
    data = synthetic.sample_dataset(decay, T, target, NOISE, README_N, case["ds_seed"])
    lam = spectral.lambda0(spectral.analytic_profile(decay, T), README_N)
    m = nystrom.subsample_size(README_N, lam, RULE, kernel=kernel)
    model = nystrom.fit_nystrom(
        kernel, data, lam, nystrom.subsample_plain(README_N, m, case["sub_seed"])
    )
    err = synthetic.l2_rho_error(model, kernel, data)

    c_gamma = spectral.c_gamma_for_designed(decay, T, case["gamma"]).c_gamma

    # Criterion-5 shape: N_inf over a 50-point log grid.
    off = case["grid_offset"]
    sups = [spectral.n_infinity(kernel, lam_k) for lam_k in np.logspace(-6 + off, off, 50)]

    config = experiments.ExperimentConfig(
        kernel=kernel,
        phi=PHI,
        target_profile=synthetic.POWER_BOUNDARY,
        coeff_seed=case["coeff_seed"],
        noise=NOISE,
        n_grid=[DIAG["n"]],
        repetitions=1,
        seed=case["diag_seed"],
        size_rule=RULE,
        lambda_policy=experiments.LambdaPolicy("lambda0"),
        diagnostics=dict(DIAG),
    )
    reports, _, _ = experiments.run_diagnostics(config)
    diag = [[r.violation_rate, r.observed_max_ratio, r.quantile_ratio] for r in reports]
    return {
        "error": err,
        "m": int(m),
        "flops": int(model.opcount.flops),
        "c_gamma": c_gamma,
        "n_inf": sups,
        "diagnostics": diag,
    }


# ---------------------------------------------------------------------------
# gaussian_rule_4k: plug-in size rule, Nystrom and full KRR, Monte-Carlo error
# ---------------------------------------------------------------------------


def gauss_setup() -> dict:
    _, decay = _designed()
    target = _fixed_target(decay)
    return {
        "kernel": kernels.KernelSpec.gaussian(GAUSS_BANDWIDTH),
        "decay": decay,
        "target": target,
        "f": lambda us: synthetic.target_values(target, us),
    }


def gauss_case(i: int) -> dict:
    ds_seed, sub_seed, mc_seed = _seeds(_case_rng(3, i), 3)
    return {"ds_seed": ds_seed, "sub_seed": sub_seed, "mc_seed": mc_seed}


def gauss_op(ctx: dict, case: dict) -> dict:
    kernel, f = ctx["kernel"], ctx["f"]
    data = synthetic.sample_dataset(ctx["decay"], T, ctx["target"], NOISE, GAUSS_N, case["ds_seed"])
    m = nystrom.subsample_size(GAUSS_N, GAUSS_LAM, RULE, kernel=kernel, xs=data.xs)
    nys = nystrom.fit_nystrom(
        kernel, data, GAUSS_LAM, nystrom.subsample_plain(GAUSS_N, m, case["sub_seed"])
    )
    base = krr.fit_krr(kernel, data, GAUSS_LAM)
    mc_nys = synthetic.monte_carlo_error(nys, kernel, f, MC_DRAWS, case["mc_seed"])
    mc_krr = synthetic.monte_carlo_error(base, kernel, f, MC_DRAWS, case["mc_seed"])
    return {
        "m": int(m),
        "flops": int(nys.opcount.flops),
        "krr_flops": int(base.opcount.flops),
        "mc_nystrom": mc_nys.value,
        "mc_krr": mc_krr.value,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], dict]
    case: Callable[[int], dict]
    op: Callable[[dict, dict], dict]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rate_cell_16k", rate_setup, rate_case, rate_op),
        Workload("verify_pass", verify_setup, verify_case, verify_op),
        Workload("gaussian_rule_4k", gauss_setup, gauss_case, gauss_op),
    )
}


def case_order(seed: int) -> list[int]:
    """The order in which a run with this seed visits the case pool."""
    return [int(i) for i in np.random.default_rng(seed).permutation(POOL_SIZE)]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _mismatches(path: str, got, want, rtol: float, out: list) -> None:
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{path}: shape differs from the reference")
            return
        for k, (g, w) in enumerate(zip(got, want)):
            _mismatches(f"{path}[{k}]", g, w, rtol, out)
    elif want is None or isinstance(want, int) and not isinstance(want, bool):
        if got != want:
            out.append(f"{path}: {got!r} != reference {want!r}")
    else:
        g = float(got)
        if not math.isfinite(g) or abs(g - want) > rtol * max(abs(g), abs(want)):
            out.append(f"{path}: {g!r} differs from reference {want!r} beyond rtol {rtol}")


def check(outputs: dict, reference: dict) -> list[str]:
    """Every way ``outputs`` misses ``reference``; empty when the op is correct."""
    out: list[str] = []
    if set(outputs) != set(reference):
        return [f"output keys {sorted(outputs)} != reference keys {sorted(reference)}"]
    for key in sorted(reference):
        _mismatches(key, outputs[key], reference[key], RTOL_BY_KEY.get(key, RTOL), out)
    return out
