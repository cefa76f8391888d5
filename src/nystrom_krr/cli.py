"""Command-line harness.

Subcommands: rate-sweep, cost-sweep, lambda-sweep, diagnostics, lambda0.
Each takes a JSON config (see README for the schema) and writes CSV results
plus a plain-text summary into the output directory.

Exit codes: 0 success, 2 a configured tolerance failed, 1 error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from . import experiments as exp
from .diagnostics import CSV_FIELDS, report_rows
from .linalg import NumericalError, check_count, check_seed
from .nystrom import subsample_size
from .spectral import analytic_profile, lambda0


def _add_common(parser):
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out-dir", default=None, help="override the output directory")
    parser.add_argument("--reps", type=int, default=None, help="override repetitions")
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="log to stderr from this level on; INFO shows each fit that keeps fewer "
        "directions than inducing points",
    )


def _load(args) -> exp.ExperimentConfig:
    config = exp.load_config(args.config)
    overrides = {} if args.out_dir is None else {"outputs": args.out_dir}
    if args.seed is not None:
        overrides["seed"] = check_seed(args.seed, "--seed")
    if args.reps is not None:
        overrides["repetitions"] = check_count(args.reps, "--reps")
    return replace(config, **overrides)


def _finish(config, name, fields, rows, summary, passed, timing=None) -> int:
    out = config.outputs
    os.makedirs(out, exist_ok=True)
    exp.write_rows(os.path.join(out, f"{name}.csv"), fields, rows)
    if timing is not None:
        exp.write_rows(os.path.join(out, f"{name}_timing.csv"), exp.TIMING_CSV_FIELDS, timing)
    exp.write_summary(os.path.join(out, f"{name}_summary.txt"), summary)
    for line in summary:
        print(line)
    return 0 if passed else 2


def cmd_rate_sweep(args) -> int:
    config = _load(args)
    fit, rows, timing, summary, passed = exp.run_rate_sweep(config)
    return _finish(config, "rate_sweep", exp.RATE_CSV_FIELDS, rows, summary, passed, timing)


def cmd_cost_sweep(args) -> int:
    config = _load(args)
    _, _, rows, timing, summary, passed = exp.run_cost_sweep(config)
    return _finish(config, "cost_sweep", exp.COST_CSV_FIELDS, rows, summary, passed, timing)


def cmd_lambda_sweep(args) -> int:
    config = _load(args)
    rows, summary, passed = exp.run_lambda_sensitivity(config)
    return _finish(config, "lambda_sweep", exp.LAMBDA_CSV_FIELDS, rows, summary, passed)


def cmd_diagnostics(args) -> int:
    config = _load(args)
    reports, summary, passed = exp.run_diagnostics(config)
    return _finish(config, "diagnostics", CSV_FIELDS, report_rows(reports), summary, passed)


def cmd_lambda0(args) -> int:
    config = _load(args)
    n = args.n
    profile = analytic_profile(config.kernel.decay, config.kernel.truncation)
    lam = lambda0(profile, n)
    m = subsample_size(n, lam, config.size_rule, kernel=config.kernel)
    print(f"n={n} lambda0={lam:.8g} m={m}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nystrom-krr",
        description="Nystrom kernel ridge regression sweeps and bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
        ("rate-sweep", cmd_rate_sweep, "error vs sample size, fits the rate exponent"),
        ("cost-sweep", cmd_cost_sweep, "flops vs sample size under the size rule"),
        ("lambda-sweep", cmd_lambda_sweep, "error across a lambda grid around lambda0"),
        ("diagnostics", cmd_diagnostics, "Monte-Carlo operator bound checks"),
        ("lambda0", cmd_lambda0, "print lambda0 and the rule subsample size"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(fn=fn)
    sub.choices["lambda0"].add_argument("--n", type=int, required=True, help="sample size")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
