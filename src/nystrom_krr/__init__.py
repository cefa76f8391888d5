"""Kernel ridge regression with plain Nystrom subsampling.

The package centers on a designed spectral kernel whose eigenpairs are known
in closed form, which makes effective dimensions, the a-priori regularization
parameter lambda0, subsample-size rules, and exact L2 errors all computable
without estimation. See README for the experiment harness.
"""

from .kernels import DecaySpec, KernelSpec, cross_gram, gram, kappa
from .krr import KernelModel, empirical_risk, fit_krr
from .linalg import NumericalError, OpCount, solve_regularized
from .nystrom import (
    SizeRuleParams,
    fit_nystrom,
    lambda_admissible,
    subsample_plain,
    subsample_size,
)
from .spectral import (
    IndexFunction,
    analytic_profile,
    empirical_profile,
    filters,
    lambda0,
    theta,
)
from .synthetic import (
    NoiseSpec,
    l2_rho_error,
    make_target,
    monte_carlo_error,
    sample_dataset,
)

__version__ = "0.1.0"
