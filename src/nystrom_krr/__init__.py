"""Kernel ridge regression with plain Nystrom subsampling.

The package centers on a designed spectral kernel whose eigenpairs are known
in closed form, which makes effective dimensions, the a-priori regularization
parameter lambda0, subsample-size rules, and exact L2 errors all computable
without estimation. See README for the experiment harness.
"""

from .kernels import DecaySpec, KernelSpec, cross_gram, eval_kernel, gram, kappa
from .krr import KernelModel, empirical_risk, fit_krr
from .linalg import NumericalError, OpCount, solve_regularized, sym_eigenvalues
from .nystrom import (
    SizeRuleParams,
    fit_nystrom,
    lambda_admissible,
    subsample_plain,
    subsample_size,
)
from .spectral import (
    IndexFunction,
    SpectralProfile,
    analytic_profile,
    c_gamma_for_designed,
    effective_dimension,
    empirical_profile,
    filters,
    lambda0,
    n_infinity,
    nx_empirical,
    qualification_margin,
    theta,
)
from .synthetic import (
    Dataset,
    NoiseSpec,
    TargetSpec,
    hk_norm_proxy,
    l2_rho_error,
    make_target,
    monte_carlo_error,
    sample_dataset,
)

__version__ = "0.1.0"
