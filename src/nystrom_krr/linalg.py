"""The regularized symmetric solve, eigenvalues, and the cost model.

The cost metric is a deterministic flop model rather than wall-clock: an
``n x m`` Gram-style product counts ``n * m**2``, an ``m x m`` factorization
counts ``m**3 / 3``, a triangular back-substitution ``m**2`` per right-hand
side. Wall-clock is reported separately by the experiment harness.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

logger = logging.getLogger(__name__)

# Factorization retry schedule: shift inflation factors 10**-j for
# j = 12, 10, 8, 6, 4, scaled by a conditioning guard (matrix diagonal
# magnitude over the shift). The fine initial levels matter: a barely
# indefinite PSD block only needs a round-off-scale repair, and a coarser
# first jitter is visible in downstream predictions at the 1e-8 level.
_JITTER_LEVELS = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4)


class NumericalError(RuntimeError):
    """Factorization or conditioning failure that jitter escalation cannot fix."""


@dataclass(frozen=True)
class OpCount:
    """Flop-model cost of one fit, in closed form per fitter."""

    flops: int = 0

    @classmethod
    def krr(cls, n: int) -> "OpCount":
        """Full KRR: one n x n factorization and one back-substitution."""
        return cls(n**3 // 3 + n * n)

    @classmethod
    def nystrom(cls, n: int, m: int) -> "OpCount":
        """Nystrom: the n x m product ``G^T G``, two m x m factorizations
        (``K_mm`` and the reduced system) and one back-substitution."""
        return cls(n * m * m + 2 * (m**3 // 3) + m * m)


def check_positive(value: float, name: str = "lambda") -> None:
    """The one check for a positive scalar (lambda, shift, bandwidth, rule
    constant): finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


# Tile edge of the symmetry check, which compares a[i, j] with a[j, i] one
# tile pair at a time and so makes no n x n temporary. A 64 x 64 float tile
# (32 KB) stays in cache while its transposed partner is read: on a 4096^2
# Gram, 64 took 0.09-0.10 s, 256 took 0.21-0.27 s and the whole-matrix
# check 0.6-0.8 s (one BLAS thread, 2-core x86 VM).
_SYMMETRY_TILE = 64


def _require_symmetric(a: np.ndarray, tol: float = 1e-10) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    limit = tol * max(float(a.max()), -float(a.min()), 1.0)
    n, b = a.shape[0], _SYMMETRY_TILE
    for i in range(0, n, b):
        for j in range(i, n, b):
            if np.abs(a[i : i + b, j : j + b] - a[j : j + b, i : i + b].T).max() > limit:
                raise ValueError("matrix is not symmetric within 1e-10 relative tolerance")


def cholesky_psd(a: np.ndarray, jitter_scale: float, shift: float = 0.0):
    """Cholesky of ``a + shift * I`` for a (nearly) PSD ``a``, with escalating
    diagonal jitter.

    ``jitter_scale`` sets the magnitude reference for the retry shifts; it is
    the regularization shift in the solvers below. A shifted or jittered
    matrix is built as one Fortran-ordered copy of ``a`` and factored in
    place, so no identity or second n x n copy is made. Returns the upper
    factor.
    """
    m = a.shape[0]
    guard = max(1.0, float(np.abs(np.diagonal(a) + shift).max()) / jitter_scale)
    for level in _JITTER_LEVELS:
        jitter = jitter_scale * level * guard
        if shift == 0.0 and jitter == 0.0:
            target = a
        else:
            target = np.array(a, dtype=np.float64, order="F")
            diag = np.diag_indices(m)
            target[diag] += shift
            target[diag] += jitter
        try:
            factor = sla.cholesky(
                target, lower=False, overwrite_a=target is not a, check_finite=False
            )
        except sla.LinAlgError:
            continue
        if level > 0.0:
            logger.info(
                "cholesky needed jitter %.3e (scale %.3e, guard %.3e) on a %dx%d block",
                jitter,
                jitter_scale,
                guard,
                m,
                m,
            )
        return factor
    raise NumericalError(
        f"factorization failed for a {m}x{m} block even with jitter up to "
        f"{_JITTER_LEVELS[-1] * guard * jitter_scale:.3e}"
    )


def solve_regularized(a: np.ndarray, shift: float, b: np.ndarray) -> np.ndarray:
    """Solve ``(a + shift * I) x = b`` by symmetric factorization.

    ``a`` must be symmetric PSD up to round-off and ``shift`` strictly
    positive; near-singular cases fall back to jitter escalation.
    """
    check_positive(shift, "shift")
    _require_symmetric(a)
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: matrix {a.shape}, rhs {b.shape}")
    factor = cholesky_psd(a, jitter_scale=shift, shift=shift)
    return sla.cho_solve((factor, False), b, check_finite=False)


def sym_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending."""
    _require_symmetric(a)
    return np.linalg.eigvalsh(a)[::-1]
