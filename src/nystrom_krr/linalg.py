"""The regularized symmetric solve, the rank-revealing factor, eigenvalues, the cost model.

The cost metric is a deterministic flop model rather than wall-clock: an
``n x m`` Gram-style product counts ``n * m**2``, an ``m x m`` factorization
counts ``m**3 / 3``, a triangular back-substitution ``m**2`` per right-hand
side. Wall-clock is reported separately by the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla


class NumericalError(RuntimeError):
    """A factorization failed: not positive definite, or no positive direction."""


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


def check_integer(value, name: str) -> int:
    """The one check for a single integer input (a size, seed or truncation): an
    int or an integral float, never a bool or an array. Returns it as an int;
    raises ``ValueError`` naming ``name`` otherwise."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer (not a bool), got {value!r}")
    return int(value)


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


def cholesky_psd(a: np.ndarray, shift: float) -> np.ndarray:
    """Upper Cholesky factor of ``a + shift * I``, ``a`` exactly symmetric PSD
    and ``shift > 0``, factored in place on one Fortran-ordered copy of ``a.T``
    (``a`` is left as it was; its lower triangle is read). For a C-ordered ``a``
    that copy is straight, not a strided transpose (0.05 s against 0.5 s at
    4096^2). Raises ``NumericalError`` if that is not positive definite."""
    check_positive(shift, "shift")
    target = np.array(a.T, dtype=np.float64, order="F")
    target[np.diag_indices(target.shape[0])] += shift
    try:
        return sla.cholesky(target, lower=False, overwrite_a=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NumericalError(f"{a.shape} block + {shift:.3e} I is not positive definite") from exc


def pivoted_cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank-revealing Cholesky (Higham 1990; LAPACK ``dpstrf`` at its default
    tolerance ``m * eps * max diag``) of an exactly symmetric PSD ``a``: the r x r
    upper ``factor`` R and the ``keep`` rows, in pivot order, with
    ``a[keep][:, keep] = R^T R``; the other rows lie in their span to that
    tolerance. Factors in place through ``a.T``, so a C-ordered float64 ``a``
    is overwritten and no m x m copy is made. Raises ``NumericalError`` at r = 0."""
    m = a.shape[0]
    work, piv, rank, info = sla.lapack.dpstrf(a.T, overwrite_a=1)
    if info < 0 or rank == 0:
        raise NumericalError(f"pivoted Cholesky of a {m}x{m} block found rank 0")
    # LAPACK pivots are 1-based; rows and columns past the rank are not a factor
    return np.triu(work[:rank, :rank]), piv[:rank] - 1


def solve_regularized(a: np.ndarray, shift: float, b: np.ndarray) -> np.ndarray:
    """Solve ``(a + shift * I) x = b`` by symmetric factorization.

    ``a`` must be symmetric PSD up to round-off and ``shift`` strictly
    positive."""
    _require_symmetric(a)
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: matrix {a.shape}, rhs {b.shape}")
    factor = cholesky_psd(a, shift)
    return sla.cho_solve((factor, False), b, check_finite=False)


def sym_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending."""
    _require_symmetric(a)
    return np.linalg.eigvalsh(a)[::-1]
