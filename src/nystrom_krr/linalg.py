"""The regularized symmetric solve, the rank-revealing factors, eigenvalues, the cost model.

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


def check_positive(value, name: str = "lambda") -> float:
    """The one check for a positive scalar (lambda, shift, bandwidth, rule
    constant): ``check_number``, then finite and > 0. Returns it as a float."""
    value = check_number(value, name)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def check_integer(value, name: str) -> int:
    """The one test for a single integer input, under ``check_count`` and
    ``check_seed``: an int or an integral float, never a bool or an array.
    Returns it as an int; raises ``ValueError`` naming ``name`` otherwise."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer (not a bool), got {value!r}")
    return int(value)


def check_number(value, name: str) -> float:
    """The one check for a single real input read from a config or artifact: an
    int or a float, never a bool, a string or an array. Returns it as a float;
    raises ``ValueError`` naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_count(value, name: str, least: int = 1) -> int:
    """The one check for a size or count (n, m, a truncation, trials,
    repetitions; a degree with ``least=0``): ``check_integer``, then
    ``>= least``."""
    value = check_integer(value, name)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def check_seed(value, name: str = "seed") -> int | np.random.SeedSequence:
    """The one check for a seed: an ``np.random.SeedSequence`` (a spawned cell
    seed) as it is, anything else an integer >= 0."""
    if isinstance(value, np.random.SeedSequence):
        return value
    return check_count(value, name, least=0)


def check_fraction(value, name: str) -> float:
    """The one check for a number in the open (0, 1): a confidence level, or
    the size rule's lambda."""
    value = check_number(value, name)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value


# Tile edge of the symmetry check, which compares a[i, j] with a[j, i] one
# tile pair at a time and so makes no n x n temporary. A 64 x 64 float tile
# (32 KB) stays in cache while its transposed partner is read: on a 4096^2
# Gram, 64 took 0.09-0.10 s, 256 took 0.21-0.27 s and the whole-matrix
# check 0.6-0.8 s (one BLAS thread, 2-core x86 VM).
_SYMMETRY_TILE = 64


def _require_symmetric(a: np.ndarray, tol: float = 1e-10) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"expected a non-empty matrix, got shape {a.shape}")
    limit = tol * max(float(a.max()), -float(a.min()), 1.0)
    # a NaN makes every comparison below false, so it would pass unseen
    if not math.isfinite(limit):
        raise ValueError("matrix has a NaN or infinite entry")
    n, b = a.shape[0], _SYMMETRY_TILE
    for i in range(0, n, b):
        for j in range(i, n, b):
            if np.abs(a[i : i + b, j : j + b] - a[j : j + b, i : i + b].T).max() > limit:
                raise ValueError("matrix is not symmetric within 1e-10 relative tolerance")


def cholesky_psd(a: np.ndarray, shift: float, overwrite_a: bool = False) -> np.ndarray:
    """Upper Cholesky factor of ``a + shift * I``, ``a`` exactly symmetric PSD
    and ``shift > 0``, factored in place on one Fortran-ordered copy of ``a.T``
    (``a`` is left as it was; its lower triangle is read). For a C-ordered ``a``
    that copy is straight, not a strided transpose (0.05 s against 0.5 s at
    4096^2). With ``overwrite_a`` a C-ordered float64 ``a`` is factored in its
    own memory: the factor returned is the view ``a.T``, and ``a`` is lost.
    Raises ``NumericalError`` if that is not positive definite."""
    check_positive(shift, "shift")
    target = a.T if overwrite_a else np.array(a.T, dtype=np.float64, order="F")
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


# The partial Cholesky gives up at rank n // _PARTIAL_RANK_DIVISOR and leaves
# the Gram to the dense n x n factor. Pivot r costs O(n r), so the work thrown
# away on a rank above the cap grows with the square of the cap: on a
# Laplacian(0.1) Gram at n = 4096, whose numerical rank is far above it,
# reaching n/64 takes 0.007 s, n/32 0.027 s, n/16 0.085 s and n/8 0.27 s,
# against 0.83 s for the dense KRR solve and 1.4 s for the dense leverage
# scores (best of 3, one BLAS thread, 2-core x86 VM). In 20 paired runs of the
# dense leverage scores with and without the attempt, n/32 added 0.044 s
# (3.4%) at the median and n/64 nothing measurable. n/64 leaves ranks up to 64
# at n = 4096 on the factor: the Gaussian's numerical rank there is about
# 3.4 / bandwidth (34 at 0.1, 60 at 0.05).
_PARTIAL_RANK_DIVISOR = 64


def partial_cholesky(
    column, diag: np.ndarray, shift: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Greedy pivoted partial Cholesky (Fine & Scheinberg 2001) of an n x n
    symmetric PSD ``K`` given by its diagonal ``diag`` and ``column(i) = K[:, i]``.

    Returns the r x n ``L^T`` with ``K ~ L L^T`` and the r pivots P in the
    order taken. ``L`` is built one column per pivot (the largest residual
    diagonal entry, O(n r) each; K is never formed), so ``L[P]`` is lower
    triangular (up to round-off above the diagonal) and ``L = K[:, P] L[P]^-T``. It stops once the residual trace
    ``trace(K - L L^T)`` is at most ``n eps shift``. The residual is PSD, so
    ``||K - L L^T||_2 <= n eps shift``: relative to the shift, the order of a
    dense Cholesky's backward error (Harbrecht, Peters & Schneider 2012).
    Returns None once r reaches the cap ``n // _PARTIAL_RANK_DIVISOR``."""
    check_positive(shift, "shift")
    n = diag.size
    cap, tol = n // _PARTIAL_RANK_DIVISOR, n * np.finfo(np.float64).eps * shift
    resid = np.array(diag, dtype=np.float64)
    rows = np.empty((min(cap, 64), n))
    pivots = np.empty(cap, dtype=np.intp)
    r = 0
    while resid.sum() > tol:
        if r == cap:
            return None
        if r == rows.shape[0]:  # grow by doubling: memory O(n r), not O(n cap)
            rows = np.concatenate([rows, np.empty((min(cap, 2 * r) - r, n))])
        p = pivots[r] = int(np.argmax(resid))
        col = column(p) - rows[:r].T @ rows[:r, p]
        col /= math.sqrt(resid[p])
        rows[r] = col
        resid -= col * col
        resid[p] = 0.0
        # round-off negatives would hide residual mass from the stopping sum
        np.maximum(resid, 0.0, out=resid)
        r += 1
    return rows[:r], pivots[:r]


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


def sym_extremes(a: np.ndarray) -> tuple[float, float]:
    """The smallest and largest eigenvalues of a symmetric matrix, ``(lo, hi)``.

    One blocked Householder reduction to tridiagonal form (LAPACK ``dsytrd``)
    and two bisections on it (``dstebz``), each as accurate as ``eigvalsh``:
    within about ``eps ||a||``. The reduction reads the lower triangle of
    ``a``, as ``eigvalsh`` does, through ``a.T``, so a C-ordered ``a`` is copied
    straight. With the symmetry check, at 256 x 256 it took 2.1-3.0 ms against
    3.1-3.8 ms for ``sym_eigenvalues``; at 67 x 67 the two are level at about
    0.3 ms (one BLAS thread, 2-core x86 VM)."""
    _require_symmetric(a)
    n = a.shape[0]
    # the wrapper's default workspace runs the unblocked reduction
    lwork = int(sla.lapack.dsytrd_lwork(n, lower=0)[0])
    _, d, e, _, _ = sla.lapack.dsytrd(a.T, lower=0, lwork=lwork)
    lo, hi = (
        sla.eigvalsh_tridiagonal(d, e, select="i", select_range=(k, k), check_finite=False)[0]
        for k in (0, n - 1)
    )
    return float(lo), float(hi)
