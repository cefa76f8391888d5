"""The regularized symmetric solve, the rank-revealing factors, eigenvalues,
the cost model, and the one process map (``fork_map``) that runs a sweep's
cells and the diagnostics' trials on every CPU, one BLAS thread each.

The cost metric is a deterministic flop model rather than wall-clock: an
``n x m`` Gram-style product counts ``n * m**2``, an ``m x m`` factorization
counts ``m**3 / 3``, a triangular back-substitution ``m**2`` per right-hand
side. Wall-clock is reported separately by the experiment harness.
"""

from __future__ import annotations

import ctypes
import glob
import logging
import math
import os
import pickle
import signal
import traceback
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy
import scipy.linalg as sla

logger = logging.getLogger(__name__)


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


def _check_keys(cfg: dict, known, section: str = "") -> None:
    """The one check for a config object's keys: any outside ``known`` is an error."""
    for key in sorted(cfg.keys() - set(known)):
        name = f"{section}.{key}" if section else key
        raise ValueError(f"config error: '{name}' is not a {section or 'top-level'} setting")


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
    """Upper Cholesky factor of ``a + shift * I``, ``a`` symmetric PSD
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
    tolerance ``m * u * max diag``, u = eps / 2 the unit round-off) of an
    exactly symmetric PSD ``a``: the r x r upper ``factor`` R and the ``keep``
    rows, in pivot order, with ``a[keep][:, keep] = R^T R``; the other rows lie
    in their span to that tolerance. Factors in place through ``a.T``, so a C-ordered float64 ``a``
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
# Without a shift (``kernels.pivoted_gram``'s m x m ``K_mm``) the cap is
# m // _PIVOTED_RANK_DIVISOR, below the crossover with the dense
# ``pivoted_cholesky(gram)``: at m = 900 the factor took 6.7 ms against 13.3 ms
# dense at rank 135 (Gaussian(0.02)) and 28 against 33 ms at rank 263
# (Gaussian(0.01)), but 99 against 49 ms at rank 503 (Gaussian(0.005)); at
# m = 2048, 223 against 295 ms at rank 512 and 1.57 against 0.68 s at rank 1224.
# A full-rank Gram (Laplacian(0.1)) throws away the factor up to the cap: at
# m/6, 6.1 ms beside 22 ms dense at m = 900 and 61 ms beside 275 ms at m = 2048,
# about 2% of those Nystrom fits at n = 4096; m/4 threw away 12 and 123 ms
# (best of 3 or 5, one BLAS thread, 2-core x86 VM).
_PIVOTED_RANK_DIVISOR = 6


def partial_cholesky(
    column, diag: np.ndarray, shift: float | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """Greedy pivoted partial Cholesky (Fine & Scheinberg 2001) of an n x n
    symmetric PSD ``K`` given by its diagonal ``diag`` and ``column(i) = K[:, i]``.

    Returns the r x n ``L^T`` with ``K ~ L L^T`` and the r pivots P in the
    order taken. ``L`` is built one column per pivot (the largest residual
    diagonal entry, O(n r) each; K is never formed), so ``L[P]`` is lower
    triangular (up to round-off above the diagonal) and ``L = K[:, P] L[P]^-T``.
    With a ``shift`` it stops once the residual trace ``trace(K - L L^T)`` is
    at most ``n eps shift``. The residual is PSD, so
    ``||K - L L^T||_2 <= n eps shift``: relative to the shift, the order of a
    dense Cholesky's backward error (Harbrecht, Peters & Schneider 2012).
    Without one it takes ``pivoted_cholesky``'s (``dpstrf``'s) stop test, the
    largest residual diagonal entry at most ``n u max(diag)`` with
    ``u = eps / 2`` (LAPACK's ``dlamch("E")``). Returns None once r reaches
    the cap, ``n // _PARTIAL_RANK_DIVISOR`` with a shift and
    ``n // _PIVOTED_RANK_DIVISOR`` without."""
    n, eps = diag.size, np.finfo(np.float64).eps
    if shift is None:
        cap, tol, stat = n // _PIVOTED_RANK_DIVISOR, n * eps / 2 * float(diag.max()), np.max
    else:
        tol = n * eps * check_positive(shift, "shift")
        cap, stat = n // _PARTIAL_RANK_DIVISOR, np.sum
    resid, square = np.array(diag, dtype=np.float64), np.empty(n)
    rows = np.empty((min(cap, 64), n))
    pivots = np.empty(cap, dtype=np.intp)
    r = 0
    while stat(resid) > tol:
        if r == cap:
            return None
        if r == rows.shape[0]:  # grow by doubling: memory O(n r), not O(n cap)
            rows = np.concatenate([rows, np.empty((min(cap, 2 * r) - r, n))])
        p = pivots[r] = int(resid.argmax())
        # row r of the factor is column(p) - L[:r]^T L[:r, p], formed in place
        row = rows[r]
        np.matmul(rows[:r].T, rows[:r, p], out=row)
        np.subtract(column(p), row, out=row)
        row /= math.sqrt(resid[p])
        resid -= np.multiply(row, row, out=square)
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


# The thread-count calls of the OpenBLAS builds bundled in the numpy wheel (64-bit
# integers, suffix ``64_``) and the scipy wheel, in ``<package>.libs``.
_OPENBLAS = ((np, "scipy_openblas_{}_num_threads64_"), (scipy, "scipy_openblas_{}_num_threads"))


@cache
def _blas_thread_calls() -> tuple:
    """``(get, set)`` of each bundled OpenBLAS's thread count; a library or
    symbol not found is left out, with one DEBUG line."""
    calls = []
    for package, symbol in _OPENBLAS:
        root = os.path.dirname(os.path.dirname(package.__file__))
        paths = glob.glob(os.path.join(root, f"{package.__name__}.libs", "libscipy_openblas*.so"))
        try:
            lib = ctypes.CDLL(paths[0])
            get, set_count = getattr(lib, symbol.format("get")), getattr(lib, symbol.format("set"))
        except (IndexError, OSError, AttributeError):
            logger.debug("no %s in %s's bundled libraries: its BLAS threads are left as they are",
                         symbol.format("set"), package.__name__)
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_count.argtypes, set_count.restype = [ctypes.c_int], None
        calls.append((get, set_count))
    return tuple(calls)


@contextmanager
def blas_threads(count: int):
    """Run the body with ``count`` threads in each bundled OpenBLAS (numpy's and
    scipy's), then restore each library's own count. Does nothing for a library
    whose thread calls are not found (``_blas_thread_calls``)."""
    calls = _blas_thread_calls()
    before = [get() for get, _ in calls]
    for _, set_count in calls:
        set_count(count)
    try:
        yield
    finally:
        for (_, set_count), old in zip(calls, before):
            set_count(old)


# Children are forked, not spawned: a spawned one would import numpy and scipy
# again before its first item. The package starts no Python thread, and
# OpenBLAS stops its own thread pool before a fork (its pthread_atfork
# handler), so a child starts from one thread.
# Work goes out as 4-byte item indices, all written to one pipe before any
# child starts. At most 1024 of them fill one 4096-byte page, the least a
# Linux pipe holds, so that write cannot block; above 1024 items each index
# starts a run of consecutive items.
_MAX_TOKENS = 1024
# True while a map runs, in its caller and in every child it forked: a map
# started inside one runs in process, so forks never nest.
_mapping = False


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, shared by this process and one forked
    child per other CPU it may run on (``os.sched_getaffinity``).

    Every process takes the next item (or run of items) from one pipe as it
    goes, so a faster core takes more; each child sends its results back
    pickled over its own pipe, and they return in input order. All of it runs
    at one BLAS thread: this process holds ``blas_threads(1)`` until the map
    returns, and the children inherit it. It runs in process, still at one
    thread, with one CPU or one item, inside a map (they never nest), or
    where ``os.fork`` or ``os.sched_getaffinity`` is missing. A child's
    exception is raised again here, caused by a ``ChildProcessError`` that
    carries its traceback; every child is reaped before the map returns or
    raises, also on an error or ``KeyboardInterrupt``, which kill the rest."""
    global _mapping
    items = list(items)
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    cpus = len(os.sched_getaffinity(0)) if forks else 1
    workers = 1 if _mapping else min(cpus, len(items))
    outer, _mapping = _mapping, True
    try:
        with blas_threads(1):
            if workers <= 1:
                return [fn(item) for item in items]
            return _fork_map(fn, items, workers)
    finally:
        _mapping = outer


def _fork_map(fn, items: list, workers: int) -> list:
    batch = -(-len(items) // _MAX_TOKENS)
    todo, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(4, "little") for i in range(0, len(items), batch)))
    os.close(feed)

    def share() -> dict:
        done = {}
        while token := os.read(todo, 4):
            start = int.from_bytes(token, "little")
            for i in range(start, min(start + batch, len(items))):
                done[i] = fn(items[i])
        return done

    children, results = {}, {}
    try:
        for _ in range(workers - 1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # EAGAIN or ENOMEM: no child holds this pipe
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(share, read_fd, write_fd)
            os.close(write_fd)
            children[pid] = open(read_fd, "rb")
        results.update(share())
        while children:
            pid, pipe = next(iter(children.items()))
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            pipe.close()
            del children[pid]
            if not data:
                raise ChildProcessError(f"worker process {pid} ended (wait status {status}) "
                                        "without returning its results")
            value, trace = pickle.loads(data)
            if trace is not None:
                raise value from ChildProcessError(f"in worker process {pid}:\n{trace}")
            results.update(value)
    finally:
        os.close(todo)
        for pid, pipe in children.items():
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            pipe.close()
    return [results[i] for i in range(len(items))]


def _child(share, read_fd: int, write_fd: int) -> None:
    """A forked child's whole life: run its share and write ``(results, None)``,
    or ``(exception, traceback text)``, pickled to ``write_fd``; then leave by
    ``os._exit``, so no handler or ``finally`` of the parent runs twice."""
    status = 1
    try:
        os.close(read_fd)
        try:
            data = pickle.dumps((share(), None))
        except BaseException as exc:  # KeyboardInterrupt too: every error goes back
            trace = traceback.format_exc()
            try:
                data = pickle.dumps((exc, trace))
            except Exception:  # an exception that does not pickle goes back as its text
                data = pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"), trace))
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
