import ctypes
import errno
import glob
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy
from numpy.testing import assert_allclose

from nystrom_krr.diagnostics import check_norm_equivalence
from nystrom_krr.kernels import DecaySpec, KernelSpec
from nystrom_krr.krr import fit_krr
from nystrom_krr.linalg import (
    NumericalError,
    OpCount,
    blas_threads,
    check_count,
    check_fraction,
    check_positive,
    check_seed,
    cholesky_psd,
    fork_map,
    partial_cholesky,
    pivoted_cholesky,
    solve_regularized,
    sym_eigenvalues,
    sym_extremes,
)
from nystrom_krr.nystrom import SizeRuleParams, lambda_admissible, subsample_plain
from nystrom_krr.spectral import (
    IndexFunction,
    analytic_profile,
    c_gamma_for_designed,
    lambda0,
    qualification_margin,
)
from nystrom_krr.synthetic import NoiseSpec, make_target, monte_carlo_error, sample_dataset


def test_opcount_accumulates():
    # n = 10: 1000 // 3 factorization + 100 back-substitution
    assert OpCount.krr(10).flops == 333 + 100
    # n = 10, m = 4: 160 product + 2 * (64 // 3) factorizations + 16 back-substitution
    assert OpCount.nystrom(10, 4).flops == 160 + 2 * 21 + 16
    assert OpCount().flops == 0


def test_solve_regularized_scalar():
    # A = 0 (1x1), shift 2, b = 4 -> 2
    assert_allclose(solve_regularized(np.zeros((1, 1)), 2.0, np.array([4.0])), [2.0])


def test_solve_regularized_identity():
    out = solve_regularized(np.eye(2), 1.0, np.array([2.0, 4.0]))
    assert_allclose(out, [1.0, 2.0])


def test_solve_regularized_hand_2x2():
    # (A + I) v = b with A = [[2,1],[1,2]] solved by the explicit 2x2 inverse
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    v = solve_regularized(a, 1.0, np.array([1.0, 0.0]))
    assert_allclose(v, [3.0 / 8.0, -1.0 / 8.0], rtol=1e-14)


def test_solve_regularized_validation():
    for shift in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="shift"):
            solve_regularized(np.eye(2), shift, np.zeros(2))
    with pytest.raises(ValueError):
        solve_regularized(np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0, np.zeros(2))
    with pytest.raises(ValueError):
        solve_regularized(np.eye(3), 1.0, np.zeros(2))


def test_solve_roundtrip_random_psd():
    rng = np.random.default_rng(0)
    for n in (5, 60, 500):
        b_mat = rng.standard_normal((n, n))
        a = b_mat @ b_mat.T / n
        shift = 10 ** rng.uniform(-6, 0)
        rhs = rng.standard_normal(n)
        v = solve_regularized(a, shift, rhs)
        resid = (a + shift * np.eye(n)) @ v - rhs
        assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(rhs)


def test_jitter_escalation_recovers_singular():
    # rank-1 PSD block with an exactly repeated row/column: the pivoted factor
    # keeps one row
    factor, keep = pivoted_cholesky(np.ones((3, 3)))
    assert factor.shape == (1, 1) and keep.size == 1
    assert np.all(np.isfinite(factor))


def test_cholesky_psd_shift_factors_a_copy():
    """``shift`` factors ``a + shift I`` on a private copy, so ``a`` is never
    overwritten, in C or Fortran order. The copy goes through ``a.T``; for an
    exactly symmetric ``a`` the factor is bit for bit the one LAPACK computes
    from ``a`` itself, past the 64-row blocking of ``dpotrf`` too."""
    import scipy.linalg as sla

    rng = np.random.default_rng(8)
    for rows, cols, atol in ((6, 3, 1e-12), (200, 150, 1e-11)):
        b = rng.standard_normal((rows, cols))
        for a in (b @ b.T, np.asfortranarray(b @ b.T)):
            before = a.copy()
            factor = cholesky_psd(a, shift=0.5)
            shifted = a + 0.5 * np.eye(rows)
            assert_allclose(factor.T @ factor, shifted, atol=atol)
            assert np.array_equal(factor, sla.cholesky(shifted, lower=False))
            assert np.array_equal(a, before)


def test_solve_psd_unrecoverable_raises():
    a = -np.eye(3)
    with pytest.raises(NumericalError):
        cholesky_psd(a, shift=1e-12)


def test_sym_eigenvalues():
    assert_allclose(sym_eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])
    assert_allclose(sym_eigenvalues(np.diag([3.0, 1.0, 2.0])), [3.0, 2.0, 1.0])
    assert_allclose(sym_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), [3.0, 1.0], rtol=1e-14)
    with pytest.raises(ValueError):
        sym_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_extremes_match_eigvalsh():
    """The two ends of the spectrum equal ``eigvalsh``'s to within
    ``n eps ||a||``, for sizes 1, 2, 67 and 256 (past dsytrd's 32-column
    blocks), on random PSD matrices and on ones whose extreme eigenvalues are
    repeated; non-symmetric input is rejected (NaN input in the test below)."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 67, 256):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        b = rng.standard_normal((n, n))
        # both ends repeated from n = 67 on: -2 and 3 about n/7 times each
        clipped = np.clip(np.linspace(-3.0, 4.0, n), -2.0, 3.0)
        for a in (b @ b.T, (q * clipped) @ q.T):
            a = (a + a.T) / 2.0
            evals = np.linalg.eigvalsh(a)
            lo, hi = sym_extremes(a)
            tol = n * np.finfo(float).eps * np.abs(evals).max()
            assert abs(lo - evals[0]) <= tol and abs(hi - evals[-1]) <= tol, n
    assert sym_extremes(np.eye(3)) == (1.0, 1.0)
    assert sym_extremes(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx((1.0, 3.0), rel=1e-15)
    with pytest.raises(ValueError, match="not symmetric"):
        sym_extremes(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetry_check_rejects_non_finite_entries():
    """A NaN or infinite entry fails the symmetry check of every routine that
    runs it, instead of passing it (a NaN makes every comparison false) and
    returning eigenvalues or a solution from it."""
    for bad in (np.nan, np.inf, -np.inf):
        a = np.eye(3)
        a[0, 0] = bad
        for call in (sym_eigenvalues, sym_extremes, lambda a: solve_regularized(a, 1.0, np.ones(3))):
            with pytest.raises(ValueError, match="NaN or infinite"):
                call(a)


def test_symmetry_check_rejects_an_empty_matrix():
    """A 0 x 0 matrix fails with a message naming its shape, not numpy's
    zero-size reduction error."""
    empty = np.zeros((0, 0))
    for call in (sym_eigenvalues, sym_extremes, lambda a: solve_regularized(a, 1.0, np.zeros(0))):
        with pytest.raises(ValueError, match=r"non-empty matrix, got shape \(0, 0\)"):
            call(empty)


def test_count_seed_and_fraction_checks():
    """A count is an integer >= ``least``, a seed a SeedSequence or an integer
    >= 0, a fraction a number in (0, 1); each is returned checked."""
    assert check_count(4.0, "n") == 4 and type(check_count(4.0, "n")) is int
    assert check_count(0, "degree", least=0) == 0
    seq = np.random.SeedSequence(5)
    assert check_seed(seq) is seq and check_seed(np.int64(0)) == 0
    assert check_fraction(np.float64(0.1), "delta") == 0.1
    for call, match in (
        (lambda: check_count(0, "n"), "n must be >= 1, got 0"),
        (lambda: check_count(True, "n"), "n must be an integer"),
        (lambda: check_seed(-1), "seed must be >= 0, got -1"),
        (lambda: check_seed(True), "seed must be an integer"),
        (lambda: check_seed(1.5, "target seed"), "target seed must be an integer"),
        (lambda: check_fraction(1.0, "delta"), r"delta must be in \(0, 1\)"),
        (lambda: check_fraction(float("nan"), "delta"), r"delta must be in \(0, 1\)"),
        (lambda: check_fraction(True, "delta"), "delta must be a number"),
        (lambda: check_fraction("0.1", "delta"), "delta must be a number"),
    ):
        with pytest.raises(ValueError, match=match):
            call()


def test_every_size_and_seed_is_checked():
    """Every public size, count and seed goes through ``check_count`` or
    ``check_seed``: an integral float is taken as its int, a bool, a fraction
    or a negative seed is a ``ValueError`` naming the argument, never a silent
    round-up, seed 1 or an error from inside numpy."""
    decay, phi, noise = DecaySpec(0.5), IndexFunction.holder(0.25), NoiseSpec.gaussian(0.1)
    target = make_target(decay, 8, phi, seed=2)
    data = sample_dataset(decay, 8, target, noise, 4.0, seed=1)
    assert data.xs.size == 4
    assert data.xs.tolist() == sample_dataset(decay, 8, target, noise, 4, seed=1).xs.tolist()
    kernel = KernelSpec.designed(0.5, 8)
    model = fit_krr(kernel, data, 0.1)
    seq = np.random.SeedSequence(3)
    # a spawned SeedSequence is a seed as it is
    assert subsample_plain(10, 3, seq).tolist() == subsample_plain(10, 3, seq).tolist()
    assert np.array_equal(sample_dataset(decay, 8, target, noise, 4, seq).xs,
                          sample_dataset(decay, 8, target, noise, 4, seq).xs)
    by_int = check_norm_equivalence(decay, 8, 20, 0.1, 0.1, 3, 5)
    by_seq = check_norm_equivalence(decay, 8, 20, 0.1, 0.1, 3, np.random.SeedSequence(5))
    assert by_seq.observed_max_ratio == by_int.observed_max_ratio
    cases = [
        (lambda: decay.eigenvalues(10.5), "truncation"),
        (lambda: decay.eigenvalues(True), "truncation"),
        (lambda: decay.eigenvalues(0), "truncation must be >= 1"),
        (lambda: analytic_profile(decay, 10.5), "truncation"),
        (lambda: KernelSpec.designed(0.5, 0), "kernel.truncation must be >= 1"),
        (lambda: sample_dataset(decay, 8, target, noise, True, seed=1), "n must be an integer"),
        (lambda: sample_dataset(decay, 8, target, noise, 0, seed=1), "n must be >= 1"),
        (lambda: monte_carlo_error(model, kernel, np.sin, 2.5, seed=0), "n_mc"),
        (lambda: monte_carlo_error(model, kernel, np.sin, 0, seed=0), "n_mc must be >= 1"),
        (lambda: make_target(decay, 2.5, phi, seed=0), "truncation"),
        (lambda: subsample_plain(0, 1, 1), "n must be >= 1"),
        (lambda: lambda0(analytic_profile(decay, 8), 0), "n must be >= 1"),
        (lambda: lambda_admissible(0.1, 0, 0.1, 1.0), "n must be >= 1"),
        (lambda: lambda_admissible(0.1, 10, True, 1.0), "delta must be a number"),
        (lambda: SizeRuleParams(delta=1.0), r"delta must be in \(0, 1\)"),
    ]
    for seed in (True, 1.5, -1):
        cases += [
            (lambda s=seed: subsample_plain(10, 3, s), "seed"),
            (lambda s=seed: sample_dataset(decay, 8, target, noise, 4, s), "seed"),
            (lambda s=seed: monte_carlo_error(model, kernel, np.sin, 8, s), "seed"),
            (lambda s=seed: make_target(decay, 8, phi, s), "target seed"),
            (lambda s=seed: check_norm_equivalence(decay, 8, 20, 0.1, 0.1, 2, s), "seed"),
        ]
    for call, match in cases:
        with pytest.raises(ValueError, match=match):
            call()


def test_every_positive_scalar_is_checked():
    """``check_positive`` is ``check_number`` first, so a bool or a string is a
    ``ValueError`` naming the argument, never a scalar 1 or a ``TypeError``;
    the half-open ranges of ``DecaySpec``, ``SizeRuleParams``, ``NoiseSpec``'s
    scale, ``IndexFunction``'s exponent, ``c_gamma_for_designed``'s ``gamma`` and
    ``qualification_margin``'s ``q`` too."""
    assert check_positive(2, "shift") == 2.0 and type(check_positive(2, "shift")) is float
    assert check_positive(np.float64(0.1)) == 0.1
    decay = DecaySpec(0.5)
    target = make_target(decay, 8, IndexFunction.holder(0.25), seed=2)
    data = sample_dataset(decay, 8, target, NoiseSpec.gaussian(0.1), 4, seed=1)
    holder, grid = IndexFunction.holder(0.25), np.logspace(-4, 0, 5)
    for call, match in (
        (lambda: check_positive(True), "lambda must be a number, got True"),
        (lambda: check_positive("x", "shift"), "shift must be a number, got 'x'"),
        (lambda: check_positive(float("nan")), "lambda must be finite and positive"),
        (lambda: check_positive(0.0), "lambda must be finite and positive"),
        (lambda: KernelSpec.gaussian(True), "gaussian bandwidth must be a number"),
        (lambda: KernelSpec.laplacian("x"), "laplacian bandwidth must be a number"),
        (lambda: fit_krr(KernelSpec.gaussian(0.5), data, True), "lambda must be a number"),
        (lambda: DecaySpec(True), "decay exponent s must be a number"),
        (lambda: DecaySpec("0.5"), "decay exponent s must be a number"),
        (lambda: DecaySpec(1.5), r"decay exponent s must be in \(0, 1\]"),
        (lambda: SizeRuleParams(c=True), "rule constant c must be a number"),
        (lambda: SizeRuleParams(gamma=True, c_gamma=1.0), "gamma must be a number"),
        (lambda: SizeRuleParams(gamma="1", c_gamma=1.0), "gamma must be a number"),
        (lambda: SizeRuleParams(gamma=0.5, c_gamma=True), "c_gamma must be a number"),
        (lambda: NoiseSpec.gaussian(True), "noise scale must be a number, got True"),
        (lambda: NoiseSpec.uniform_bounded("x"), "noise scale must be a number, got 'x'"),
        (lambda: NoiseSpec.gaussian(-0.1), "noise scale must be finite and >= 0"),
        (lambda: IndexFunction.log_type(True), "log_type exponent must be a number, got True"),
        (lambda: IndexFunction.holder("x"), "holder exponent must be a number, got 'x'"),
        (lambda: IndexFunction.holder(0.75), r"holder exponent must be in \(0, 1/2\]"),
        (lambda: c_gamma_for_designed(decay, 8, True), "gamma must be a number, got True"),
        (lambda: c_gamma_for_designed(decay, 8, "x"), "gamma must be a number, got 'x'"),
        (lambda: qualification_margin(holder, 0.1, False, grid), "q must be a number, got False"),
        (lambda: qualification_margin(holder, 0.1, "x", grid), "q must be a number, got 'x'"),
    ):
        with pytest.raises(ValueError, match=match):
            call()


def test_effective_dimension_decreasing_in_lambda():
    """Shifted-trace functional of Gram eigenvalues decreases along a grid."""
    from nystrom_krr.kernels import KernelSpec, gram

    rng = np.random.default_rng(4)
    xs = rng.uniform(0.0, 1.0, 120)
    sig = sym_eigenvalues(gram(KernelSpec.gaussian(0.6), xs) / xs.size)
    sig = np.clip(sig, 0.0, None)
    lams = np.logspace(-6, 0, 25)
    values = [np.sum(sig / (sig + lam)) for lam in lams]
    assert np.all(np.diff(values) < 0)


def test_partial_cholesky_stops_at_round_off_or_gives_up_at_cap():
    """An exactly rank-5 PSD matrix, given by columns, factors in 5 pivots with
    ``||K - L L^T||_2 <= n eps shift``; the identity (rank n > n/64) gives None.
    The pivots are distinct, the first is the largest diagonal entry, ``L[P]``
    is lower triangular to round-off and ``L = K[:, P] L[P]^-T``."""
    rng = np.random.default_rng(4)
    n, shift = 512, 10.0
    a = rng.standard_normal((n, 5))
    k = a @ a.T
    factor_t, pivots = partial_cholesky(lambda i: k[:, i], np.diag(k), shift)
    assert factor_t.shape == (5, n)
    resid = np.linalg.norm(k - factor_t.T @ factor_t, 2)
    assert resid <= n * np.finfo(float).eps * shift, resid
    assert np.unique(pivots).size == 5 and pivots[0] == np.argmax(np.diag(k))
    l_p = factor_t[:, pivots].T
    assert np.abs(np.triu(l_p, 1)).max() <= 1e-12 * np.abs(l_p).max()
    extended = np.linalg.solve(np.tril(l_p), k[pivots]).T
    assert_allclose(extended, factor_t.T, rtol=0, atol=1e-10 * np.abs(factor_t).max())
    eye = np.eye(n)
    assert partial_cholesky(lambda i: eye[:, i], np.ones(n), shift) is None


MULTI_CPU = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the map forks only with two or more CPUs",
)


def _gone(pid: int) -> bool:
    """No process, not even an unreaped zombie, has ``pid``."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _wait_for(path: Path, seconds: float = 30.0) -> None:
    """Wait until a child has marked ``path``, the directory it writes its pid in."""
    stop = time.monotonic() + seconds
    while not any(path.iterdir()):
        assert time.monotonic() < stop, "no child took an item"
        time.sleep(0.005)


def test_fork_map_returns_in_input_order_and_never_nests():
    """Results come back in input order, equal to an in-process map; a map
    started inside a mapped function runs in the process that called it."""
    items = list(range(40))
    assert fork_map(lambda x: x * x, items) == [x * x for x in items]
    assert fork_map(len, []) == []

    def pid_after_a_while(_):
        time.sleep(0.01)  # long enough for a forked child to take an item
        return os.getpid()

    inner = fork_map(lambda _: fork_map(pid_after_a_while, range(4)), range(6))
    assert all(len(set(pids)) == 1 for pids in inner)


def test_fork_map_runs_each_item_once_with_more_processes_than_cores(monkeypatch, tmp_path):
    """Six processes (five children), whatever the CPU count, share 3000
    items, more than the map's 1024 tokens, so the items go out in runs of
    three: every item runs exactly once, in some process, and the results
    come back in input order."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    log = tmp_path / "ran"

    def work(item):
        with open(log, "a") as fh:
            fh.write(f"{item} {os.getpid()}\n")
        return -item

    items = range(3000)
    assert fork_map(work, items) == [-i for i in items]
    ran = [line.split() for line in log.read_text().splitlines()]
    assert sorted(int(item) for item, _ in ran) == list(items)
    assert len({pid for _, pid in ran}) <= 6


@MULTI_CPU
def test_fork_map_raises_a_child_error_and_reaps_every_child(tmp_path):
    """A child that raises: the caller raises the same error with the child's
    message, caused by the child's traceback, and no child is left. The
    caller's share waits until a child has taken an item."""
    caller = os.getpid()

    def work(item):
        if os.getpid() == caller:
            _wait_for(tmp_path)
            return item
        (tmp_path / str(os.getpid())).touch()
        raise ValueError(f"item {item} failed in a child")

    with pytest.raises(ValueError, match=r"item \d+ failed in a child") as info:
        fork_map(work, range(8))
    assert isinstance(info.value.__cause__, ChildProcessError)
    assert "Traceback" in str(info.value.__cause__)
    children = [int(p.name) for p in tmp_path.iterdir()]
    assert children and all(_gone(pid) for pid in children)


@MULTI_CPU
def test_fork_map_interrupted_kills_and_reaps_its_children(tmp_path):
    """A ``KeyboardInterrupt`` in the caller's share, with a child still busy
    for a minute, kills and reaps that child and reaches the caller at once."""
    caller = os.getpid()

    def work(item):
        if os.getpid() == caller:
            _wait_for(tmp_path)
            raise KeyboardInterrupt
        (tmp_path / str(os.getpid())).touch()
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fork_map(work, range(2))
    assert time.monotonic() - start < 30
    children = [int(p.name) for p in tmp_path.iterdir()]
    assert children and all(_gone(pid) for pid in children)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc")
def test_fork_map_fork_failure_closes_pipes_and_reaps(monkeypatch):
    """``os.fork`` failing (EAGAIN, as when no process id is left) after one
    child has started: the map raises that ``OSError``, the one child is
    killed and reaped, and no pipe end stays open. Three CPUs are faked, so
    the map tries two forks; the first is real, the second raises."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    real_fork, forked = os.fork, []

    def fork():
        if forked:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    open_before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError) as info:
        fork_map(abs, range(3))
    assert info.value.errno == errno.EAGAIN
    assert len(forked) == 1 and _gone(forked[0])
    assert len(os.listdir("/proc/self/fd")) == open_before


def _openblas_thread_calls():
    """The get and set thread-count symbols of numpy's and scipy's bundled
    OpenBLAS, looked up here independently of ``linalg``."""
    calls = []
    for package, symbol in ((np, "num_threads64_"), (scipy, "num_threads")):
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        paths = glob.glob(str(libs / "libscipy_openblas*.so"))
        if not paths:
            pytest.skip(f"no bundled OpenBLAS in {libs}")
        lib = ctypes.CDLL(paths[0])
        calls.append((getattr(lib, f"scipy_openblas_get_{symbol}"),
                      getattr(lib, f"scipy_openblas_set_{symbol}")))
    return calls


def test_blas_threads_sets_and_restores_both_libraries():
    """Inside ``blas_threads(1)`` both libraries run one thread; on leaving,
    normally or by an error, each gets back the count it had (2 here)."""
    calls = _openblas_thread_calls()
    before = [get() for get, _ in calls]
    try:
        for _, set_count in calls:
            set_count(2)
        with blas_threads(1):
            assert [get() for get, _ in calls] == [1, 1]
        assert [get() for get, _ in calls] == [2, 2]
        with pytest.raises(RuntimeError), blas_threads(1):
            raise RuntimeError
        assert [get() for get, _ in calls] == [2, 2]
    finally:
        for (_, set_count), old in zip(calls, before):
            set_count(old)
