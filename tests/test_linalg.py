import numpy as np
import pytest
from numpy.testing import assert_allclose

from nystrom_krr.diagnostics import check_norm_equivalence
from nystrom_krr.kernels import DecaySpec, KernelSpec
from nystrom_krr.krr import fit_krr
from nystrom_krr.linalg import (
    NumericalError,
    OpCount,
    check_count,
    check_fraction,
    check_positive,
    check_seed,
    cholesky_psd,
    partial_cholesky,
    pivoted_cholesky,
    solve_regularized,
    sym_eigenvalues,
    sym_extremes,
)
from nystrom_krr.nystrom import SizeRuleParams, lambda_admissible, subsample_plain
from nystrom_krr.spectral import IndexFunction, analytic_profile, lambda0
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
    the half-open ranges of ``DecaySpec`` and ``SizeRuleParams`` too."""
    assert check_positive(2, "shift") == 2.0 and type(check_positive(2, "shift")) is float
    assert check_positive(np.float64(0.1)) == 0.1
    decay = DecaySpec(0.5)
    target = make_target(decay, 8, IndexFunction.holder(0.25), seed=2)
    data = sample_dataset(decay, 8, target, NoiseSpec.gaussian(0.1), 4, seed=1)
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
