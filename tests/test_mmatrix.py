"""GTH elimination, triplet solves, null vectors, and partial inverses."""

import ctypes
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import mlpagerank
from mlpagerank import (
    Adjacency,
    Method,
    SingularPivotError,
    SolverOptions,
    Tensor3,
    build_pagerank_tensor,
    contract_sym,
    omega,
    plain_lu_solve,
    solve,
)
from mlpagerank import mmatrix, precision
from mlpagerank.ingest import builtin
from mlpagerank.mmatrix import (
    GTH_BLOCK,
    _augmented,
    _eliminate,
    _null_profile,
    gth_col_solve,
    gth_partial_inverse,
)
from mlpagerank.precision import DD, _dd_segment_sums, dd_sum, reference_solution

from conftest import random_pagerank_problem, seed_gth_factor, seed_gth_solve
from test_tree_oracle import tree_oracle_rs, triplet_weights
from triplets import (
    COL,
    ROW,
    ReducibleMatrixError,
    TripletMMatrix,
    check_irreducible,
    inverse_cw_bound_check,
    null_vector,
    partial_inverse,
)

U_FLOAT = np.finfo(float).eps / 2


def random_row_triplet(rng, n):
    N = rng.random((n, n)) + 0.1
    np.fill_diagonal(N, 0.0)
    sums = rng.random(n) + 0.1
    return TripletMMatrix(N, sums, ROW)


def col_form(T):
    """T's off-diagonal part as a COL triplet's: a ROW triplet is the COL
    triplet of its transpose."""
    return T.offdiag if T.orientation == COL else T.offdiag.T


def eliminated(T, pairs=False):
    """The kernel's pivots d and eliminated block V, in T's orientation: U's
    strict upper part is -V's, and L's strict lower part is -V's over d."""
    wrap = DD if pairs else np.asarray
    W, _ = _augmented(wrap(col_form(T)), wrap(T.sums), wrap(np.zeros((T.n, 0))))
    d = _eliminate(W)
    V = W[: T.n, : T.n]
    return d, V if T.orientation == COL else V.T


def seed_solve(T, b):
    """The seed formulas' solve of the system gth_col_solve solves for T."""
    return seed_gth_solve(*seed_gth_factor(col_form(T), T.sums, False), b)


def assert_within_4nu(got, want, n):
    assert (np.abs(got - want) <= 4 * n * U_FLOAT * np.abs(want)).all()


class TestTripletValidation:
    def test_rejects_negative_offdiag(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TripletMMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where,message", [
        ("offdiag", r"offdiag must be finite; entry \(1, 2\) is "),
        ("sums", r"sums must be finite; entry 2 is "),
    ])
    @pytest.mark.parametrize("routine", [
        partial_inverse,
        lambda T: null_vector(TripletMMatrix(T.offdiag, np.zeros(2), ROW)),
        lambda T: inverse_cw_bound_check(T, T, 1e-8),
    ], ids=["partial_inverse", "null_vector", "inverse_cw_bound_check"])
    def test_rejects_non_finite_entries(self, bad, where, message, routine):
        # once accepted: partial_inverse returned an all-NaN z and S
        off = np.array([[0.0, 1.0], [1.0, 0.0]])
        sums = np.ones(2)
        (off[0] if where == "offdiag" else sums)[1] = bad
        with pytest.raises(ValueError, match=message + str(bad)):
            routine(TripletMMatrix(off, sums, ROW))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="zero diagonal"):
            TripletMMatrix(np.eye(2), np.ones(2))

    def test_materialize_row_and_col(self):
        N = np.array([[0.0, 1.0], [2.0, 0.0]])
        row = TripletMMatrix(N, np.array([1.0, 3.0]), ROW).materialize()
        assert np.array_equal(row, np.array([[2.0, -1.0], [-2.0, 5.0]]))
        col = TripletMMatrix(N, np.array([1.0, 3.0]), COL).materialize()
        assert np.array_equal(col, np.array([[3.0, -1.0], [-2.0, 4.0]]))


@pytest.mark.parametrize("n", [3, GTH_BLOCK + 5])
@pytest.mark.parametrize("wrap", [np.asarray, DD], ids=["binary64", "double-double"])
def test_the_solution_owns_its_memory(rng, wrap, n):
    # not a view of the augmented array: it keeps nothing else alive, and
    # BLAS reads it as a contiguous vector
    N = rng.random((n, n))
    np.fill_diagonal(N, 0.0)
    sums = rng.random(n) + 0.1
    for rhs in (rng.random(n), rng.random((n, 2))):
        y = gth_col_solve(wrap(N), wrap(sums), wrap(rhs))
        for part in (y.hi, y.lo) if wrap is DD else (y,):
            assert part.base is None and part.flags.c_contiguous and part.shape == rhs.shape


class TestGTHColSolve:
    def test_two_by_two_pivots(self):
        # M = [[2,-1],[-1,2]] with sums [1,1]: pivots 2 and 1.5, and M 1 = sums
        N = np.array([[0.0, 1.0], [1.0, 0.0]])
        T = TripletMMatrix(N, np.ones(2), COL)
        assert np.array_equal(eliminated(T)[0], np.array([2.0, 1.5]))
        assert np.array_equal(gth_col_solve(N, T.sums, T.sums), np.ones(2))
        assert_within_4nu(gth_col_solve(N, T.sums, np.eye(2)), seed_solve(T, np.eye(2)), 2)

    def test_one_by_one(self):
        y = gth_col_solve(np.zeros((1, 1)), np.array([3.0]), np.array([[3.0, 6.0]]))
        assert np.array_equal(y, np.array([[1.0, 2.0]]))

    def test_singular_only_last_sum_positive(self, rng):
        # sums zero except the last entry: irreducibility keeps pivots positive
        n = 5
        N = rng.random((n, n)) + 0.2
        np.fill_diagonal(N, 0.0)
        sums = np.zeros(n)
        sums[-1] = 0.7
        for orientation in (ROW, COL):
            T = TripletMMatrix(N, sums, orientation)
            assert (eliminated(T)[0] > 0.0).all()
            X = gth_col_solve(col_form(T), sums, np.eye(n))
            assert (X > 0.0).all()
            assert_within_4nu(X, seed_solve(T, np.eye(n)), n)

    def test_random_solves_match_seed_formulas(self, rng):
        for orientation in (ROW, COL):
            for _ in range(10):
                n = int(rng.integers(2, 7))
                N = rng.random((n, n))
                np.fill_diagonal(N, 0.0)
                T = TripletMMatrix(N, rng.random(n) + 0.01, orientation)
                for b in (rng.random(n), np.eye(n)):
                    assert_within_4nu(gth_col_solve(col_form(T), T.sums, b), seed_solve(T, b), n)

    def test_zero_pivot_raises(self):
        with pytest.raises(SingularPivotError, match="zero pivot at step 1$"):
            gth_col_solve(np.zeros((2, 2)), np.zeros(2), np.ones(2))

    def test_identity(self):
        b = np.array([0.3, 0.1, 2.0])
        assert np.array_equal(gth_col_solve(np.zeros((3, 3)), np.ones(3), b), b)

    def test_sums_vector(self):
        # 1^T M = sums for a symmetric N, so b = sums returns the all-ones vector
        N = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = gth_col_solve(N, np.ones(2), np.array([1.0, 1.0]))
        assert np.max(np.abs(x - 1.0)) <= 1e-15

    def test_matrix_rhs(self, rng):
        # a ROW triplet's COL form is M^T
        T = random_row_triplet(rng, 4)
        eye = np.eye(4)
        cols = gth_col_solve(col_form(T), T.sums, eye)
        assert np.max(np.abs(T.materialize().T @ cols - eye)) <= 1e-12

    def test_ill_conditioned_matches_pair_precision(self, rng):
        # column sums at 1e-13: componentwise agreement with the pair oracle
        n = 8
        N = rng.random((n, n)) + 0.05
        np.fill_diagonal(N, 0.0)
        sums = np.full(n, 1e-13)
        b = rng.random(n)
        x = gth_col_solve(N, sums, b)
        x_dd = gth_col_solve(DD(N), DD(sums), DD(b)).to_float()
        assert np.max(np.abs(x - x_dd) / np.abs(x_dd)) <= 1e-12


def test_reducible_pattern_rejected_with_index_set():
    N = np.zeros((3, 3))
    N[0, 1] = 1.0
    N[1, 0] = 1.0  # node 3 disconnected
    T = TripletMMatrix(N, np.ones(3), ROW)
    calls = (lambda: partial_inverse(T),
             lambda: null_vector(TripletMMatrix(N, np.zeros(3), ROW)),
             lambda: inverse_cw_bound_check(T, T, 0.0))
    for call in calls:
        with pytest.raises(ReducibleMatrixError, match=r"\["):
            call()


class TestNullVector:
    def test_symmetric_two_by_two(self):
        T = TripletMMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2), ROW)
        t = null_vector(T)
        assert np.allclose(t / t.max(), np.array([1.0, 1.0]))

    def test_asymmetric_two_by_two(self):
        # L1 = [[1,-1],[-2,2]]: left null vector is proportional to [2,1]
        T = TripletMMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]), np.zeros(2), ROW)
        t = null_vector(T)
        assert np.allclose(t / t[1], np.array([2.0, 1.0]))

    def test_random_laplacian_residual(self, rng):
        n = 5
        N = rng.random((n, n)) + 0.2
        np.fill_diagonal(N, 0.0)
        T = TripletMMatrix(N, np.zeros(n), ROW)
        t = null_vector(T)
        L1 = T.materialize()
        assert (t > 0).all()
        assert np.max(np.abs(t @ L1)) / t.max() <= 1e-14

    def test_requires_zero_sums(self, rng):
        with pytest.raises(ValueError, match="sums identically zero"):
            null_vector(random_row_triplet(rng, 3))


class TestPartialInverse:
    def test_two_by_two_oracle_values(self):
        # M = [[1.5,-1],[-1,1.5]], w = [0.5,0.5]: the tree split gives
        # z = [0.8, 0.8] and S = diag(0.4, 0.4)
        T = TripletMMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), np.full(2, 0.5), ROW)
        pi = partial_inverse(T)
        assert np.max(np.abs(pi.z - 0.8)) <= 1e-15
        assert np.max(np.abs(pi.S - np.diag([0.4, 0.4]))) <= 1e-15
        oracle = tree_oracle_rs(triplet_weights(T))
        assert np.max(np.abs(oracle.z - pi.z)) <= 1e-14
        assert np.max(np.abs(oracle.S - pi.S)) <= 1e-14

    def test_zero_sum_row_vectors_see_s_only(self):
        T = TripletMMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), np.full(2, 0.5), ROW)
        pi = partial_inverse(T)
        minv = np.linalg.inv(T.materialize())
        v = np.array([1.0, -1.0])
        assert np.max(np.abs(v @ minv - v @ pi.S)) <= 1e-13

    def test_diagonal_matrix_rejected(self):
        T = TripletMMatrix(np.zeros((2, 2)), np.ones(2), ROW)
        with pytest.raises(ReducibleMatrixError):
            partial_inverse(T)

    def test_zero_sums_rejected(self):
        T = TripletMMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2), ROW)
        with pytest.raises(ValueError, match="singular"):
            partial_inverse(T)

    def test_random_matches_tree_oracle(self, rng):
        for _ in range(20):
            T = random_row_triplet(rng, 4)
            pi = partial_inverse(T)
            oracle = tree_oracle_rs(triplet_weights(T))
            scale = np.abs(oracle.S).max()
            assert np.max(np.abs(pi.z - oracle.z) / np.abs(oracle.z)) <= 1e-12
            assert np.max(np.abs(pi.S - oracle.S)) / scale <= 1e-12

    def test_reconstructs_inverse(self, rng):
        T = random_row_triplet(rng, 5)
        pi = partial_inverse(T)
        minv = np.linalg.inv(T.materialize())
        assert np.max(np.abs(pi.inverse() - minv)) / np.abs(minv).max() <= 1e-12

    def test_rank_one_rows_identical(self, rng):
        pi = partial_inverse(random_row_triplet(rng, 4))
        R = pi.rank_one_part
        assert np.array_equal(R, np.tile(R[0], (4, 1)))

    def test_s_stays_bounded_near_singularity(self, rng):
        # fixed offdiag, sums scaled by 10^-k: S moves by O(sums) while the
        # inverse blows up.  The variation is measured with the pair-precision
        # partial inverse; the binary64 S picks up u*||M^-1|| absolute noise
        # from its defining subtraction and is checked against that slack.
        n = 5
        N = rng.random((n, n)) + 0.2
        np.fill_diagonal(N, 0.0)
        sums0 = (0.5 + rng.random(n)) * 0.005
        dd_s = []
        inv_norms = []
        u = np.finfo(float).eps / 2
        for k in range(0, 13):
            sums = sums0 * 10.0 ** -k
            S_dd = gth_partial_inverse(DD(N), DD(sums))[1].to_float()
            dd_s.append(S_dd)
            pi = partial_inverse(TripletMMatrix(N, sums, ROW))
            inv_norm = np.abs(pi.inverse()).sum(axis=1).max()
            inv_norms.append(inv_norm)
            assert np.abs(pi.S - S_dd).max() <= 100 * u * inv_norm + 1e-13
        S_limit = dd_s[-1]
        scale = np.abs(S_limit).max()
        for S in dd_s:
            assert np.abs(S - S_limit).max() / scale <= 0.01
        assert inv_norms[-1] / inv_norms[0] >= 1e10


class TestInverseBoundCheck:
    def test_identical_triplets(self, rng):
        T = random_row_triplet(rng, 3)
        rep = inverse_cw_bound_check(T, T, 0.0)
        assert rep.d_inverse == 0.0 and not rep.pattern_mismatch

    def test_small_noise_within_bound(self, rng):
        n, eps = 3, 1e-8
        for _ in range(10):
            T = random_row_triplet(rng, n)
            noise_off = 1.0 + eps * (2 * rng.random((n, n)) - 1)
            np.fill_diagonal(noise_off, 1.0)
            noise_sums = 1.0 + eps * (2 * rng.random(n) - 1)
            T2 = TripletMMatrix(T.offdiag * noise_off, T.sums * noise_sums, ROW)
            rep = inverse_cw_bound_check(T, T2, eps)
            assert rep.within_bound
            assert rep.d_inverse <= (2 * n - 1) * eps

    def test_pattern_violation_flagged(self, rng):
        n = 3
        N = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        T = TripletMMatrix(N, np.ones(n), ROW)
        N2 = N.copy()
        N2[0, 2] = 1e-12  # structural zero made nonzero
        rep = inverse_cw_bound_check(T, TripletMMatrix(N2, np.ones(n), ROW), 1e-8)
        assert rep.pattern_mismatch
        assert np.isinf(rep.d_offdiag)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
@pytest.mark.parametrize("rhs", [np.zeros(0), np.zeros((0, 3))], ids=["vector", "matrix"])
def test_col_solve_of_an_empty_system_is_empty_and_quiet(rhs, compiled, monkeypatch, capfd):
    if not compiled:
        monkeypatch.setattr(mmatrix, "_gth_leaf", None)
    y = gth_col_solve(np.zeros((0, 0)), np.zeros(0), rhs)
    assert y.shape == rhs.shape
    # nothing may reach file descriptors 1 or 2, as a native library's complaint would
    assert capfd.readouterr() == ("", "")


def test_plain_lu_solve_matches_numpy(rng):
    A = rng.random((4, 4)) + np.eye(4)
    b = rng.random(4)
    assert np.allclose(plain_lu_solve(A, b), np.linalg.solve(A, b))


def test_plain_lu_solve_singular():
    with pytest.raises(SingularPivotError):
        plain_lu_solve(np.zeros((2, 2)), np.ones(2))


def scipy_lu_solve(A, b):
    """The oracle: scipy's lu_factor and lu_solve, which wrap the same
    getrf and getrs; a zero pivot's warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
        return scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), b)


def test_plain_lu_solve_has_the_bytes_of_scipys_lu_solve():
    rng = np.random.default_rng(41)
    for n in range(1, 41):
        A = rng.standard_normal((n, n)) + n * np.eye(n)  # well conditioned
        B = rng.standard_normal((n, 3))
        for a in (A, np.asfortranarray(A)):
            for b in (B[:, 0], B[:, 1:], np.asfortranarray(B), B[::-1, 2]):
                got = plain_lu_solve(a, b)
                want = scipy_lu_solve(a, b)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["ex1", "ex2"])
@pytest.mark.parametrize("alpha", [0.3, 0.49999, 0.6])
def test_plain_lu_solve_has_scipys_bytes_on_newton_jacobians(monkeypatch, name, alpha):
    solves = []

    def recording(A, b):
        solves.append((A.copy(), b.copy()))
        return plain_lu_solve(A, b)

    monkeypatch.setattr(mlpagerank.solvers, "plain_lu_solve", recording)
    p = builtin(name, alpha)
    got = solve(p, SolverOptions(method=Method.NEWTON))
    assert len(solves) == got.iterations > 2
    for A, b in solves:
        assert plain_lu_solve(A, b).tobytes() == scipy_lu_solve(A, b).tobytes()
    monkeypatch.setattr(mlpagerank.solvers, "plain_lu_solve", scipy_lu_solve)
    want = solve(p, SolverOptions(method=Method.NEWTON))
    assert got.x.tobytes() == want.x.tobytes()
    assert got.residual_history.tobytes() == want.residual_history.tobytes()


@pytest.mark.parametrize("A", [np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]]),
                               np.array([[0.0, 1.0], [0.0, 1.0]])])
def test_plain_lu_solve_names_the_zero_pivot_as_scipy_does(A):
    with pytest.raises(scipy.linalg.LinAlgWarning) as want:
        scipy_lu_solve(A, np.ones(2))
    with pytest.raises(SingularPivotError) as got:
        plain_lu_solve(A, np.ones(2))
    assert str(got.value) == str(want.value)
    assert re.fullmatch(r"Diagonal number \d is exactly zero\. Singular matrix\.", str(got.value))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_plain_lu_solve_rejects_an_entry_that_is_not_finite(bad):
    A, b = np.eye(3), np.ones(3)
    A[1, 2] = bad
    with pytest.raises(SingularPivotError, match="array must not contain infs or NaNs"):
        plain_lu_solve(A, b)
    b[2] = bad
    A[1, 2] = 0.0
    with pytest.raises(ValueError, match="array must not contain infs or NaNs") as exc:
        plain_lu_solve(A, b)
    assert not isinstance(exc.value, SingularPivotError)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3,), (2, 2, 2)])
def test_plain_lu_solve_takes_a_square_matrix_only(shape):
    A = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)  # full rank, no zero pivot
    with pytest.raises(SingularPivotError, match=re.escape(f"got shape {shape}")):
        plain_lu_solve(A, np.ones(shape[0]))


def test_plain_lu_solve_checks_the_length_of_b_and_solves_an_empty_system(capfd):
    with pytest.raises(ValueError, match=re.escape("Shapes of lu (2, 2) and b (3,)")):
        plain_lu_solve(np.eye(2), np.ones(3))
    assert plain_lu_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
    # nothing may reach file descriptors 1 or 2, as LAPACK's complaint would
    assert capfd.readouterr() == ("", "")


def seed_null_elimination(N):
    n = N.shape[0]
    N = N.copy()
    mult = np.zeros((n, n))
    piv = np.empty(n - 1)
    for k in range(n - 1):
        d = np.append(N[k, k + 1 :], 0.0).sum()  # the sums are e_n
        piv[k] = d
        mult[k + 1 :, k] = N[k + 1 :, k] / d
        N[k + 1 :, k + 1 :] += np.outer(N[k + 1 :, k], N[k, k + 1 :] / d)
        np.fill_diagonal(N[k + 1 :, k + 1 :], 0.0)
    return mult, piv


def seed_null_vector(N):
    mult, _ = seed_null_elimination(N)
    n = N.shape[0]
    t = np.zeros(n)
    t[n - 1] = 1.0
    for k in range(n - 2, -1, -1):
        t[k] = t[k + 1 :] @ mult[k + 1 :, k]
    return t


def seed_partial_inverse(N, w):
    n = N.shape[0]
    if n == 1:
        return np.array([1.0 / w[0]]), np.zeros((1, 1))
    _, piv_l1 = seed_null_elimination(N)
    t = seed_null_vector(N)
    L, U = seed_gth_factor(N, w, True)
    piv_m = np.diag(U)
    scale = 1.0
    for k in range(n - 1):
        scale *= piv_l1[k] / piv_m[k]
    scale /= piv_m[n - 1]
    z = t * scale
    return z, seed_gth_solve(L, U, np.eye(n)) - z[None, :]


def exact_gth_factor(N, sig):
    """The GTH recurrences of the COL triplet (N, sig) in exact rational arithmetic."""
    n = len(sig)
    N = [[Fraction(float(v)) for v in row] for row in N]
    sig = [Fraction(float(v)) for v in sig]
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    U = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        rest = range(k + 1, n)
        U[k][k] = sig[k] + sum(N[j][k] for j in rest)
        for j in rest:
            U[k][j] = -N[k][j]
            L[j][k] = -N[j][k] / U[k][k]
        for i in rest:
            for j in rest:
                N[i][j] += N[i][k] * N[k][j] / U[k][k] if i != j else 0
            sig[i] += N[k][i] * sig[k] / U[k][k]
    return L, U


def exact_gth_solve(N, sig, bs):
    """M x = b for the COL triplet (N, sig) and each b of bs, exactly:
    exact_gth_factor's factors, then forward and back substitution."""
    L, U = exact_gth_factor(N, sig)
    n = len(sig)
    solutions = []
    for b in bs:
        x = [Fraction(float(v)) for v in b]
        for k in range(n):
            x[k] -= sum(L[k][j] * x[j] for j in range(k))
        for k in range(n - 1, -1, -1):
            x[k] = (x[k] - sum(U[k][j] * x[j] for j in range(k + 1, n))) / U[k][k]
        solutions.append(x)
    return solutions


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def ill_conditioned_triplets(rng, orientations=(ROW, COL)):
    """Random triplets, n = 1..9 with zeros in the pattern, sums 1 .. 1e-13."""
    for n in (1, 2, 3, 5, 9):
        for k in range(14):
            N = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
            N = N + 0.01 * (N == 0.0) * (k % 2)  # dense on odd k
            np.fill_diagonal(N, 0.0)
            sums = (rng.random(n) + 0.01) * 10.0 ** -k
            try:
                check_irreducible(N)
            except ReducibleMatrixError:
                continue
            for orientation in orientations:
                yield TripletMMatrix(N, sums, orientation)


class TestSharedKernel:
    def test_float_elimination_and_solve_match_seed_formulas(self, rng):
        # the pass's pivots and multipliers are the seed factors' bits; the
        # fused solve rounds the right-hand sides inside the pass, so it
        # matches the seed's substitutions to the componentwise bound
        count = 0
        for T in ill_conditioned_triplets(rng):
            d, V = eliminated(T)
            L, U = seed_gth_factor(T.offdiag, T.sums, T.orientation == ROW)
            i, j = np.triu_indices(T.n, 1)
            assert same_bits(d, np.diag(U).copy())
            assert same_bits(-V[i, j], U[i, j]) and same_bits(-V[j, i] / d[i], L[j, i])
            for b in (rng.random(T.n), rng.random((T.n, 3)), np.eye(T.n)):
                assert_within_4nu(gth_col_solve(col_form(T), T.sums, b), seed_solve(T, b), T.n)
            count += 1
        assert count >= 100

    def test_float_null_vector_and_partial_inverse_match_seed_formulas(self, rng):
        # t and z bit for bit; S, which the seed substitutes through the
        # factors of M and the pass solves on M^T, to the binary64 slack of
        # its defining subtraction, as in test_s_stays_bounded_near_singularity
        for T in ill_conditioned_triplets(rng, orientations=(ROW,)):
            if T.n > 1:
                zero_sum = TripletMMatrix(T.offdiag, np.zeros(T.n), ROW)
                assert same_bits(null_vector(zero_sum), seed_null_vector(T.offdiag))
            pi = partial_inverse(T)
            z, S = seed_partial_inverse(T.offdiag, T.sums)
            assert same_bits(pi.z, z)
            inv_norm = np.abs(pi.inverse()).sum(axis=1).max()
            assert np.abs(pi.S - S).max() <= 100 * U_FLOAT * inv_norm

    def test_pair_and_float_eliminations_agree_componentwise(self, rng):
        # every pivot and eliminated entry is a sum of nonnegative terms, each
        # produced by at most n steps of a product, a quotient and an
        # addition, so the binary64 ones agree with the pair ones to within 4 n u
        for T in ill_conditioned_triplets(rng):
            off = ~np.eye(T.n, dtype=bool)
            (d, V), (d_dd, V_dd) = eliminated(T), eliminated(T, pairs=True)
            for got, want in ((d, d_dd), (V[off], V_dd[off])):
                assert ((got == 0.0) == (want.hi == 0.0)).all()
                nz = want.hi != 0.0
                err = np.abs((DD(got) - want).to_float())[nz]
                assert (err <= 4 * T.n * U_FLOAT * np.abs(want.to_float()[nz])).all()

    def test_pair_solves_match_exact_rationals(self, rng):
        # the same argument in pair arithmetic, unit roundoff 2^-106, for a
        # solve: a solution entry's terms each take at most n steps of the
        # pass and n of the back-substitution, so 2 n steps and 8 n u; for
        # one right-hand side and for stacked ones
        for T in ill_conditioned_triplets(rng):
            C = col_form(T)
            B = rng.random((T.n, 3))
            solves = [(b, gth_col_solve(DD(C), DD(T.sums), DD(b)))
                      for b in (rng.random(T.n), *np.eye(T.n))]
            stacked = gth_col_solve(DD(C), DD(T.sums), DD(B))
            solves += [(B[:, c], stacked[:, c]) for c in range(3)]
            exact = exact_gth_solve(C, T.sums, [b for b, _ in solves])
            for (_, got), want in zip(solves, exact):
                for i, w in enumerate(want):
                    err = abs(Fraction(float(got.hi[i])) + Fraction(float(got.lo[i])) - w)
                    assert err <= 8 * T.n * Fraction(2) ** -106 * abs(w)


@pytest.mark.parametrize("n", [1, 2, 5, 24, GTH_BLOCK])
def test_pair_solve_divides_once_per_unknown(monkeypatch, rng, n):
    # n - 1 pivot columns divided in the pass and one vector of reciprocals
    # for the substitution, with exactly rounded pivot sums and no folds: in
    # the Python pass, which the compiled one transcribes
    monkeypatch.setattr(mmatrix, "_pair_kernels", None)
    counts = {"_dd_div": 0, "dd_sum": 0}
    for name in counts:
        def counting(*args, _name=name, _real=getattr(precision, name)):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(precision, name, counting)
    N = rng.random((n, n))
    np.fill_diagonal(N, 0.0)
    for rhs in (rng.random(n), rng.random((n, 3))):
        counts.update(dict.fromkeys(counts, 0))
        y = gth_col_solve(DD(N), DD(rng.random(n) + 0.01), DD(rhs))
        assert y.shape == rhs.shape
        assert counts == {"_dd_div": n, "dd_sum": 0}


@pytest.mark.parametrize("pairs", [False, True], ids=["binary64", "double-double"])
def test_elimination_signs_and_nonnegative_solves(rng, pairs):
    # pivots > 0 and an eliminated array >= 0 off its diagonal, that is
    # strict L <= 0 and strict U <= 0, in both arithmetics, from row and
    # column sums near 1 down to 1e-13; b >= 0 then gives x >= 0
    wrap = DD if pairs else np.asarray
    for T in ill_conditioned_triplets(rng):
        d, V = eliminated(T, pairs)
        d, V = (d.to_float(), V.to_float()) if pairs else (d, V)
        assert (d > 0.0).all() and (V[~np.eye(T.n, dtype=bool)] >= 0.0).all()
        b = rng.random(T.n) * (rng.random(T.n) < 0.6)
        x = gth_col_solve(wrap(col_form(T)), wrap(T.sums), wrap(b))
        assert ((x.to_float() if pairs else x) >= 0.0).all()


def col_triplets_above_the_block(rng):
    """Ill-conditioned COL triplets with zeros in the pattern, sums 1 .. 1e-13,
    at n = 2 GTH_BLOCK + 1 (an odd split) and 4 GTH_BLOCK + 1 (two levels),
    and, first, at the leaf sizes 1, 2, 3, 4 and GTH_BLOCK (no split)."""
    for n in (1, 2, 3, 4, GTH_BLOCK, 2 * GTH_BLOCK + 1, 4 * GTH_BLOCK + 1):
        for k in (0, 6, 13):
            N = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
            np.fill_diagonal(N, 0.0)
            yield TripletMMatrix(N, (rng.random(n) + 0.01) * 10.0 ** -k, COL)


def right_hand_sides(rng, n):
    """A vector, a matrix of three columns and one of none, nonnegative with zeros."""
    return tuple(rng.random(shape) * (rng.random(shape) < 0.6)
                 for shape in (n, (n, 3), (n, 0)))


class TestFusedSolveAboveTheBlock:
    # Every entry the blocked solve computes is a sum of products of
    # nonnegative numbers, as in the unblocked pass, so the binary64 result
    # keeps the componentwise accuracy of a subtraction-free solve.  The
    # leaf sizes ride along: there the binary64 back-substitution divides by
    # the pivots (_unit_upper_solve) and the pair one multiplies by their
    # reciprocals (_back_substitute).

    def test_pair_and_float_agree_componentwise(self, rng):
        for T in col_triplets_above_the_block(rng):
            for R in right_hand_sides(rng, T.n):
                y = gth_col_solve(T.offdiag, T.sums, R)
                y_dd = gth_col_solve(DD(T.offdiag), DD(T.sums), DD(R))
                assert y.shape == R.shape == y_dd.shape
                assert_within_4nu(y, y_dd.to_float(), T.n)

    def test_matches_factor_then_substitute_and_ignores_the_diagonal(self, rng):
        for T in col_triplets_above_the_block(rng):
            L, U = seed_gth_factor(T.offdiag, T.sums, False)
            poisoned = T.offdiag.copy()
            np.fill_diagonal(poisoned, np.nan)
            for R in right_hand_sides(rng, T.n):
                y = gth_col_solve(T.offdiag, T.sums, R)
                assert_within_4nu(y, seed_gth_solve(L, U, R), T.n)
                assert same_bits(gth_col_solve(poisoned, T.sums, R), y)

    @pytest.mark.parametrize("pairs", [False, True], ids=["binary64", "double-double"])
    def test_nonnegative_rhs_gives_nonnegative_solution(self, rng, pairs):
        wrap = DD if pairs else np.asarray
        for T in col_triplets_above_the_block(rng):
            for R in right_hand_sides(rng, T.n):
                y = gth_col_solve(wrap(T.offdiag), wrap(T.sums), wrap(R))
                assert ((y.to_float() if pairs else y) >= 0.0).all()

    @pytest.mark.parametrize("pairs", [False, True], ids=["binary64", "double-double"])
    def test_zero_pivot_in_the_trailing_recursion(self, rng, pairs):
        # zero column sums and a dense pattern: every leading block has the
        # positive sums of the rows below it, and the singularity surfaces as
        # the last pivot, which the innermost trailing block computes
        n = 2 * GTH_BLOCK + 1
        N = rng.random((n, n)) + 0.1
        np.fill_diagonal(N, 0.0)
        rhs = rng.random(n)
        wrap = DD if pairs else np.asarray
        last_only = np.zeros(n)
        last_only[-1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gth_col_solve(wrap(N), wrap(last_only), wrap(rhs))
            # the step is counted in the whole system, not in the inner block
            with pytest.raises(SingularPivotError, match=f"zero pivot at step {n}$"):
                gth_col_solve(wrap(N), wrap(np.zeros(n)), wrap(rhs))

    def test_pair_matmul_is_a_loop_of_dd_sum_folds(self, rng):
        def pairs(shape):
            hi = rng.random(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
            return DD(hi, hi * 2.0 ** -60 * rng.uniform(-1.0, 1.0, shape))

        A, B, v = pairs((7, 13)), pairs((13, 5)), pairs(13)
        cases = (
            (A @ B, [dd_sum(A[i] * B[:, j]) for i in range(7) for j in range(5)]),
            (A @ v, [dd_sum(A[i] * v) for i in range(7)]),
            (v @ B, [dd_sum(v * B[:, j]) for j in range(5)]),
        )
        for got, loop in cases:
            assert same_bits(got.hi.ravel(), np.array([float(e.hi) for e in loop]))
            assert same_bits(got.lo.ravel(), np.array([float(e.lo) for e in loop]))


# The compiled leaf: _eliminate runs mmatrix._GTH_C on binary64 arrays, asked
# to solve its back-substitution too, and the Python pass (with
# _unit_upper_solve) is its specification.  Switching the leaf off
# (_gth_leaf = None) runs the Python pass, as on a machine without a C
# compiler.

needs_leaf = pytest.mark.skipif(mmatrix._gth_leaf is None, reason="no compiled GTH leaf")


def test_leaf_is_compiled_when_a_c_compiler_is_on_path():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert mmatrix._gth_leaf is not None


def test_graph_product_is_compiled_when_a_c_compiler_is_on_path(monkeypatch):
    # a build without the kernel would pass every bit test on the numpy
    # expression; a graph past the slab bound must run it
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    kernel = mmatrix._graph_product
    assert kernel is not None and kernel.argtypes is not None
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(mmatrix, "_graph_product", counted)
    n = 17
    A = ~np.eye(n, dtype=bool)  # no loops: S stores fewer than n^3 entries
    P = build_pagerank_tensor(Adjacency(matrix=A), np.full(n, 1.0 / n), 0.1)
    contract_sym(P, np.full(n, 0.5))
    assert len(calls) == 1


def both_passes(monkeypatch, W, offset=0, view=lambda V: V, solve=False, leaves=None):
    """_eliminate(view(V), offset, solve) on copies V of W by each of leaves,
    by default the leaf and the Python pass (None): for each, the pivots'
    bytes or the SingularPivotError's message, and V's bytes after."""
    results = []
    for leaf in leaves or (mmatrix._gth_leaf, None):
        V = W.copy()
        with monkeypatch.context() as m:
            m.setattr(mmatrix, "_gth_leaf", leaf)
            try:
                outcome = _eliminate(view(V), offset, solve).tobytes()
            except SingularPivotError as exc:
                outcome = str(exc)
        results.append((outcome, V.tobytes()))
    return results


def random_augmented(rng, n, extra):
    """An augmented W: zeros, entries 1e-8 .. 1e8, column sums down to 1e-16."""
    shape = (n + 1, n + extra)
    W = rng.random(shape) * 10.0 ** rng.integers(-8, 9, shape)
    W[rng.random(shape) < 0.2] = 0.0
    W[n, :n] *= 10.0 ** rng.integers(-16, 1, n)
    return W


@needs_leaf
class TestCompiledLeaf:
    def test_same_bits_as_the_python_pass(self, monkeypatch, rng):
        for n in [*range(1, 20), *rng.integers(20, 141, 40)]:
            W = random_augmented(rng, n, int(rng.integers(0, 61)))
            leaf, python = both_passes(monkeypatch, W)
            assert leaf == python, n

    def test_solve_same_bits_as_the_python_pass(self, monkeypatch, rng):
        # elimination and back-substitution in one call, against the
        # elimination and _unit_upper_solve in numpy: every leaf size, then
        # sizes up to 2 GTH_BLOCK + 1, with 0, 1, 3 and n right-hand sides
        for n in [*range(1, GTH_BLOCK + 1), *rng.integers(GTH_BLOCK + 1, 2 * GTH_BLOCK + 2, 6)]:
            for extra in sorted({0, 1, 3, int(n)}):
                W = random_augmented(rng, n, extra)
                leaf, python = both_passes(monkeypatch, W, solve=True)
                assert leaf == python, (n, extra)

    @pytest.mark.parametrize("solve", [False, True], ids=["eliminate", "solve"])
    def test_same_bits_on_the_views_the_blocked_solve_passes(self, monkeypatch, rng, solve):
        # _solve_in_place hands the pass row-strided views of one array:
        # the leading block W[: h + 1] and the trailing block W[h:, h:]
        for n in (2 * GTH_BLOCK + 1, 139):
            W = random_augmented(rng, n, 3)
            h = n // 2
            for view in (lambda V: V[: h + 1], lambda V: V[h:, h:],
                         lambda V: V[h:, h:][: (n - h) // 2 + 1]):
                assert view(W).strides[0] == W.strides[0]
                leaf, python = both_passes(monkeypatch, W, view=view, solve=solve)
                assert leaf == python, (n, view(W).shape)

    def test_same_bits_on_columns_the_pairwise_sum_halves(self, monkeypatch, rng):
        # numpy sums a column of more than 128 entries by halves; an
        # unblocked pass sums them at null_vector and partial_inverse sizes
        for n in (128, 129, 136, 200, 255, 256, 257, 300):
            leaf, python = both_passes(monkeypatch, random_augmented(rng, n, 1))
            assert leaf == python, n

    @pytest.mark.parametrize("solve", [False, True], ids=["eliminate", "solve"])
    def test_zero_pivot_raises_at_the_same_step(self, monkeypatch, rng, solve):
        for n, k in ((1, 0), (5, 0), (5, 2), (30, 29), (60, 17)):
            W = random_augmented(rng, n, 2)
            W[:, k] = 0.0  # the updates before step k add W_jk = 0 below it
            leaf, python = both_passes(monkeypatch, W, offset=7, solve=solve)
            assert leaf == python
            assert leaf[0] == f"zero pivot at step {7 + k + 1}"

    @pytest.mark.parametrize("solve", [False, True], ids=["eliminate", "solve"])
    def test_nan_passes_through_quietly(self, monkeypatch, rng, solve):
        W = random_augmented(rng, 12, 2)
        W[4, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            V = W.copy()
            d = _eliminate(V, solve=solve)
        assert np.isnan(d[2:]).all() and not np.isnan(d[:2]).any()
        assert np.isnan(V[:12, 12:]).all() == solve
        leaf, python = both_passes(monkeypatch, W, solve=solve)
        assert leaf == python

    def test_the_avx512f_entry_gives_the_baseline_entrys_bytes(self, monkeypatch, rng):
        lib = mmatrix._avx512f_kernels(mmatrix._pair_kernels)
        if lib is None:
            pytest.skip("this CPU or library does not run the AVX-512F entry")
        entries = (lib.gth_eliminate_avx512f, lib.gth_eliminate)
        assert mmatrix._gth_leaf is entries[0]
        for n in [*range(1, 20), *rng.integers(20, 2 * GTH_BLOCK + 2, 30)]:
            W = random_augmented(rng, n, int(rng.integers(0, 2 * n + 1)))
            for solve in (False, True):
                fast, baseline = both_passes(monkeypatch, W, solve=solve, leaves=entries)
                assert fast == baseline, (n, solve)

    @pytest.mark.parametrize("n", [1, 4, 2 * GTH_BLOCK + 1])
    def test_solvers_and_diagnostics_give_the_same_bytes_without_it(self, monkeypatch, n):
        def outputs():
            rng = np.random.default_rng(n)
            p = random_pagerank_problem(rng, n, 0.49, density=0.5)
            blocks = (n // 2, n - n // 2) if n > 1 else (1,)
            x = solve(p, SolverOptions()).x
            T = random_row_triplet(rng, n)
            pi = partial_inverse(T)
            return [
                x,
                solve(p, SolverOptions(method=Method.BLOCK_JACOBI, block_sizes=blocks)).x,
                null_vector(TripletMMatrix(T.offdiag, np.zeros(n), ROW)),
                pi.z,
                pi.S,
                np.array([omega(p, x)]),
            ]

        compiled = outputs()
        monkeypatch.setattr(mmatrix, "_gth_leaf", None)
        for got, want in zip(outputs(), compiled):
            assert same_bits(got, want)


# The compiled pair kernels: dd_gth_solve runs _eliminate (and, asked to
# solve, _back_substitute) on DD arrays, dd_fold and dd_fold_runs the folds
# of precision.dd_sum, and the pair products (_pair_products) precision's
# slab, its products and its sparse products.  The Python code is their
# specification; _pair_kernels = _pair_products = None runs it, as on a
# machine without a C compiler.

needs_pair_kernels = pytest.mark.skipif(mmatrix._pair_kernels is None,
                                        reason="no compiled pair kernels")


def random_pairs(rng, shape):
    """Pairs with hi 1e-8 .. 1e8 and zeros, lo up to half an ulp of hi."""
    hi = rng.random(shape) * 10.0 ** rng.integers(-8, 9, shape)
    hi[rng.random(shape) < 0.2] = 0.0
    return DD(hi, hi * 2.0 ** -54 * rng.uniform(-1.0, 1.0, shape))


def random_pair_augmented(rng, n, extra, identity=False):
    """An augmented pair W as random_augmented's, or, with identity, with
    the n x n identity for right-hand sides, as gth_partial_inverse has."""
    W = random_pairs(rng, (n + 1, n + (n if identity else extra)))
    W.hi[n, :n] *= 10.0 ** rng.integers(-16, 1, n)
    W.lo[n, :n] *= 2.0 ** -30
    if identity:
        W[:n, n:] = np.eye(n)
    return W


def same_values(a, b):
    """Equal bits, except that any NaN equals any NaN: numpy may pick another
    NaN operand's sign than C where two meet."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a) & np.isnan(b)
    return a.shape == b.shape and bool(((a.view(np.int64) == b.view(np.int64)) | nan).all())


def with_and_without_pair_kernels(monkeypatch, run):
    """run() with the compiled pair kernels and with the Python code, each
    with numpy's warnings off: its arrays, or the exception's type and
    message."""
    outcomes = []
    for kernels, products in ((mmatrix._pair_kernels, mmatrix._pair_products), (None, None)):
        with monkeypatch.context() as m, np.errstate(all="ignore"):
            m.setattr(mmatrix, "_pair_kernels", kernels)
            m.setattr(mmatrix, "_pair_products", products)
            try:
                outcomes.append(run())
            except (ArithmeticError, ValueError) as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


def assert_same_outcomes(outcomes):
    compiled, python = outcomes
    if isinstance(python, str):
        assert compiled == python
        return
    assert len(compiled) == len(python)
    for got, want in zip(compiled, python):
        assert same_values(got, want)


def pair_pass(W, offset=0, solve=False, view=lambda V: V):
    """A run of _eliminate on view(V) for a copy V of W: the pivots and V."""
    def run():
        V = W.copy()
        d = _eliminate(view(V), offset, solve)
        return d.hi, d.lo, V.hi, V.lo
    return run


@needs_pair_kernels
class TestCompiledPairKernels:
    def test_leaf_same_bits_as_the_python_pass(self, monkeypatch, rng):
        for n in range(1, 41):
            # 0, 1 and more right-hand sides in turn, with and without the solve
            extra = (0, 1, int(rng.integers(2, n + 2)))[n % 3]
            W = random_pair_augmented(rng, n, extra)
            assert_same_outcomes(with_and_without_pair_kernels(
                monkeypatch, pair_pass(W, solve=n % 2 == 0)))
            # the identity of gth_partial_inverse, solved in one pass
            W = random_pair_augmented(rng, n, 0, identity=True)
            assert_same_outcomes(with_and_without_pair_kernels(
                monkeypatch, pair_pass(W, solve=True)))

    def test_same_bits_on_the_views_the_blocked_solve_passes(self, monkeypatch, rng):
        for n in (2 * GTH_BLOCK + 1, 139):
            W = random_pair_augmented(rng, n, 3)
            h = n // 2
            for view in (lambda V: V[: h + 1], lambda V: V[h:, h:],
                         lambda V: V[h:, h:][: (n - h) // 2 + 1]):
                assert view(W).hi.strides[0] == W.hi.strides[0]
                assert_same_outcomes(with_and_without_pair_kernels(
                    monkeypatch, pair_pass(W, solve=True, view=view)))

    def test_blocked_solve_gives_the_same_bits(self, monkeypatch, rng):
        # the leaves, and the folds of the Schur products and column sums
        for n in (2 * GTH_BLOCK + 1, 4 * GTH_BLOCK + 1):
            N = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
            np.fill_diagonal(N, 0.0)
            sums = rng.random(n) * 10.0 ** -rng.integers(0, 14, n)
            for rhs in right_hand_sides(rng, n):
                def run():
                    y = gth_col_solve(DD(N), DD(sums), DD(rhs))
                    return y.hi, y.lo
                assert_same_outcomes(with_and_without_pair_kernels(monkeypatch, run))

    def test_zero_pivot_raises_at_the_same_step(self, monkeypatch, rng):
        for n, k in ((1, 0), (5, 0), (5, 2), (30, 29), (40, 17)):
            for solve in (False, True):
                W = random_pair_augmented(rng, n, 2)
                W[:, k] = 0.0  # the updates before step k add W_jk = 0 below it
                outcomes = with_and_without_pair_kernels(
                    monkeypatch, pair_pass(W, offset=7, solve=solve))
                assert outcomes[0] == outcomes[1] == (
                    f"SingularPivotError: zero pivot at step {7 + k + 1}")
        # a pivot of parts that cancel exactly is zero too
        W = random_pair_augmented(rng, 3, 1)
        W[1:, 0] = 0.0
        W.hi[1, 0], W.lo[1, 0], W.hi[2, 0] = 1.0, 2.0 ** -60, -1.0 - 2.0 ** -52
        W.lo[3, 0] = 2.0 ** -52 - 2.0 ** -60
        outcomes = with_and_without_pair_kernels(monkeypatch, pair_pass(W))
        assert outcomes[0] == outcomes[1] == "SingularPivotError: zero pivot at step 1"

    @pytest.mark.parametrize("values,outcome", [
        ((np.nan,), None),
        ((np.inf,), None),
        ((-np.inf,), None),
        ((np.inf, -np.inf), "ValueError: -inf + inf in fsum"),
        ((1.5e308, 1.5e308), "OverflowError: intermediate overflow in fsum"),
    ], ids=["nan", "inf", "-inf", "inf-inf", "overflow"])
    def test_non_finite_pivot_columns_take_the_python_pass(self, monkeypatch, rng,
                                                           values, outcome):
        # from that step on: math.fsum's NaN, inf and errors stand.  Values
        # set right of column 0 are updated before their pivot sum, where a
        # pair add of inf makes NaN.
        for n, k, part in ((6, 0, "hi"), (6, 0, "lo"), (6, 3, "lo"), (12, 10, "hi")):
            W = random_pair_augmented(rng, n, 2)
            for i, value in enumerate(values):
                getattr(W, part)[k + 1 + i, k] = value
            outcomes = with_and_without_pair_kernels(monkeypatch, pair_pass(W, solve=True))
            assert_same_outcomes(outcomes)
            if k == 0 and outcome is not None:
                assert outcomes[1] == outcome

    def test_non_finite_right_hand_sides_give_the_same_values(self, monkeypatch, rng):
        W = random_pair_augmented(rng, 9, 3)
        W.hi[2, 9], W.hi[5, 10], W.lo[7, 11] = np.nan, np.inf, -np.inf
        assert_same_outcomes(with_and_without_pair_kernels(monkeypatch, pair_pass(W, solve=True)))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, GTH_BLOCK, 2 * GTH_BLOCK + 1])
    def test_null_profile_on_pairs(self, monkeypatch, rng, n):
        N = random_pairs(rng, (n, n))
        N[np.arange(n), np.arange(n)] = 0.0
        N.hi[N.hi == 0.0] = 1e-3  # irreducible: every pivot positive

        def run():
            t, d = _null_profile(N)
            return t.hi, t.lo, d.hi, d.lo
        assert_same_outcomes(with_and_without_pair_kernels(monkeypatch, run))

    def test_folds_of_every_length_to_70(self, monkeypatch, rng):
        for m in range(71):
            v, w = random_pairs(rng, (m, 2, 3)), random_pairs(rng, (m, 2, 3))
            A, B, x = random_pairs(rng, (4, m)), random_pairs(rng, (m, 5)), random_pairs(rng, m)
            cases = [
                lambda: dd_sum(v[:, 0, 0]), lambda: dd_sum(v[:, 1]), lambda: dd_sum(v),
                lambda: dd_sum(v * w), lambda: dd_sum(v * x[:, None, None]),
                lambda: dd_sum(v.transpose(0, 2, 1)), lambda: dd_sum(v.reshape(m, 1, 2, 3)),
                lambda: A @ x, lambda: x @ B, lambda: A @ B, lambda: x @ x,
            ]
            for case in cases:
                def run(case=case):
                    out = case()
                    return out.hi, out.lo
                assert_same_outcomes(with_and_without_pair_kernels(monkeypatch, run))

    def test_mismatched_products_raise_either_way(self, monkeypatch, rng):
        A, x = random_pairs(rng, (4, 5)), random_pairs(rng, 4)
        for kernels in (mmatrix._pair_kernels, None):
            monkeypatch.setattr(mmatrix, "_pair_kernels", kernels)
            with pytest.raises(ValueError):
                A @ x

    def test_segment_folds_of_every_length_to_70(self, monkeypatch, rng):
        lengths = rng.permutation(np.repeat(np.arange(71), 2))
        keys = np.repeat(np.arange(len(lengths)), lengths)
        bounds = np.searchsorted(keys, np.arange(len(lengths) + 4))  # 3 empty runs last
        weights = random_pairs(rng, len(keys))
        # dd_contract_sym's form: many more terms than stored values
        vals, x = random_pairs(rng, 50), random_pairs(rng, 9)
        products = vals[rng.integers(0, 50, len(keys))] * x[rng.integers(0, 9, len(keys))]
        for terms in (weights, products, weights[::-1]):
            def run(terms=terms):
                out = _dd_segment_sums(terms, bounds)
                return out.hi, out.lo
            assert_same_outcomes(with_and_without_pair_kernels(monkeypatch, run))
        for kernels in (mmatrix._pair_kernels, None):
            monkeypatch.setattr(mmatrix, "_pair_kernels", kernels)
            with pytest.raises(IndexError):  # a bound past the terms
                _dd_segment_sums(weights[:-1], bounds)

    @pytest.mark.parametrize("name", ["intro", "ex1", "ex2"])
    def test_references_and_omega_give_the_same_bits(self, monkeypatch, name):
        # the slab path (a tensor that stores every entry) and the terms path
        rng = np.random.default_rng(5)
        problems = [builtin(name, a, one_minus_two_alpha=1.0 - 2.0 * a) for a in (0.3, 0.5)]
        problems.append(random_pagerank_problem(rng, 6, 0.49))

        def run():
            outs = []
            for p in problems:
                ref = reference_solution(p)
                outs += [ref.x_pair.hi, ref.x_pair.lo, np.array([ref.iterations]),
                         np.array([ref.residual_norm])]
            p = builtin(name, 0.5 - 2.0 ** -40, one_minus_two_alpha=2.0 ** -39)
            outs.append(np.array([omega(p, solve(p, SolverOptions()).x)]))
            return outs
        assert_same_outcomes(with_and_without_pair_kernels(monkeypatch, run))


def across_pair_products(monkeypatch, run):
    """run() with the pair products chosen at import (the AVX-512F entries
    where the CPU runs them), with their baseline entries, and with every
    pair kernel off, each with numpy's warnings off: a dict of its arrays,
    or of the exception's type and message."""
    lib = mmatrix._pair_kernels
    baseline = types.SimpleNamespace(**{name: getattr(lib, name)
                                        for name, _, _ in mmatrix._PAIR_PRODUCTS})
    outcomes = {}
    for name, kernels, products in (("chosen", lib, mmatrix._pair_products),
                                    ("baseline", lib, baseline), ("off", None, None)):
        with monkeypatch.context() as m, np.errstate(all="ignore"):
            m.setattr(mmatrix, "_pair_kernels", kernels)
            m.setattr(mmatrix, "_pair_products", products)
            try:
                outcomes[name] = run()
            except (ArithmeticError, ValueError, IndexError) as exc:
                outcomes[name] = f"{type(exc).__name__}: {exc}"
    return outcomes


def assert_same_product_bits(monkeypatch, run):
    outcomes = across_pair_products(monkeypatch, run)
    for name in ("chosen", "baseline"):
        assert_same_outcomes([outcomes[name], outcomes["off"]])


def parts(case):
    """A run of case(): its DD's two parts."""
    def run():
        out = case()
        return out.hi, out.lo
    return run


@needs_pair_kernels
class TestCompiledPairProducts:
    """precision's slab, products and sparse products at n = 1 to 33, with
    nonzero lo parts: the same bits from every entry and from numpy."""

    def test_slab_with_and_without_renormalization(self, monkeypatch, rng):
        for n in range(1, 34):
            vals = random_pairs(rng, n ** 3)
            alpha = DD(rng.random(), rng.random() * 2.0 ** -60)
            for a in (None, alpha):
                assert_same_product_bits(monkeypatch, parts(lambda: precision.dd_slab(vals, n, a)))

    def test_slab_product_and_products_with_a_vector(self, monkeypatch, rng):
        for n in range(1, 34):
            K, C, A = (random_pairs(rng, shape) for shape in ((n, n, n), (n, n), (n, n + 3)))
            x, y = random_pairs(rng, n), random_pairs(rng, n + 3)
            for case in (lambda: precision.dd_contract_slab(K, x), lambda: K @ x,
                         lambda: C @ x, lambda: C.T @ x, lambda: A @ y, lambda: A.T @ x,
                         lambda: x @ x, lambda: C @ x.hi, lambda: C @ y):
                assert_same_product_bits(monkeypatch, parts(case))

    def test_sparse_product(self, monkeypatch, rng):
        for n in range(1, 34):
            U = rng.random((n, n * n)) * (rng.random((n, n * n)) < 0.3)
            B = Tensor3.from_unfolding(U)
            vals = DD(B.vals, B.vals * 2.0 ** -54 * rng.uniform(-1.0, 1.0, B.nnz))
            S, x = precision.dd_sym_matrix(B, vals), random_pairs(rng, n)
            assert_same_product_bits(monkeypatch, parts(lambda: precision.dd_contract_sym(S, x)))

    @pytest.mark.parametrize("indices,row_ptr", [
        ([0, 1, 0, 1, 1, 0], [0, 3, 3, 5, 6]),  # a row of three entries, past n = 2
        ([0, 1, 0, 1, 1, 2], [0, 2, 2, 4, 6]),  # a column index past n
        ([0, 1, 0, 1, 1, 0], [0, 4, 3, 5, 6]),  # a row pointer out of order
    ], ids=["long-row", "index", "order"])
    def test_a_sparse_matrix_the_kernel_refuses_takes_the_numpy_path(self, monkeypatch, rng,
                                                                   indices, row_ptr):
        S = (random_pairs(rng, 6), np.array(indices), np.array(row_ptr))
        x = random_pairs(rng, 2)
        outcomes = across_pair_products(monkeypatch, parts(lambda: precision.dd_contract_sym(S, x)))
        for name in ("chosen", "baseline"):
            assert_same_outcomes([outcomes[name], outcomes["off"]])
        assert isinstance(outcomes["off"], str) == (indices[-1] == 2)


def test_kernel_source_compiles_without_warnings(tmp_path):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    out = subprocess.run(
        [cc, *mmatrix._GTH_FLAGS, "-Wall", "-Wextra", "-Werror", "-x", "c", "-",
         "-o", str(tmp_path / "gth.so")],
        input=mmatrix._GTH_C, text=True, capture_output=True, timeout=120,
    )
    assert (out.returncode, out.stderr) == (0, "")


def cpu_has_avx512f():
    """Whether /proc/cpuinfo lists AVX-512F; None where there is no such file."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info = fh.read()
    except OSError:
        return None
    return re.search(r"^flags\s*:.*\bavx512f\b", info, re.MULTILINE) is not None


def test_the_library_exports_the_half_slab_product_where_the_cpu_runs_it():
    # a silent fall-back to einsum would pass every bit test
    if shutil.which("cc") is None or platform.machine() != "x86_64" or not cpu_has_avx512f():
        pytest.skip("no C compiler, or not an x86-64 CPU with AVX-512F")
    assert mmatrix._half_slab is not None and mmatrix._half_slab is mmatrix._pair_kernels
    for name in ("half_slab_build", "half_slab_contract"):
        assert getattr(mmatrix._half_slab, name).argtypes is not None
    assert mmatrix._gth_leaf is mmatrix._half_slab.gth_eliminate_avx512f
    for name, _, _ in mmatrix._PAIR_PRODUCTS:
        entry = getattr(mmatrix._pair_products, name)
        assert entry is getattr(mmatrix._half_slab, name + "_avx512f")
        assert entry.argtypes is not None


def kernel_outputs():
    """The bytes of a blocked and a leaf binary64 GTH solve, a pair GTH
    solve, a pair fold and a full tensor's product with n = 40."""
    rng = np.random.default_rng(40)
    n = GTH_BLOCK + 20
    N = rng.random((n, n))
    sums, rhs = rng.random(n), rng.random(n)
    pairs = DD(N[:6, :6], N[:6, :6] * 2.0 ** -60)
    y = gth_col_solve(pairs, DD(sums[:6], sums[:6] * 2.0 ** -60), DD(rhs[:6], 0.0 * rhs[:6]))
    fold = dd_sum(DD(N[:60, :60], N[:60, :60] * 2.0 ** -60))
    B = Tensor3.from_unfolding(rng.random((40, 1600)))
    return [gth_col_solve(N, sums, rhs).tobytes(),
            gth_col_solve(N[:60, :60], sums[:60], rhs[:60, None] * [1.0, 0.5, 2.0]).tobytes(),
            y.hi.tobytes(), y.lo.tobytes(), fold.hi.tobytes(), fold.lo.tobytes(),
            contract_sym(B, rhs[:40]).tobytes(),
            np.einsum("kij,k->ij", B.slab(), rhs[:40]).tobytes()]


def without_the_product_source(missing):
    """_GTH_C as a compiler builds it that is not for x86-64 or lacks the
    target attribute (missing None: the source up to the product's guard),
    or whose <cpuid.h> does not define the name missing."""
    if missing is None:
        source, guard, _ = mmatrix._GTH_C.partition("#if defined(__x86_64__)")
        assert guard
        return source
    include = "#include <cpuid.h>\n"
    assert mmatrix._GTH_C.count(include) == 1
    return mmatrix._GTH_C.replace(include, f"{include}#undef {missing}\n")


@pytest.mark.parametrize("missing", [None, "__cpuid_count", "bit_AVX512F", "bit_OSXSAVE"],
                         ids=["guard", "__cpuid_count", "bit_AVX512F", "bit_OSXSAVE"])
def test_a_library_without_the_product_keeps_the_gth_and_pair_kernels(tmp_path, monkeypatch,
                                                                     missing):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    source = without_the_product_source(missing)
    path = tmp_path / "gth.so"
    subprocess.run([cc, *mmatrix._GTH_FLAGS, "-x", "c", "-", "-o", str(path)], input=source,
                   text=True, capture_output=True, check=True, timeout=120)
    lib = mmatrix._bind(ctypes.CDLL(str(path)))
    assert getattr(lib, "half_slab_contract", None) is None
    assert mmatrix._avx512f_kernels(lib) is None
    # the binary64 solves through the baseline leaf, the pair products
    # through their baseline entries, which the source cut at the guard lacks
    assert mmatrix._leaf(lib) is lib.gth_eliminate
    products = mmatrix._pair_entries(lib)
    if missing is None:
        assert products is None
    else:
        assert all(getattr(products, name) is getattr(lib, name)
                   for name, _, _ in mmatrix._PAIR_PRODUCTS)
    want = kernel_outputs()
    monkeypatch.setattr(mmatrix, "_pair_kernels", lib)
    monkeypatch.setattr(mmatrix, "_gth_leaf", mmatrix._leaf(lib))
    monkeypatch.setattr(mmatrix, "_half_slab", mmatrix._avx512f_kernels(lib))
    got = kernel_outputs()
    assert got == want
    assert got[-2] == got[-1]  # the product is einsum's
    monkeypatch.setattr(mmatrix, "_gth_leaf", None)
    assert kernel_outputs()[:2] == got[:2]  # the specification's bytes


# Commands whose outputs go through the compiled kernels or their fallback:
# binary64 GTH solves, and pair references near and at alpha = 1/2.
CLI_CALLS = (
    ["solve", "--builtin", "ex1", "--alpha", "0.3"],
    ["compare", "--builtin", "ex1", "--alpha", "0.5", "--one-minus-two-alpha", "0.0",
     "--methods", "newton-gth,newton"],
    ["perturb", "--builtin", "ex1", "--alpha", "0.49999", "--one-minus-two-alpha", "2e-05",
     "--epsilon", "1e-8", "--trials", "2", "--reference"],
)


def run_cli(tmp_path, path):
    """cli.main on each of CLI_CALLS, printing its exit code after its output,
    in one fresh process, with an empty home and cache and the given PATH,
    from the checkout; returns the completed process."""
    src = os.path.dirname(os.path.dirname(mlpagerank.__file__))
    home = tmp_path / "home"
    home.mkdir(exist_ok=True)
    env = dict(os.environ, HOME=str(home), XDG_CACHE_HOME=str(home / ".cache"), PATH=path,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = ("import json, sys\nfrom mlpagerank import cli\n"
              "for argv in json.loads(sys.argv[1]):\n    print('exit', cli.main(argv))\n")
    return subprocess.run(
        [sys.executable, "-c", script, json.dumps(CLI_CALLS)],
        capture_output=True, env=env, cwd=os.path.dirname(src), timeout=300,
    )


def checkout_status(root):
    """`git status --porcelain` of the checkout, or None outside a git checkout."""
    if shutil.which("git") is None:
        return None
    out = subprocess.run(["git", "status", "--porcelain"], capture_output=True, cwd=root)
    return out.stdout if out.returncode == 0 else None


def test_cli_output_is_the_same_without_a_c_compiler(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.dirname(mlpagerank.__file__)))
    before = checkout_status(root)
    built = run_cli(tmp_path, os.environ.get("PATH", ""))
    empty = tmp_path / "no-compiler"
    empty.mkdir()
    fallback = run_cli(tmp_path, str(empty))
    assert built.returncode == fallback.returncode == 0
    # compiler output must not reach the JSON on stdout: one JSON line per
    # solve and perturb, one per compared method
    assert built.stderr == b"" and fallback.stderr == b""
    lines = built.stdout.decode().splitlines()
    assert [line for line in lines if line.startswith("exit")] == ["exit 0"] * len(CLI_CALLS)
    assert len(lines) == 2 * len(CLI_CALLS) + 1 and all(
        json.loads(line) for line in lines if not line.startswith("exit"))
    assert fallback.stdout == built.stdout
    if shutil.which("cc") is not None:
        assert len(list((tmp_path / "home" / ".cache" / "mlpagerank").glob("gth-*.so"))) == 1
    assert checkout_status(root) == before


@needs_leaf
def test_unwritable_cache_builds_in_a_private_directory_and_removes_it(tmp_path):
    src = os.path.dirname(os.path.dirname(mlpagerank.__file__))
    (tmp_path / "cache").write_text("a file where the cache directory would go")
    (tmp_path / "tmp").mkdir()
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"), TMPDIR=str(tmp_path / "tmp"),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "from mlpagerank import mmatrix; print(mmatrix._gth_leaf is not None)"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (out.stdout, out.stderr) == ("True\n", "")
    assert list((tmp_path / "tmp").iterdir()) == []


def test_the_package_imports_neither_the_triplet_api_nor_csgraph():
    # the validated triplet wrappers, and with them scipy.sparse.csgraph,
    # live in the tests' triplets module
    src = os.path.dirname(os.path.dirname(mlpagerank.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = ("import sys, mlpagerank\n"
              "print('scipy.sparse.csgraph' in sys.modules)\n"
              "print([name for name in ('TripletMMatrix', 'null_vector', 'partial_inverse',\n"
              "                         'inverse_cw_bound_check') if hasattr(mlpagerank, name)])\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=300)
    assert (out.stdout, out.stderr) == ("False\n[]\n", "")
