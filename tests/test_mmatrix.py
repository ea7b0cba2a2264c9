"""GTH factorization, triplet solves, null vectors, and partial inverses."""

from fractions import Fraction

import numpy as np
import pytest

from mlpagerank import (
    COL,
    ROW,
    ReducibleMatrixError,
    SingularPivotError,
    TripletMMatrix,
    gth_factor,
    gth_solve,
    inverse_cw_bound_check,
    null_vector,
    partial_inverse,
    plain_lu_solve,
    tree_oracle_rs,
    triplet_weights,
)
from mlpagerank.mmatrix import check_irreducible, gth_eliminate, gth_partial_inverse
from mlpagerank.precision import DD

U_FLOAT = np.finfo(float).eps / 2


def random_row_triplet(rng, n):
    N = rng.random((n, n)) + 0.1
    np.fill_diagonal(N, 0.0)
    sums = rng.random(n) + 0.1
    return TripletMMatrix(N, sums, ROW)


class TestTripletValidation:
    def test_rejects_negative_offdiag(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TripletMMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]), np.ones(2))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="zero diagonal"):
            TripletMMatrix(np.eye(2), np.ones(2))

    def test_materialize_row_and_col(self):
        N = np.array([[0.0, 1.0], [2.0, 0.0]])
        row = TripletMMatrix(N, np.array([1.0, 3.0]), ROW).materialize()
        assert np.array_equal(row, np.array([[2.0, -1.0], [-2.0, 5.0]]))
        col = TripletMMatrix(N, np.array([1.0, 3.0]), COL).materialize()
        assert np.array_equal(col, np.array([[3.0, -1.0], [-2.0, 4.0]]))


class TestGTHFactor:
    def test_two_by_two_pivots(self):
        # M = [[2,-1],[-1,2]] with row sums [1,1]: pivots 2 and 1.5, LU = M
        T = TripletMMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2), ROW)
        F = gth_factor(T)
        assert np.array_equal(F.pivots, np.array([2.0, 1.5]))
        assert np.array_equal(F.lower @ F.upper, T.materialize())

    def test_one_by_one(self):
        T = TripletMMatrix(np.zeros((1, 1)), np.array([3.0]), ROW)
        F = gth_factor(T)
        assert np.array_equal(F.lower, np.array([[1.0]]))
        assert np.array_equal(F.upper, np.array([[3.0]]))

    def test_singular_only_last_sum_positive(self, rng):
        # sums zero except the last entry: irreducibility keeps pivots positive
        n = 5
        N = rng.random((n, n)) + 0.2
        np.fill_diagonal(N, 0.0)
        sums = np.zeros(n)
        sums[-1] = 0.7
        F = gth_factor(TripletMMatrix(N, sums, ROW))
        assert (F.pivots > 0.0).all()
        M = TripletMMatrix(N, sums, ROW).materialize()
        assert np.max(np.abs(F.lower @ F.upper - M)) <= 5 * n * np.finfo(float).eps * np.abs(M).max()

    def test_lu_reconstruction_random(self, rng):
        for orientation in (ROW, COL):
            for _ in range(10):
                n = int(rng.integers(2, 7))
                N = rng.random((n, n))
                np.fill_diagonal(N, 0.0)
                T = TripletMMatrix(N, rng.random(n) + 0.01, orientation)
                F = gth_factor(T)
                M = T.materialize()
                tol = 10 * n * np.finfo(float).eps * np.abs(M).max()
                assert np.max(np.abs(F.lower @ F.upper - M)) <= tol

    def test_reducible_rejected_with_index_set(self):
        N = np.zeros((3, 3))
        N[0, 1] = 1.0
        N[1, 0] = 1.0  # node 3 disconnected
        with pytest.raises(ReducibleMatrixError, match=r"\["):
            gth_factor(TripletMMatrix(N, np.ones(3), ROW))

    def test_zero_pivot_raises(self):
        N = np.zeros((2, 2))
        with pytest.raises((SingularPivotError, ReducibleMatrixError)):
            gth_factor(TripletMMatrix(N, np.zeros(2), ROW), check=False)


class TestGTHSolve:
    def test_identity(self):
        T = TripletMMatrix(np.zeros((3, 3)), np.ones(3), ROW)
        F = gth_factor(T, check=False)
        b = np.array([0.3, 0.1, 2.0])
        assert np.array_equal(gth_solve(F, b), b)

    def test_row_sums_vector(self):
        # M 1 = sums, so b = sums returns the all-ones vector
        T = TripletMMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2), ROW)
        x = gth_solve(gth_factor(T), np.array([1.0, 1.0]))
        assert np.max(np.abs(x - 1.0)) <= 1e-15

    def test_matrix_rhs(self, rng):
        T = random_row_triplet(rng, 4)
        F = gth_factor(T)
        eye = np.eye(4)
        cols = gth_solve(F, eye)
        M = T.materialize()
        assert np.max(np.abs(M @ cols - eye)) <= 1e-12

    def test_ill_conditioned_matches_pair_precision(self, rng):
        # column sums at 1e-13: componentwise agreement with the pair oracle
        n = 8
        N = rng.random((n, n)) + 0.05
        np.fill_diagonal(N, 0.0)
        sums = np.full(n, 1e-13)
        T = TripletMMatrix(N, sums, COL)
        b = rng.random(n)
        x = gth_solve(gth_factor(T), b)
        x_dd = gth_solve(gth_eliminate(DD(N), DD(sums), COL), DD(b)).to_float()
        assert np.max(np.abs(x - x_dd) / np.abs(x_dd)) <= 1e-12


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
            S_dd = gth_partial_inverse(DD(N), DD(sums)).S.to_float()
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


def test_plain_lu_solve_matches_numpy(rng):
    A = rng.random((4, 4)) + np.eye(4)
    b = rng.random(4)
    assert np.allclose(plain_lu_solve(A, b), np.linalg.solve(A, b))


def test_plain_lu_solve_singular():
    with pytest.raises(SingularPivotError):
        plain_lu_solve(np.zeros((2, 2)), np.ones(2))


# The seed's binary64 formulas, kept verbatim as the reference the shared
# kernel must reproduce bit for bit.

def seed_gth_factor(N, sig, by_row):
    n = N.shape[0]
    N = N.copy()
    sig = sig.copy()
    L = np.eye(n)
    U = np.zeros((n, n))
    for k in range(n):
        if by_row:
            d = sig[k] + N[k, k + 1 :].sum()
        else:
            d = sig[k] + N[k + 1 :, k].sum()
        U[k, k] = d
        U[k, k + 1 :] = -N[k, k + 1 :]
        L[k + 1 :, k] = -N[k + 1 :, k] / d
        if k < n - 1:
            N[k + 1 :, k + 1 :] += np.outer(N[k + 1 :, k], N[k, k + 1 :]) / d
            np.fill_diagonal(N[k + 1 :, k + 1 :], 0.0)
            if by_row:
                sig[k + 1 :] += N[k + 1 :, k] * (sig[k] / d)
            else:
                sig[k + 1 :] += N[k, k + 1 :] * (sig[k] / d)
    return L, U


def seed_gth_solve(L, U, b):
    squeeze = b.ndim == 1
    y = np.array(b, ndmin=2, copy=True).T if squeeze else b.copy()
    n = L.shape[0]
    G = -L
    for k in range(1, n):
        y[k] += G[k, :k] @ y[:k]
    piv = np.diag(U)
    W = -U
    x = np.empty_like(y)
    for k in range(n - 1, -1, -1):
        x[k] = (y[k] + W[k, k + 1 :] @ x[k + 1 :]) / piv[k]
    return x[:, 0] if squeeze else x


def seed_null_elimination(N):
    n = N.shape[0]
    N = N.copy()
    mult = np.zeros((n, n))
    piv = np.empty(n - 1)
    for k in range(n - 1):
        d = N[k, k + 1 :].sum()
        piv[k] = d
        mult[k + 1 :, k] = N[k + 1 :, k] / d
        N[k + 1 :, k + 1 :] += np.outer(N[k + 1 :, k], N[k, k + 1 :]) / d
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


def exact_gth_factor(N, sig, by_row):
    """The GTH recurrences in exact rational arithmetic."""
    n = len(sig)
    N = [[Fraction(float(v)) for v in row] for row in N]
    sig = [Fraction(float(v)) for v in sig]
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    U = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        rest = range(k + 1, n)
        U[k][k] = sig[k] + sum(N[k][j] if by_row else N[j][k] for j in rest)
        for j in rest:
            U[k][j] = -N[k][j]
            L[j][k] = -N[j][k] / U[k][k]
        for i in rest:
            for j in rest:
                N[i][j] += N[i][k] * N[k][j] / U[k][k] if i != j else 0
            sig[i] += (N[i][k] if by_row else N[k][i]) * sig[k] / U[k][k]
    return L, U


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
    def test_float_factor_and_solve_match_seed_formulas(self, rng):
        count = 0
        for T in ill_conditioned_triplets(rng):
            F = gth_factor(T, check=False)
            L, U = seed_gth_factor(T.offdiag, T.sums, T.orientation == ROW)
            assert same_bits(F.lower, L) and same_bits(F.upper, U)
            for b in (rng.random(T.n), rng.random((T.n, 3)), np.eye(T.n)):
                assert same_bits(gth_solve(F, b), seed_gth_solve(L, U, b))
            count += 1
        assert count >= 100

    def test_float_null_vector_and_partial_inverse_match_seed_formulas(self, rng):
        for T in ill_conditioned_triplets(rng, orientations=(ROW,)):
            if T.n > 1:
                zero_sum = TripletMMatrix(T.offdiag, np.zeros(T.n), ROW)
                assert same_bits(null_vector(zero_sum), seed_null_vector(T.offdiag))
            pi = partial_inverse(T)
            z, S = seed_partial_inverse(T.offdiag, T.sums)
            assert same_bits(pi.z, z) and same_bits(pi.S, S)

    def test_pair_and_float_factors_agree_componentwise(self, rng):
        # every factor entry is a sum of nonnegative terms, each produced by
        # at most n steps of a product, a quotient and an addition, so the
        # binary64 factors agree with the pair ones to within 4 n u
        for T in ill_conditioned_triplets(rng):
            F = gth_factor(T, check=False)
            F_dd = gth_eliminate(DD(T.offdiag), DD(T.sums), T.orientation)
            for got, want in ((F.lower, F_dd.lower), (F.upper, F_dd.upper)):
                assert ((got == 0.0) == (want.hi == 0.0)).all()
                nz = want.hi != 0.0
                err = np.abs((DD(got) - want).to_float())[nz]
                assert (err <= 4 * T.n * U_FLOAT * np.abs(want.to_float()[nz])).all()

    def test_pair_factors_match_exact_rationals(self, rng):
        # the same argument in pair arithmetic, unit roundoff 2^-106
        for T in ill_conditioned_triplets(rng):
            if T.n > 5:
                continue
            F = gth_eliminate(DD(T.offdiag), DD(T.sums), T.orientation)
            exact = exact_gth_factor(T.offdiag, T.sums, T.orientation == ROW)
            for got, want in zip((F.lower, F.upper), exact):
                for (i, j), w in np.ndenumerate(np.array(want, dtype=object)):
                    err = abs(Fraction(float(got.hi[i, j])) + Fraction(float(got.lo[i, j])) - w)
                    assert err <= 4 * T.n * Fraction(2) ** -106 * abs(w)


@pytest.mark.parametrize("pairs", [False, True], ids=["binary64", "double-double"])
def test_factor_signs_and_nonnegative_solves(rng, pairs):
    # strict L <= 0, strict U <= 0 and pivots > 0 in both arithmetics, from
    # row and column sums near 1 down to 1e-13; b >= 0 then gives x >= 0
    for T in ill_conditioned_triplets(rng):
        if pairs:
            F = gth_eliminate(DD(T.offdiag), DD(T.sums), T.orientation)
            L, U = F.lower.to_float(), F.upper.to_float()
        else:
            F = gth_factor(T, check=False)
            L, U = F.lower, F.upper
        strict_lower = np.tril(np.ones((T.n, T.n), dtype=bool), -1)
        assert (L[strict_lower] <= 0.0).all() and (np.diag(L) == 1.0).all()
        assert (U[strict_lower.T] <= 0.0).all() and (np.diag(U) > 0.0).all()
        assert (U[strict_lower] == 0.0).all() and (L[strict_lower.T] == 0.0).all()
        b = rng.random(T.n) * (rng.random(T.n) < 0.6)
        x = gth_solve(F, DD(b)).to_float() if pairs else gth_solve(F, b)
        assert (x >= 0.0).all()
