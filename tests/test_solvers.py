"""Iteration schemes: convergence, monotonicity, invariants, cross-checks."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from mlpagerank import (
    COL,
    MINIMAL,
    Adjacency,
    Method,
    Problem,
    SolverOptions,
    Start,
    Tensor3,
    Termination,
    TripletMMatrix,
    build_pagerank_tensor,
    builtin,
    ex1,
    ex2,
    gth_factor,
    gth_solve,
    intro,
    norm_error,
    random_teleport_vector,
    reference_solution,
    residual,
    solve,
)
from mlpagerank.mmatrix import GTH_BLOCK
from mlpagerank.solvers import _block_slices, _gth_sweep, _offblock
from mlpagerank.tensor import BINCOUNT_MAX_NNZ

from conftest import random_pagerank_problem

U = 2.0 ** -53


def opts(method, **kw):
    return SolverOptions(method=method, **kw)


def exact_omt(alpha):
    """1 - 2 alpha from alpha's decimal string, rounded once."""
    return float(Decimal(1) - 2 * Decimal(alpha))


def dense_problem(seed, alpha, n=30):
    """A generated dense PageRank problem at exact 1 - 2 alpha."""
    rng = np.random.default_rng(seed)
    return random_pagerank_problem(rng, n, float(alpha), one_minus_two_alpha=exact_omt(alpha))


def cw_err(x, ref):
    return float(np.max(np.abs(x - ref) / np.abs(ref)))


def exact_residual(p, x):
    """a + Bx^2 - x for the stored binary64 data, in exact rationals."""
    xs = [Fraction(float(t)) for t in x]
    out = [Fraction(float(a)) - xi for a, xi in zip(p.a, xs)]
    for i, j, k, b in p.tensor.entries():
        out[i - 1] += Fraction(b) * xs[j - 1] * xs[k - 1]
    return out


class TestResidual:
    def test_at_minimal_solution(self):
        p = intro(1e-6, 0.3)
        r = residual(p, p.v)  # v is the solution of the intro instance
        assert np.max(np.abs(r)) <= 1e-16

    def test_at_zero(self):
        p = ex1(0.3)
        assert np.array_equal(residual(p, np.zeros(4)), p.a)

    def test_matches_dense_oracle(self, rng):
        p = ex1(0.3)
        x = rng.random(4)
        dense = np.zeros((4, 4, 4))
        for i, j, k, v in p.tensor.entries():
            dense[i - 1, j - 1, k - 1] = v
        want = p.a + np.einsum("ijk,j,k->i", dense, x, x) - x
        assert np.max(np.abs(residual(p, x) - want)) <= 1e-14

    @pytest.mark.parametrize("name", ["intro", "intro-half", "ex1", "ex2", "random"])
    def test_correctly_rounded_against_exact_rationals(self, name, rng):
        p = {
            "intro": lambda: intro(1e-6, 0.3),
            "intro-half": lambda: intro(1e-6, 0.5),
            "ex1": lambda: ex1(0.3),
            "ex2": lambda: ex2(0.3),
            "random": lambda: random_pagerank_problem(rng, 5, 0.45),
        }[name]()
        solution = solve(p, opts(Method.NEWTON_GTH)).x
        points = [rng.random(p.n) for _ in range(3)]
        points += [p.v * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, p.n)) for _ in range(3)]
        # a few ulps from the solution, a + Bx^2 and x cancel to ~2^-50 of their size
        points += [solution * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, p.n)) for _ in range(5)]
        points += [solution * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, p.n)), solution]
        for x in points:
            exact = exact_residual(p, x)
            for got, want in zip(residual(p, x), exact):
                assert abs(Fraction(float(got)) - want) <= abs(want) / 2**53


class TestFixedPoint:
    def test_intro_converges_componentwise(self):
        p = intro(1e-6, 0.3)
        rep = solve(p, opts(Method.FIXED_POINT))
        assert rep.termination is Termination.TOL_REACHED
        assert cw_err(rep.x, p.v) <= 1e-12

    def test_zero_tensor_converges_in_one_step(self):
        a = np.array([0.4, 0.1])
        p = Problem.from_general(a, Tensor3.zeros(2))
        rep = solve(p, opts(Method.FIXED_POINT))
        assert rep.iterations == 1
        assert np.array_equal(rep.x, a)

    def test_monotone_iterates(self, rng):
        p = random_pagerank_problem(rng, 5, 0.45)
        rep = solve(p, opts(Method.FIXED_POINT, record_history=True, maxit=200))
        hist = rep.iterate_history
        for prev, cur in zip(hist, hist[1:]):
            assert np.min(cur - prev) >= -1e-15

    def test_divergence_guard(self):
        # x = a + B x^2 with large a has no nonnegative solution
        B = Tensor3(1, [(1, 1, 1, 1.0)])
        p = Problem.from_general(np.array([2.0]), B)
        rep = solve(p, opts(Method.FIXED_POINT, maxit=200))
        assert rep.termination is Termination.DIVERGED


class TestNewton:
    def test_ex2_stochastic_solution(self):
        p = ex2(0.9951)
        rep = solve(p, opts(Method.NEWTON, start=Start.V))
        published = np.array([8.6225e-7, 8.5301e-5, 8.5971e-3, 9.9132e-1])
        assert rep.termination is Termination.TOL_REACHED
        assert cw_err(rep.x, published) <= 1e-4
        assert abs(rep.x.sum() - 1.0) <= 1e-12

    def test_zero_tensor_one_iteration(self):
        p = Problem.from_general(np.array([0.3, 0.2]), Tensor3.zeros(2))
        rep = solve(p, opts(Method.NEWTON))
        assert rep.iterations == 1
        assert np.max(np.abs(rep.x - p.a)) <= 1e-16

    def test_agrees_with_fixed_point_on_intro(self):
        p = intro(1e-6, 0.3)
        x_newton = solve(p, opts(Method.NEWTON)).x
        x_fp = solve(p, opts(Method.FIXED_POINT)).x
        assert cw_err(x_newton, x_fp) <= 1e-13

    def test_custom_start(self):
        p = ex1(0.3)
        rep = solve(p, opts(Method.NEWTON, start=Start.CUSTOM, x0=np.zeros(4)))
        assert rep.termination is Termination.TOL_REACHED

    def test_singular_jacobian_ends_at_the_start(self):
        # x = 0.1 + x^2 at x0 = 1/2: R_x0 = 1 - 2 x0 = 0, so the first LU fails
        p = Problem.from_general([0.1], Tensor3(1, [(1, 1, 1, 1.0)]))
        rep = solve(p, opts(Method.NEWTON, start=Start.CUSTOM, x0=np.array([0.5])))
        assert rep.termination is Termination.SINGULAR_PIVOT
        assert rep.iterations == 0
        assert np.array_equal(rep.x, [0.5])
        assert len(rep.residual_history) == 1


class TestNewtonGTH:
    def test_z_halves_exactly_at_alpha_half(self):
        p = ex1(0.5)
        rep = solve(p, opts(Method.NEWTON_GTH, tol=0.0, maxit=44))
        assert rep.termination is Termination.MAXIT
        for k, z in enumerate(rep.z_history):
            assert z == 2.0 ** -k

    def test_ex1_published_solution(self):
        rep = solve(ex1(0.49999), opts(Method.NEWTON_GTH))
        published = np.array([2.4655e-1, 8.2687e-2, 2.1565e-7, 6.7076e-1])
        assert rep.termination is Termination.TOL_REACHED
        assert cw_err(rep.x, published) <= 1e-4

    def test_z_tracks_iterate_sums_at_moderate_alpha(self):
        p = ex1(0.3)
        rep = solve(p, opts(Method.NEWTON_GTH, record_history=True))
        for xk, zk in zip(rep.iterate_history, rep.z_history):
            assert abs(zk - (1.0 - 2.0 * 0.3 * xk.sum())) <= 1e-12

    def test_minimal_solution_for_alpha_above_half(self):
        # the z-recurrence stays positive and targets the minimal solution
        p = ex1(0.75)
        rep = solve(p, opts(Method.NEWTON_GTH))
        assert rep.termination is Termination.TOL_REACHED
        assert abs(rep.x.sum() - (1 - 0.75) / 0.75) <= 1e-12

    def test_requires_pagerank_and_zero_start(self):
        p = Problem.from_general(np.array([0.1]), Tensor3.zeros(1))
        with pytest.raises(ValueError, match="PageRank"):
            solve(p, opts(Method.NEWTON_GTH))
        with pytest.raises(ValueError, match="start"):
            solve(ex1(0.3), opts(Method.NEWTON_GTH, start=Start.V))

    @pytest.mark.parametrize("method", [Method.NEWTON_GTH, Method.BLOCK_JACOBI,
                                        Method.BLOCK_JACOBI_GTH_VARIANT])
    def test_pagerank_alpha_without_p_is_a_clear_error(self, method):
        p = ex1(0.3)
        bare = Problem(p.a, p.tensor, v=p.v, alpha=p.alpha)
        with pytest.raises(ValueError, match="needs the PageRank tensor P"):
            solve(bare, opts(method))

    def test_subtraction_free_residual_reaches_tiny_levels(self):
        # the symbolic residual alpha P h^2 underflows smoothly; no noise floor
        rep = solve(ex1(0.3), opts(Method.NEWTON_GTH, tol=1e-40, maxit=50))
        assert rep.termination is Termination.TOL_REACHED
        assert rep.final_residual <= 1e-40


class TestAccuracyContract:
    """Newton-GTH reaches e_cw <= 2 n u against the pair-precision reference.

    Closer to alpha = 1/2 than these, the residual stop decides the error, so
    those alphas are not part of the contract.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("alpha", ["0.3", "0.49", "0.4999", "0.6"])
    def test_generated_dense(self, seed, alpha):
        p = dense_problem(seed, alpha)
        rep = solve(p, opts(Method.NEWTON_GTH))
        assert rep.termination is Termination.TOL_REACHED
        assert cw_err(rep.x, reference_solution(p, MINIMAL).x) <= 2 * p.n * U

    @pytest.mark.parametrize("name", ["intro", "ex1", "ex2"])
    @pytest.mark.parametrize("alpha", ["0.3", "0.6"])
    def test_builtins(self, name, alpha):
        p = builtin(name, float(alpha), one_minus_two_alpha=exact_omt(alpha))
        rep = solve(p, opts(Method.NEWTON_GTH))
        assert rep.termination is Termination.TOL_REACHED
        assert cw_err(rep.x, reference_solution(p, MINIMAL).x) <= 2 * p.n * U

    @pytest.mark.parametrize("alpha", ["0.3", "0.4999"])
    def test_generated_dense_above_the_block_size(self, alpha):
        # n = 2 GTH_BLOCK + 1: every step's solve takes the blocked path
        p = dense_problem(4, alpha, n=2 * GTH_BLOCK + 1)
        rep = solve(p, opts(Method.NEWTON_GTH, record_history=True))
        assert rep.termination is Termination.TOL_REACHED
        assert cw_err(rep.x, reference_solution(p, MINIMAL).x) <= 2 * p.n * U
        hist = rep.iterate_history
        for prev, cur in zip(hist, hist[1:]):
            assert (cur >= prev).all()

    @pytest.mark.parametrize("n", [30, 80])
    @pytest.mark.parametrize("alpha", ["0.3", "0.49"])
    def test_graph_pipeline(self, n, alpha):
        # the factored three-cycle tensor, as the graph benchmark builds it
        rng = np.random.default_rng(n)
        upper = np.triu(rng.random((n, n)) < 8 / (n - 1), k=1)
        v = random_teleport_vector(n, n)
        P = build_pagerank_tensor(Adjacency(matrix=upper | upper.T), v, 0.1)
        p = Problem.from_pagerank(v, P, float(alpha), one_minus_two_alpha=exact_omt(alpha))
        rep = solve(p, opts(Method.NEWTON_GTH, record_history=True))
        assert rep.termination is Termination.TOL_REACHED
        assert cw_err(rep.x, reference_solution(p, MINIMAL).x) <= 2 * p.n * U
        hist = rep.iterate_history
        for prev, cur in zip(hist, hist[1:]):
            assert (cur >= prev).all()


class TestBlockJacobi:
    @pytest.mark.parametrize("name", ["intro", "ex1", "ex2", "dense"])
    @pytest.mark.parametrize("alpha", ["0.3", "0.49999", "0.5", "0.6"])
    def test_one_block_is_newton_gth_bit_for_bit(self, name, alpha):
        if name == "dense":
            p = dense_problem(7, alpha)
            assert p.tensor.nnz > BINCOUNT_MAX_NNZ
        else:
            p = builtin(name, float(alpha), one_minus_two_alpha=exact_omt(alpha))
        ng = solve(p, opts(Method.NEWTON_GTH, record_history=True))
        bj = solve(p, opts(Method.BLOCK_JACOBI, record_history=True))
        assert ng.termination is Termination.TOL_REACHED
        assert bj.termination is ng.termination
        assert bj.iterations == ng.iterations
        assert bj.x.tobytes() == ng.x.tobytes()
        assert bj.residual_history.tobytes() == ng.residual_history.tobytes()
        assert bj.z_history.tobytes() == ng.z_history.tobytes()
        for xb, xn in zip(bj.iterate_history, ng.iterate_history, strict=True):
            assert xb.tobytes() == xn.tobytes()

    def test_one_block_equals_newton(self):
        p = ex1(0.3)
        bj = solve(p, opts(Method.BLOCK_JACOBI, block_sizes=(4,), record_history=True))
        nw = solve(p, opts(Method.NEWTON, record_history=True))
        for xb, xn in zip(bj.iterate_history, nw.iterate_history):
            assert np.max(np.abs(xb - xn)) <= 1e-14

    def test_matches_newton_gth_limit_and_is_slower(self):
        p = ex1(0.3)
        ref = reference_solution(p, MINIMAL)
        bj = solve(p, opts(Method.BLOCK_JACOBI, block_sizes=(2, 2), maxit=500))
        ng = solve(p, opts(Method.NEWTON_GTH))
        assert bj.termination is Termination.TOL_REACHED
        assert cw_err(bj.x, ref.x) <= 1e-12
        assert bj.iterations >= ng.iterations

    def test_iterates_below_newton(self):
        p = ex1(0.3)
        bj = solve(p, opts(Method.BLOCK_JACOBI, block_sizes=(2, 2),
                           record_history=True, maxit=60, tol=0.0))
        nw = solve(p, opts(Method.NEWTON, record_history=True, maxit=60, tol=0.0))
        shared = min(len(bj.iterate_history), len(nw.iterate_history))
        for k in range(shared):
            assert np.max(bj.iterate_history[k] - nw.iterate_history[k]) <= 1e-14

    def test_u_dominates_newton_z(self):
        p = ex1(0.3)
        bj = solve(p, opts(Method.BLOCK_JACOBI, block_sizes=(2, 2), maxit=100))
        ng = solve(p, opts(Method.NEWTON_GTH, maxit=100))
        shared = min(len(bj.z_history), len(ng.z_history))
        for k in range(shared):
            assert bj.z_history[k] >= ng.z_history[k] - 1e-14

    def test_invalid_partition(self):
        with pytest.raises(ValueError, match="partition"):
            solve(ex1(0.3), opts(Method.BLOCK_JACOBI, block_sizes=(3, 2)))


def gth_sweep_by_triplets(C, slices, level, col_n, rhs):
    """The block sweep through a validated TripletMMatrix per block, whose
    copy of C[s, s] has a zeroed diagonal, factored and then substituted."""
    y = np.empty(len(rhs))
    for s in slices:
        Nb = C[s, s].copy()
        np.fill_diagonal(Nb, 0.0)
        T = TripletMMatrix(Nb, level + col_n[s], COL)
        y[s] = gth_solve(gth_factor(T, check=False), rhs[s])
    return y


@pytest.mark.parametrize("sizes", [(1,), (4,), (2, 2), (1, 3), (9,), (2, 3, 4), (1,) * 9])
def test_gth_sweep_ignores_the_diagonal_bit_for_bit(sizes):
    # The sweep's fused solve rounds the right-hand sides as (a b) / d inside
    # the elimination, so it matches the factor-then-substitute oracle to the
    # componentwise bound of a subtraction-free solve, not bit for bit; the
    # diagonal of C, which it never reads, must not change a bit.
    n = sum(sizes)
    rng = np.random.default_rng(len(sizes) * 100 + n)
    slices = _block_slices(n, sizes)
    for level in (1.0, 1e-3, 1e-9):
        C = rng.random((n, n))
        C[rng.random((n, n)) < 0.3] = 0.0
        np.fill_diagonal(C, rng.random(n) + 0.5)  # nonzero, and must not be read
        col_n = _offblock(C, slices).sum(axis=0)
        rhs = rng.random(n)
        y = _gth_sweep(C, slices, level, col_n, rhs)
        for diagonal in (np.zeros(n), rng.random(n) * 1e3, np.full(n, np.nan)):
            other = C.copy()
            np.fill_diagonal(other, diagonal)
            assert y.tobytes() == _gth_sweep(other, slices, level, col_n, rhs).tobytes()
        want = gth_sweep_by_triplets(C, slices, level, col_n, rhs)
        for s in slices:
            bound = 4 * (s.stop - s.start) * U * np.abs(want[s])
            assert (np.abs(y[s] - want[s]) <= bound).all()


class TestBlockJacobiVariant:
    def test_one_block_matches_newton_gth_at_alpha_half(self):
        p = ex1(0.5)
        var = solve(p, opts(Method.BLOCK_JACOBI_GTH_VARIANT, block_sizes=(4,),
                            record_history=True, tol=0.0, maxit=30))
        ng = solve(p, opts(Method.NEWTON_GTH, record_history=True, tol=0.0, maxit=30))
        for xv, xn in zip(var.iterate_history, ng.iterate_history):
            assert np.max(np.abs(xv - xn)) <= 1e-14

    def test_faster_than_plain_block_jacobi_near_half(self):
        p = ex1(0.499999999999999)
        var = solve(p, opts(Method.BLOCK_JACOBI_GTH_VARIANT, block_sizes=(2, 2),
                            maxit=2000))
        bj = solve(p, opts(Method.BLOCK_JACOBI, block_sizes=(2, 2), maxit=2000))
        assert var.termination is Termination.TOL_REACHED
        assert var.final_residual <= 1e-15
        assert var.iterations < bj.iterations

    def test_agrees_with_newton_gth_stagnation(self):
        # run both to stagnation; agreement is limited by the reference-level
        # ambiguity of the near-singular instance (~1e-13)
        p = ex1(0.499999999999999)
        var = solve(p, opts(Method.BLOCK_JACOBI_GTH_VARIANT, block_sizes=(2, 2),
                            maxit=2000))
        ng = solve(p, opts(Method.NEWTON_GTH, tol=0.0, maxit=500))
        assert cw_err(var.x, ng.x) <= 1e-11

    def test_leaves_the_cone_on_ex2_with_two_blocks(self):
        rep = solve(ex2(0.3), opts(Method.BLOCK_JACOBI_GTH_VARIANT, block_sizes=(2, 2)))
        assert rep.termination is Termination.DIVERGED
        assert rep.iterations == 32
        assert (rep.x < 0.0).any()

    def test_overshoot_recorded_not_fatal(self):
        p = ex1(0.499999999999999)
        ref = reference_solution(p, MINIMAL)
        rep = solve(p, opts(Method.BLOCK_JACOBI_GTH_VARIANT, block_sizes=(2, 2),
                            maxit=2000, record_history=True), reference=ref.x)
        assert rep.termination is Termination.TOL_REACHED
        assert rep.max_overshoot is not None


class TestSolveDispatch:
    def test_maxit_honored(self):
        rep = solve(ex1(0.3), opts(Method.FIXED_POINT, maxit=3))
        assert rep.iterations == 3
        assert rep.termination is Termination.MAXIT
        assert len(rep.residual_history) == 4

    def test_newton_gth_reaches_tol(self):
        rep = solve(ex1(0.49999), opts(Method.NEWTON_GTH, tol=1e-15))
        assert rep.termination is Termination.TOL_REACHED

    def test_reference_errors_attached(self):
        p = ex1(0.3)
        ref = reference_solution(p, MINIMAL)
        rep = solve(p, opts(Method.NEWTON_GTH, record_history=True), reference=ref.x)
        assert rep.e_cw_history is not None
        assert rep.e_cw_history[-1] <= 1e-12
        assert rep.e_norm_history[-1] <= rep.e_cw_history[-1] + 1e-18

    def test_cross_method_agreement(self):
        p = ex1(0.3)
        ref = reference_solution(p, MINIMAL)
        for method, kw in [
            (Method.FIXED_POINT, {}),
            (Method.NEWTON, {}),
            (Method.NEWTON_GTH, {}),
            (Method.BLOCK_JACOBI, {"block_sizes": (2, 2), "maxit": 500}),
            (Method.BLOCK_JACOBI_GTH_VARIANT, {"block_sizes": (2, 2), "maxit": 500}),
        ]:
            rep = solve(p, opts(method, **kw))
            assert cw_err(rep.x, ref.x) <= 1e-10, method


class TestSumLaws:
    @pytest.mark.parametrize("alpha", [0.3, 0.49999])
    def test_stochastic_below_half(self, alpha):
        rep = solve(ex1(alpha), opts(Method.NEWTON_GTH))
        assert abs(rep.x.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9951])
    def test_substochastic_above_half(self, alpha):
        for p in (ex1(alpha), ex2(alpha)):
            rep = solve(p, opts(Method.NEWTON_GTH))
            assert abs(rep.x.sum() - (1 - alpha) / alpha) <= 1e-12


def test_nonnegative_residual_path(rng):
    # fixed-point, Newton from zero, Newton-GTH and block Jacobi keep F(x_k) >= 0;
    # the GTH methods add nonnegative steps, so their iterates never decrease
    p = random_pagerank_problem(rng, 6, 0.4)
    for method, kw in [
        (Method.FIXED_POINT, {}),
        (Method.NEWTON, {}),
        (Method.NEWTON_GTH, {}),
        (Method.BLOCK_JACOBI, {"block_sizes": (3, 3), "maxit": 300}),
    ]:
        rep = solve(p, opts(method, record_history=True, **kw))
        assert rep.termination is Termination.TOL_REACHED
        for xk in rep.iterate_history:
            assert np.min(residual(p, xk)) >= -1e-15
        if method in (Method.NEWTON_GTH, Method.BLOCK_JACOBI):
            hist = rep.iterate_history
            for prev, cur in zip(hist, hist[1:]):
                assert (cur >= prev).all()
