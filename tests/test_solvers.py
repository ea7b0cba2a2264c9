"""Iteration schemes: convergence, monotonicity, invariants, cross-checks."""

import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from mlpagerank import (
    MINIMAL,
    Adjacency,
    Method,
    Problem,
    SolverOptions,
    Start,
    Tensor3,
    Termination,
    build_pagerank_tensor,
    builtin,
    ex1,
    ex2,
    force_sum_one,
    intro,
    mmatrix,
    precision,
    random_teleport_vector,
    reference_solution,
    residual,
    solve,
    solvers,
)
from mlpagerank.mmatrix import GTH_BLOCK, gth_col_solve
from mlpagerank.tensor import SLAB_MAX_ENTRIES
from mlpagerank.precision import DD
from mlpagerank.solvers import (
    _block_slices,
    _gth_sweep,
    _off_diagonal_empty,
    _offblock,
    check_options,
)

from conftest import (
    csr_symmetric,
    cycle_graph,
    exact_stochastic_unfolding,
    full_structure,
    held_bytes,
    random_pagerank_problem,
    scaled,
    seed_gth_factor,
    seed_gth_solve,
    stored_b_entries,
)
from triplets import COL, TripletMMatrix

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


def counted_solve(monkeypatch, p, o):
    """solve(p, o) and the vectors it passed to Problem.contract, with the
    outputs checked unchanged by the counting."""
    want = solve(p, o)
    calls = []
    contract = Problem.contract

    def counting(self, x):
        calls.append(x.copy())
        return contract(self, x)

    monkeypatch.setattr(Problem, "contract", counting)
    rep = solve(p, o)
    assert rep.termination is Termination.TOL_REACHED
    assert rep.x.tobytes() == want.x.tobytes()
    assert rep.residual_history.tobytes() == want.residual_history.tobytes()
    return rep, calls


def assert_one_contraction_per_iterate(monkeypatch, p, method):
    """One Problem.contract per iterate, of that iterate."""
    rep, calls = counted_solve(monkeypatch, p, opts(method))
    assert len(calls) == rep.iterations + 1
    for got, xk in zip(calls, rep.iterate_history, strict=True):
        assert got.tobytes() == xk.tobytes()


def assert_one_contraction_per_step(monkeypatch, p, method, block_sizes=None):
    """One Problem.contract per step, of that step: x_k + g_k is x_{k+1}."""
    o = opts(method, block_sizes=block_sizes)
    rep, calls = counted_solve(monkeypatch, p, o)
    assert len(calls) == rep.iterations
    hist = rep.iterate_history
    for g, xk, xnext in zip(calls, hist[:-1], hist[1:], strict=True):
        assert (xk + g).tobytes() == xnext.tobytes()


@pytest.mark.parametrize("method,block_sizes", [
    (Method.NEWTON_GTH, None),
    (Method.BLOCK_JACOBI, (2, 2)),
    (Method.BLOCK_JACOBI_GTH_VARIANT, None),
], ids=["newton-gth", "block-jacobi", "variant-one-block"])
def test_gth_methods_contract_each_step_once(monkeypatch, method, block_sizes):
    assert_one_contraction_per_step(monkeypatch, ex1(0.3), method, block_sizes)


def exact_residual(p, x):
    """a + Bx^2 - x for the stored binary64 data, in exact rationals."""
    xs = [Fraction(float(t)) for t in x]
    out = [Fraction(float(a)) - xi for a, xi in zip(p.a, xs)]
    for i, j, k, b in stored_b_entries(p):
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
        for i, j, k, v in stored_b_entries(p):
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
        rep = solve(p, opts(Method.FIXED_POINT, maxit=200))
        hist = rep.iterate_history
        for prev, cur in zip(hist, hist[1:]):
            assert np.min(cur - prev) >= -1e-15

    def test_one_product_with_b_per_iteration(self, monkeypatch):
        assert_one_contraction_per_iterate(monkeypatch, ex1(0.3), Method.FIXED_POINT)

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

    def test_one_product_per_step(self, monkeypatch):
        # R_x = I - C and the residual's Bx^2 = C x / 2 share one contraction
        assert_one_contraction_per_iterate(monkeypatch, ex1(0.3), Method.NEWTON)

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
        rep = solve(p, opts(Method.NEWTON_GTH))
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
        rep = solve(p, opts(Method.NEWTON_GTH))
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
        rep = solve(p, opts(Method.NEWTON_GTH))
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
        else:
            p = builtin(name, float(alpha), one_minus_two_alpha=exact_omt(alpha))
        ng = solve(p, opts(Method.NEWTON_GTH))
        assert ng.termination is Termination.TOL_REACHED
        for method in (Method.BLOCK_JACOBI, Method.BLOCK_JACOBI_GTH_VARIANT):
            one = solve(p, opts(method))
            assert one.termination is ng.termination
            assert one.iterations == ng.iterations
            assert one.x.tobytes() == ng.x.tobytes()
            assert one.residual_history.tobytes() == ng.residual_history.tobytes()
            assert one.z_history.tobytes() == ng.z_history.tobytes()
            for xb, xn in zip(one.iterate_history, ng.iterate_history, strict=True):
                assert xb.tobytes() == xn.tobytes()

    def test_one_block_never_builds_the_off_block_part(self, monkeypatch):
        # one block has N = 0: nothing to build, sum or apply, in binary64 or pairs
        p = ex1(0.3)
        want = solve(p, opts(Method.NEWTON_GTH))

        def forbidden(C, slices):
            raise AssertionError("_offblock called on one block")

        monkeypatch.setattr("mlpagerank.solvers._offblock", forbidden)
        for rep in (solve(p, opts(Method.NEWTON_GTH)),
                    solve(p, opts(Method.BLOCK_JACOBI)),
                    solve(p, opts(Method.BLOCK_JACOBI, block_sizes=(4,))),
                    solve(p, opts(Method.BLOCK_JACOBI_GTH_VARIANT))):
            assert rep.termination is Termination.TOL_REACHED
            assert rep.x.tobytes() == want.x.tobytes()
        assert reference_solution(p, MINIMAL).converged

    def test_one_block_equals_newton(self):
        p = ex1(0.3)
        bj = solve(p, opts(Method.BLOCK_JACOBI, block_sizes=(4,)))
        nw = solve(p, opts(Method.NEWTON))
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
                           maxit=60, tol=0.0))
        nw = solve(p, opts(Method.NEWTON, maxit=60, tol=0.0))
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
    copy of C[s, s] has a zeroed diagonal, factored and then substituted by
    the seed formulas."""
    y = np.empty(len(rhs))
    for s in slices:
        Nb = C[s, s].copy()
        np.fill_diagonal(Nb, 0.0)
        T = TripletMMatrix(Nb, level + col_n[s], COL)
        y[s] = seed_gth_solve(*seed_gth_factor(T.offdiag, T.sums, False), rhs[s])
    return y


@pytest.mark.parametrize("sizes", [(1,), (4,), (2, 2), (1, 3), (9,), (2, 3, 4), (1,) * 9])
def test_gth_sweep_ignores_the_diagonal_bit_for_bit(sizes):
    # The sweep's fused solve rounds the right-hand sides as (a / d) b inside
    # the elimination and back-substitutes by one unit-upper solve, so it
    # matches the factor-then-substitute oracle to the componentwise bound of
    # a subtraction-free solve, not bit for bit; the diagonal of C, which it
    # never reads, must not change a bit.
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
        # one block's N = 0 goes as col_n None, the same solve without the zeros
        one = [col_n, None] if len(sizes) == 1 else [col_n]
        for diagonal in (np.zeros(n), rng.random(n) * 1e3, np.full(n, np.nan)):
            other = C.copy()
            np.fill_diagonal(other, diagonal)
            for c in one:
                assert y.tobytes() == _gth_sweep(other, slices, level, c, rhs).tobytes()
        want = gth_sweep_by_triplets(C, slices, level, col_n, rhs)
        for s in slices:
            bound = 4 * (s.stop - s.start) * U * np.abs(want[s])
            assert (np.abs(y[s] - want[s]) <= bound).all()


@pytest.mark.parametrize("n", [1, 3, GTH_BLOCK + 9])
def test_gth_sweep_solves_a_diagonal_block_as_the_elimination_does(n):
    # a first step from C = 0 has no off-diagonal entries to eliminate
    rng = np.random.default_rng(n)
    for diagonal in (np.zeros(n), rng.random(n), np.full(n, np.nan)):
        C = np.diag(diagonal)
        for level in (1.0, 1e-3, 1e-9):
            col_n = rng.random(n) * (rng.random(n) < 0.5)
            rhs = rng.random(n) * (rng.random(n) < 0.8)
            want = gth_col_solve(np.zeros((n, n)), level + col_n, rhs)
            assert _gth_sweep(C, [slice(0, n)], level, col_n, rhs).tobytes() == want.tobytes()
            want = gth_col_solve(np.zeros((n, n)), np.full(n, level), rhs)
            assert _gth_sweep(C, [slice(0, n)], level, None, rhs).tobytes() == want.tobytes()


def test_off_diagonal_empty_reads_no_diagonal_and_allocates_no_block():
    n = 120
    C = np.zeros((3 * n, 3 * n))
    block = C[n:2 * n, n:2 * n]  # a strided view, as block Jacobi's blocks are
    for diagonal in (np.zeros(n), np.full(n, np.nan), np.full(n, -1.0)):
        np.fill_diagonal(block, diagonal)
        C[0, 1] = C[2 * n, 2 * n + 1] = 1.0  # outside the block
        tracemalloc.start()
        try:
            assert _off_diagonal_empty(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n  # not even one byte an entry of the block
        for value in (np.nan, 5e-324, -1.0):
            for where in ((0, n - 1), (n - 1, 0), (3, 4)):
                block[where] = value
                assert not _off_diagonal_empty(block)
                block[where] = -0.0  # a zero like any other
                assert _off_diagonal_empty(block)
    pairs = DD(np.eye(4), np.zeros((4, 4)))
    assert _off_diagonal_empty(pairs)
    pairs.lo[1, 2] = 1e-30  # off the diagonal in the lo part alone
    assert not _off_diagonal_empty(pairs)


class TestBlockJacobiVariant:
    def test_one_block_matches_newton_gth_at_alpha_half(self):
        p = ex1(0.5)
        var = solve(p, opts(Method.BLOCK_JACOBI_GTH_VARIANT, block_sizes=(4,),
                            tol=0.0, maxit=30))
        ng = solve(p, opts(Method.NEWTON_GTH, tol=0.0, maxit=30))
        for xv, xn in zip(var.iterate_history, ng.iterate_history):
            assert np.max(np.abs(xv - xn)) <= 1e-14


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
        rep = solve(p, opts(Method.NEWTON_GTH), reference=ref.x)
        assert rep.e_cw_history is not None
        assert rep.e_cw_history[-1] <= 1e-12
        assert rep.e_norm_history[-1] <= rep.e_cw_history[-1] + 1e-18
        assert rep.max_overshoot is not None

    def test_cross_method_agreement(self):
        p = ex1(0.3)
        ref = reference_solution(p, MINIMAL)
        for method, kw in [
            (Method.FIXED_POINT, {}),
            (Method.NEWTON, {}),
            (Method.NEWTON_GTH, {}),
            (Method.BLOCK_JACOBI, {"block_sizes": (2, 2), "maxit": 500}),
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
        rep = solve(p, opts(method, **kw))
        assert rep.termination is Termination.TOL_REACHED
        for xk in rep.iterate_history:
            assert np.min(residual(p, xk)) >= -1e-15
        if method in (Method.NEWTON_GTH, Method.BLOCK_JACOBI):
            hist = rep.iterate_history
            for prev, cur in zip(hist, hist[1:]):
                assert (cur >= prev).all()


ALPHAS = (0.3, 0.49, 0.4999, 0.6)


def pagerank_set_up_and_solves(U, v, alphas):
    """tracemalloc bytes of P and its problems after set-up, after Newton-GTH
    solves at every alpha, and at the peak, counted from before P is built."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        P = Tensor3.from_unfolding(U)
        problems = [Problem.from_pagerank(v, P, alpha) for alpha in alphas]
        set_up = tracemalloc.get_traced_memory()[0] - base
        for p in problems:
            assert solve(p, SolverOptions()).termination is Termination.TOL_REACHED
        solved, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return P.nnz, set_up, solved - base, peak - base


def test_newton_gth_keeps_only_what_it_reads(dense_unfolding_60):
    # P's vals are 8 bytes an entry; the solves add the slab (8), held once
    # for all problems of one P
    nnz, set_up, solved, peak = pagerank_set_up_and_solves(*dense_unfolding_60, ALPHAS)
    assert nnz == 60 ** 3
    assert set_up <= 32 * nnz
    assert solved <= 40 * nnz
    assert peak <= 60 * nnz


def test_a_full_p_holds_its_entries_and_its_slab(dense_unfolding_60):
    U, v = dense_unfolding_60
    P = Tensor3.from_unfolding(U)
    for alpha in ALPHAS:
        rep = solve(Problem.from_pagerank(v, P, alpha), SolverOptions())
        assert rep.termination is Termination.TOL_REACHED
    # its values alone: cols follow from storage order, rows from row_ptr
    assert P._cols is None
    assert held_bytes(P.vals) == 8 * P.nnz
    n = P.n
    if full_structure(n) == "half_slab":
        # K's k <= j triangle in groups of 8 slices, and 64 bytes to align it
        assert held_bytes(P._half) == 32 * -(-n // 8) * n * (n + 1) + 64
        assert P._slab is None
    else:
        assert held_bytes(P._slab) == 8 * P.nnz
        assert P._half is None
    assert P._sym is None


def assert_same_reports(got, want):
    """Equal outputs, every array compared by its bytes."""
    assert got.termination is want.termination
    assert got.iterations == want.iterations
    assert got.x.tobytes() == want.x.tobytes()
    for name in ("residual_history", "z_history", "e_cw_history", "e_norm_history"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) is (b is None), name
        assert a is None or a.tobytes() == b.tobytes(), name
    assert got.max_overshoot == want.max_overshoot
    for xg, xw in zip(got.iterate_history, want.iterate_history, strict=True):
        assert xg.tobytes() == xw.tobytes()


@pytest.mark.parametrize("method", [Method.NEWTON_GTH, Method.NEWTON])
def test_a_triangle_free_graph_solves_on_s_with_the_slab_bits(monkeypatch, method):
    # no three-cycles: the sparse S of P stores nothing and d_S is all ones
    n = 20
    v = random_teleport_vector(n, 3)
    P = build_pagerank_tensor(cycle_graph(n), v, 0.1)
    assert P.S.nnz == 0 and n ** 3 > SLAB_MAX_ENTRIES and (P.dS == 1.0).all()
    problems = [Problem.from_pagerank(v, P, float(alpha), exact_omt(alpha))
                for alpha in ("0.3", "0.49", "0.6")]
    on_s = [solve(p, opts(method)) for p in problems]
    assert P.S._sym is not None and P.S._slab is None
    # the factored product's numpy expression, with S's product over its slab
    monkeypatch.setattr(mmatrix, "_graph_product", None)
    monkeypatch.setattr(Tensor3, "_symmetric", lambda B, x: np.einsum("kij,k->ij", B.slab(), x))
    for p, got in zip(problems, on_s, strict=True):
        assert got.termination is Termination.TOL_REACHED and got.iterations > 1
        assert_same_reports(got, solve(p, opts(method)))


@pytest.mark.parametrize("method,block_sizes", [
    (Method.NEWTON_GTH, None), (Method.BLOCK_JACOBI, (15, 15)), (Method.NEWTON, None),
], ids=["newton-gth", "block-jacobi-15-15", "newton"])
@pytest.mark.parametrize("alpha", ["0.3", "0.49", "0.6"])
def test_slab_and_csr_products_solve_bit_for_bit(monkeypatch, method, block_sizes, alpha):
    o = opts(method, block_sizes=block_sizes)
    p = dense_problem(11, alpha)
    assert p.p_tensor.nnz == 30 ** 3
    slab = solve(p, o)
    assert p.p_tensor._sym is None
    monkeypatch.setattr(Tensor3, "_symmetric", csr_symmetric)
    assert slab.iterations > 1
    assert (slab.z_history is None) is (method is Method.NEWTON)
    assert_same_reports(slab, solve(p, o))


@pytest.mark.skipif(mmatrix._half_slab is None, reason="no compiled half-slab product")
def test_newton_gth_reports_are_the_same_with_the_half_slab_kernel_on_and_off(monkeypatch):
    n = 120
    rng = np.random.default_rng(120)
    U = exact_stochastic_unfolding(rng, n)
    v = rng.random(n) + 0.05
    v = force_sum_one(v / v.sum())
    reports = {}
    for kernel in (mmatrix._half_slab, None):
        monkeypatch.setattr(mmatrix, "_half_slab", kernel)
        P = Tensor3.from_unfolding(U)
        problems = [Problem.from_pagerank(v, P, float(alpha), exact_omt(alpha))
                    for alpha in ("0.3", "0.49", "0.4999", "0.6")]
        reports[kernel] = [solve(p, opts(Method.NEWTON_GTH)) for p in problems]
        assert (P._half is None) is (kernel is None) and (P._slab is None) is (kernel is not None)
    on, off = reports.values()
    for got, want in zip(on, off, strict=True):
        assert got.iterations > 1
        assert_same_reports(got, want)


@pytest.mark.skipif(mmatrix._graph_product is None, reason="no compiled graph product")
@pytest.mark.parametrize("method,block_sizes", [
    (Method.NEWTON_GTH, None), (Method.BLOCK_JACOBI, (40, 40)), (Method.NEWTON, None),
], ids=["newton-gth", "block-jacobi-40-40", "newton"])
def test_graph_reports_are_the_same_with_the_graph_product_kernel_on_and_off(
        monkeypatch, method, block_sizes):
    n = 80
    rng = np.random.default_rng(n)
    A = rng.random((n, n)) < 8.0 / n
    A = np.triu(A, k=1)
    v = random_teleport_vector(n, 5)
    reports = []
    for kernel in (mmatrix._graph_product, None):
        monkeypatch.setattr(mmatrix, "_graph_product", kernel)
        P = build_pagerank_tensor(Adjacency(matrix=A | A.T), v, 0.1)
        problems = [Problem.from_pagerank(v, P, float(alpha), exact_omt(alpha))
                    for alpha in ("0.3", "0.49", "0.6")]
        reports.append([solve(p, opts(method, block_sizes=block_sizes)) for p in problems])
        assert (P._factors is None) is (kernel is None)
    on, off = reports
    for got, want in zip(on, off, strict=True):
        assert got.iterations > 1
        assert_same_reports(got, want)


def sweep_counting_every_block(C, slices, level, col_n, rhs, filled=None):
    """The sweep as it ran before blocks were marked: every block, one
    unknown or more, counted on every step; filled is ignored.  One block's
    col_n None is, as the driver then made it, a vector of zeros, sliced
    and added to the level."""
    if float(level) <= 0.0:
        raise mmatrix.SingularPivotError(f"column-sum level {float(level)!r} is not positive")
    if col_n is None:
        col_n = mmatrix._zeros(rhs, len(rhs))
    y = mmatrix._zeros(rhs, len(rhs))
    for s in slices:
        block, sums = C[s, s], level + col_n[s]
        if _off_diagonal_empty(block):
            y[s] = rhs[s] / sums
        else:
            y[s] = gth_col_solve(block, sums, rhs[s])
    return y


def counted_blocks(monkeypatch):
    """The blocks _off_diagonal_empty is asked about, by size, as a list."""
    asked = []

    def count(block):
        asked.append(len(block))
        return _off_diagonal_empty(block)

    monkeypatch.setattr(solvers, "_off_diagonal_empty", count)
    return asked


@pytest.mark.parametrize("name,sizes", [
    ("ex1", (1, 1, 1, 1)), ("ex1", (1, 2, 1)), ("ex2", (1, 2, 1)), ("ex2", (1, 1, 1, 1)),
    ("n=30", (1, 28, 1)), ("n=30", (1,) * 30), ("n=30", None),
])
@pytest.mark.parametrize("alpha", ["0.3", "0.49"])
def test_block_jacobi_counts_a_block_until_it_fills_with_the_same_bytes(
        monkeypatch, name, sizes, alpha):
    # a binary64 run from C = 0 only adds G >= 0 to C: a block that has an
    # off-diagonal entry keeps it, and a block of one unknown never has one
    p = (dense_problem(30, alpha, n=30) if name == "n=30"
         else builtin(name, float(alpha), one_minus_two_alpha=exact_omt(alpha)))
    o = opts(Method.BLOCK_JACOBI, block_sizes=sizes)
    asked = counted_blocks(monkeypatch)
    got = solve(p, o)
    assert got.iterations > 2
    wide = [b for b in (sizes or (p.n,)) if b > 1]
    # one count a wide block on the first step, from C = 0, and one on the
    # second, which finds its entries; none after
    assert sorted(asked) == sorted(wide * 2)
    monkeypatch.setattr(solvers, "_gth_sweep", sweep_counting_every_block)
    assert_same_reports(got, solve(p, o))


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_the_pair_driver_counts_its_block_on_every_step(monkeypatch, name):
    p = builtin(name, 0.49, one_minus_two_alpha=exact_omt("0.49"))
    asked = counted_blocks(monkeypatch)
    pairs = precision._PairProblem(p)
    o = opts(Method.NEWTON_GTH, tol=precision.REFERENCE_TOL, maxit=precision.REFERENCE_MAXIT)
    rep = solvers._gth_block_jacobi(pairs, o, Method.NEWTON_GTH, None)
    assert rep.iterations > 2 and asked == [p.n] * rep.iterations
    # the reference: its binary64 seed run counts on its first two steps,
    # its pair run from the seed on every step
    asked.clear()
    ref = reference_solution(p)
    assert ref.iterations >= 1 and asked == [p.n] * (2 + ref.iterations)


@pytest.mark.parametrize("alpha", ["0.3", "0.49999", "0.5", "0.6"])
@pytest.mark.parametrize("name", ["ex1", "ex2", "n=30"])
def test_one_block_steps_give_the_bytes_of_the_sweep_over_a_zero_col_n(
        monkeypatch, name, alpha):
    # one block runs without slices or a col_n of zeros; the parent's sweep,
    # which took both, must give the same reports
    p = (dense_problem(31, alpha, n=30) if name == "n=30"
         else builtin(name, float(alpha), one_minus_two_alpha=exact_omt(alpha)))
    methods = (Method.NEWTON_GTH, Method.BLOCK_JACOBI, Method.BLOCK_JACOBI_GTH_VARIANT)
    got = [solve(p, opts(m)) for m in methods]
    monkeypatch.setattr(solvers, "_gth_sweep", sweep_counting_every_block)
    for report, m in zip(got, methods, strict=True):
        assert report.iterations > 2
        assert_same_reports(report, solve(p, opts(m)))


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_the_pair_reference_gives_the_bytes_of_the_sweep_over_a_zero_col_n(monkeypatch, name):
    p = builtin(name, 0.49999, one_minus_two_alpha=exact_omt("0.49999"))
    got = reference_solution(p)
    monkeypatch.setattr(solvers, "_gth_sweep", sweep_counting_every_block)
    want = reference_solution(p)
    assert got.iterations == want.iterations >= 1
    assert got.residual_norm == want.residual_norm
    for part in ("hi", "lo"):
        assert getattr(got.x_pair, part).tobytes() == getattr(want.x_pair, part).tobytes()


@pytest.mark.parametrize("level", [0.0, -0.0, -1e-300, -1.0, DD(0.0), DD(-1.0)],
                         ids=["0", "-0", "-tiny", "-1", "pair-0", "pair-1"])
@pytest.mark.parametrize("blocks", [(3,), (1, 2)])
def test_a_level_that_is_not_positive_is_a_singular_pivot(level, blocks):
    # the message is the parent sweep's, with one block and with several
    slices = _block_slices(3, blocks)
    C = np.full((3, 3), 0.25)
    col_n = None if len(blocks) == 1 else _offblock(C, slices).sum(axis=0)
    for sweep in (_gth_sweep, sweep_counting_every_block):
        with pytest.raises(mmatrix.SingularPivotError) as exc:
            sweep(C, slices, level, col_n, np.ones(3))
        assert str(exc.value) == f"column-sum level {float(level)!r} is not positive"


def recorded_runs(monkeypatch):
    """(copies of every iterate as _iterate was given it or a step returned
    it, the report) for every run of _iterate, in call order."""
    runs = []
    iterate = solvers._iterate

    def recording(method, opts, x, r, z, step):
        seen = [x.copy()]

        def recorded_step(x, r, z):
            out = step(x, r, z)
            seen.append(out[0].copy())
            return out

        report = iterate(method, opts, x, r, z, recorded_step)
        runs.append((seen, report))
        return report

    monkeypatch.setattr(solvers, "_iterate", recording)
    return runs


def buffers(x):
    return (x.hi, x.lo) if isinstance(x, DD) else (x,)


@pytest.mark.parametrize("method,kw", [
    (Method.FIXED_POINT, {}), (Method.NEWTON, {}), (Method.NEWTON, {"start": Start.V}),
    (Method.NEWTON_GTH, {}), (Method.BLOCK_JACOBI, {"block_sizes": (1, 2, 1)}),
    (Method.BLOCK_JACOBI_GTH_VARIANT, {}), ("pair minimal", {}), ("pair stochastic", {}),
], ids=["fixed-point", "newton", "newton-from-v", "newton-gth", "block-jacobi",
        "variant", "pair-minimal", "pair-stochastic"])
def test_every_iterate_is_its_own_array_and_keeps_the_bytes_its_step_gave_it(
        monkeypatch, method, kw):
    # the history keeps each iterate as its step made it, uncopied: a step
    # that wrote into an iterate it was given would change an earlier entry
    p = ex1(0.49)
    runs = recorded_runs(monkeypatch)
    if method == "pair minimal":  # from zero, as the reference falls back to
        o = opts(Method.NEWTON_GTH, tol=precision.REFERENCE_TOL, maxit=precision.REFERENCE_MAXIT)
        solvers._gth_block_jacobi(precision._PairProblem(p), o, Method.NEWTON_GTH, None)
    elif method == "pair stochastic":
        reference_solution(p, mode=precision.STOCHASTIC)
    else:
        solve(p, opts(method, maxit=60, **kw))
    assert runs
    for seen, report in runs:
        hist = report.iterate_history
        assert len(hist) == len(seen) == report.iterations + 1 > 2
        assert report.x is hist[-1]
        for k, (x, want) in enumerate(zip(hist, seen, strict=True)):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(buffers(x), buffers(want)))
            assert not any(np.shares_memory(a, b) for a in buffers(x)
                           for earlier in hist[:k] for b in buffers(earlier))


@pytest.mark.parametrize("method,kw,general", [
    (Method.BLOCK_JACOBI, {"block_sizes": (2, 3)}, False),
    (Method.BLOCK_JACOBI, {"block_sizes": (2, 0, 2)}, False),
    (Method.BLOCK_JACOBI_GTH_VARIANT, {"block_sizes": (2, 2)}, False),
    (Method.BLOCK_JACOBI_GTH_VARIANT, {"block_sizes": (1, 2)}, False),
    (Method.NEWTON_GTH, {"start": Start.V}, False),
    (Method.BLOCK_JACOBI, {}, True),
    (Method.FIXED_POINT, {"start": Start.CUSTOM}, False),
    (Method.NEWTON, {"start": Start.CUSTOM, "x0": np.zeros(3)}, False),
    (Method.NEWTON, {"start": Start.V}, True),
    (Method.NEWTON_GTH, {"block_sizes": (2, 3)}, False),
    (Method.BLOCK_JACOBI, {"block_sizes": (1, 3)}, False),
    (Method.BLOCK_JACOBI_GTH_VARIANT, {"block_sizes": (4,)}, False),
    (Method.FIXED_POINT, {"start": Start.V}, False),
])
def test_check_options_raises_what_solve_raises(method, kw, general):
    p = ex1(0.3)
    if general:
        p = Problem.from_general(p.a, scaled(p.p_tensor, 0.3))
    o = opts(method, **kw)
    try:
        solve(p, o)
    except ValueError as exc:
        with pytest.raises(ValueError) as checked:
            check_options(p, o)
        assert str(checked.value) == str(exc)
    else:
        assert check_options(p, o) is None


BUILTIN_BLOCKS = {"intro": (1, 1), "ex1": (2, 2), "ex2": (1, 3)}


@pytest.mark.parametrize("alpha", ["0.3", "0.49999", "0.5", "0.6"])
@pytest.mark.parametrize("name", ["intro", "ex1", "ex2"])
def test_builtins_solve_on_their_slab_with_the_csr_bits(monkeypatch, name, alpha):
    # the built-ins are sparse with n^3 <= SLAB_MAX_ENTRIES: every method
    # contracts through the slab, and gets the bits of S's product
    p = builtin(name, float(alpha), one_minus_two_alpha=exact_omt(alpha))
    assert p.p_tensor.nnz < p.n ** 3
    ref = reference_solution(p).x
    runs = [opts(m, block_sizes=BUILTIN_BLOCKS[name] if m is Method.BLOCK_JACOBI else None)
            for m in Method]
    slab = [solve(p, o, reference=ref) for o in runs]
    assert p.p_tensor._slab is not None and p.p_tensor._sym is None
    monkeypatch.setattr(Tensor3, "_symmetric", csr_symmetric)
    for o, got in zip(runs, slab, strict=True):
        assert_same_reports(got, solve(p, o, reference=ref))


def loop_error_histories(report, reference):
    """The per-iterate loop that solve() once ran for its error histories."""
    ref = np.asarray(reference, dtype=np.float64)
    e_cw, e_norm = [], []
    nz = ref != 0.0
    for xk in report.iterate_history:
        e_cw.append(float(np.max(np.abs(xk - ref)[nz] / np.abs(ref)[nz])))
        e_norm.append(float(np.linalg.norm(xk - ref) / np.linalg.norm(ref)))
    overshoot = float(max(np.max(xk - ref) for xk in report.iterate_history))
    return np.array(e_cw), np.array(e_norm), overshoot


def assert_histories_are_the_loops(p, o, ref):
    rep = solve(p, o, reference=ref)
    e_cw, e_norm, overshoot = loop_error_histories(rep, ref)
    assert rep.e_cw_history.tobytes() == e_cw.tobytes()
    assert rep.e_norm_history.tobytes() == e_norm.tobytes()
    assert rep.max_overshoot == overshoot
    return rep


class TestErrorHistories:
    def test_fixed_point_near_one_half_over_501_iterates(self):
        p = ex1(0.49999)
        rep = assert_histories_are_the_loops(p, opts(Method.FIXED_POINT), reference_solution(p).x)
        assert len(rep.iterate_history) == 501

    @pytest.mark.parametrize("method", list(Method))
    def test_a_reference_with_a_zero_entry(self, method):
        p = ex2(0.3)
        ref = reference_solution(p).x.copy()
        ref[1] = 0.0
        rep = assert_histories_are_the_loops(p, opts(method), ref)
        assert np.isfinite(rep.e_cw_history).all()

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_problems_and_references(self, seed):
        # references at, off and across decades from the solution: the last
        # bits of every normwise error show the order of its sums
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        p = random_pagerank_problem(rng, n, float(rng.choice([0.3, 0.49, 0.6])), density=0.5)
        x = solve(p, opts(Method.NEWTON_GTH)).x
        for ref in (x, x * (1.0 + rng.standard_normal(n) * 1e-3),
                    rng.random(n) * 10.0 ** rng.integers(-8, 8, size=n)):
            for method in (Method.NEWTON, Method.FIXED_POINT):
                assert_histories_are_the_loops(p, opts(method, maxit=60), ref)


@pytest.mark.slow
def test_dense_n_200_within_60_bytes_an_entry():
    rng = np.random.default_rng(200)
    U = exact_stochastic_unfolding(rng, 200)
    v = random_teleport_vector(200, 200)
    nnz, _, _, peak = pagerank_set_up_and_solves(U, v, (0.3, 0.49))
    assert nnz == 200 ** 3
    assert peak <= 60 * nnz


class TestTwoProblems:
    def test_general_problem_is_a_and_b(self):
        B = scaled(ex1(0.3).p_tensor, 0.3)
        p = Problem.from_general(ex1(0.3).a, B)
        assert p.tensor is B
        assert (p.v, p.p_tensor, p.alpha, p.one_minus_two_alpha) == (None,) * 4
        assert not p.is_pagerank

    @pytest.mark.parametrize("run", [
        lambda p: solve(p, opts(Method.NEWTON_GTH)),
        lambda p: solve(p, opts(Method.BLOCK_JACOBI, block_sizes=(1, 3))),
        lambda p: solve(p, opts(Method.FIXED_POINT)),
        lambda p: solve(p, opts(Method.NEWTON)),
        lambda p: solve(p, opts(Method.BLOCK_JACOBI_GTH_VARIANT)),
        lambda p: residual(p, p.v),
    ], ids=["newton-gth", "block-jacobi", "fixed-point", "newton", "variant", "residual"])
    def test_pagerank_problem_never_forms_b(self, run):
        p = ex1(0.3)
        assert p.tensor is None
        for _ in range(2):
            run(p)
            assert p.tensor is None
            assert not any(isinstance(value, Tensor3) for value in vars(p).values()
                           if value is not p.p_tensor)

    @pytest.mark.parametrize("build,message", [
        (lambda p, B: Problem(p.a, B, one_minus_two_alpha=0.4),
         "B is given with one_minus_two_alpha"),
        (lambda p, B: Problem(p.a, B, v=p.v, alpha=p.alpha), "B is given with v, alpha"),
        (lambda p, B: Problem(p.a, B, v=p.v, p_tensor=p.p_tensor, alpha=p.alpha),
         "B is given with v, P, alpha"),
    ], ids=["one-minus-two-alpha-without-alpha", "b-with-alpha-but-no-p", "b-and-p"])
    def test_every_other_combination_is_a_value_error(self, build, message):
        p = ex1(0.3)
        with pytest.raises(ValueError, match=message):
            build(p, scaled(p.p_tensor, p.alpha))

    def test_pagerank_problem_needs_v_p_and_alpha(self):
        p = ex1(0.3)
        with pytest.raises(ValueError, match="a PageRank problem needs alpha"):
            Problem(p.a, v=p.v, p_tensor=p.p_tensor, one_minus_two_alpha=0.4)
        with pytest.raises(ValueError, match="a PageRank problem needs v$"):
            Problem(p.a, p_tensor=p.p_tensor, alpha=0.3)

    def test_graph_residual_is_exact_for_b_rounded_from_p(self, rng):
        # the factored path: B's stored entries are fl(alpha p) over P.to_tensor3()
        A = np.triu(np.random.default_rng(5).random((9, 9)) < 0.5, k=1)
        v = random_teleport_vector(9, 5)
        p = Problem.from_pagerank(v, build_pagerank_tensor(Adjacency(matrix=A | A.T), v, 0.2), 0.45)
        solution = solve(p, opts(Method.NEWTON_GTH)).x
        points = [rng.random(9), solution]
        points += [solution * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, 9)) for _ in range(3)]
        for x in points:
            for got, want in zip(residual(p, x), exact_residual(p, x), strict=True):
                assert abs(Fraction(float(got)) - want) <= abs(want) / 2**53

    @pytest.mark.parametrize("v", [np.full(2, 0.5), np.full(4, 0.5), np.full((3, 1), 1 / 3)],
                             ids=["short", "long-not-stochastic", "column"])
    def test_v_of_another_shape_than_p_is_named_first(self, rng, v):
        # checked before alpha, v's sum or P's column sums
        P = Tensor3.from_unfolding(exact_stochastic_unfolding(rng, 3))
        message = re.escape(f"v has shape {v.shape}, but P has n = 3")
        with pytest.raises(ValueError, match=f"^{message}$"):
            Problem.from_pagerank(v, P, 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_v_or_a_is_rejected(self, rng, bad):
        P = Tensor3.from_unfolding(exact_stochastic_unfolding(rng, 3))
        v = np.full(3, 1 / 3)
        v[1] = bad
        with pytest.raises(ValueError, match=f"^v must be finite; entry 2 is {bad}$"):
            Problem.from_pagerank(v, P, 0.3)
        with pytest.raises(ValueError, match=f"^a must be finite; entry 2 is {bad}$"):
            Problem.from_general(v, P)

    def test_needs_b_or_p_and_alpha(self):
        with pytest.raises(ValueError, match="B is needed"):
            Problem(np.array([0.5]), v=np.array([1.0]), alpha=0.5)
        with pytest.raises(ValueError, match="dimensions disagree"):
            Problem(np.array([0.5]), p_tensor=ex1(0.3).p_tensor, alpha=0.5)
