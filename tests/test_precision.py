"""Compensated-pair arithmetic and the extended-precision reference solver."""

from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpagerank import (
    MINIMAL,
    STOCHASTIC,
    Problem,
    Tensor3,
    intro,
    ex1,
    ex2,
    reference_solution,
)
from mlpagerank import precision, solvers
from mlpagerank.analysis import componentwise_zero_sum_perturb
from mlpagerank.mmatrix import SingularPivotError, plain_lu_solve
from mlpagerank.precision import (
    DD,
    _dd_segment_sums,
    dd_contract_slab,
    dd_contract_sym,
    dd_lu_solve,
    dd_slab,
    dd_sum,
    dd_sym_matrix,
)
from mlpagerank.solvers import Method, SolverOptions, Start, Termination, solve

from conftest import CSR_EDGE_CASES, csr_edge_tensor, random_pagerank_problem, scaled

finite_floats = st.floats(
    min_value=1e-8, max_value=1e8, allow_nan=False, allow_infinity=False
)


def as_fraction(x):
    """The exact value hi + lo of a 0-d DD."""
    return Fraction(float(x.hi)) + Fraction(float(x.lo))


class TestScalarOps:
    def test_small_addend_kept_exactly(self):
        x = DD(1.0) + DD(2.0 ** -60)
        assert as_fraction(x) == Fraction(1) + Fraction(2) ** -60

    def test_product_of_near_ones(self):
        # (1 + 2^-60)(1 - 2^-60) = 1 - 2^-120, recovered to the pair error model
        a = DD(1.0) + DD(2.0 ** -60)
        b = DD(1.0) + DD(-(2.0 ** -60))
        got = as_fraction(a * b)
        want = Fraction(1) - Fraction(2) ** -120
        assert abs(got - want) <= Fraction(2) ** -104

    @settings(max_examples=50, deadline=None)
    @given(finite_floats)
    def test_self_division_is_one(self, value):
        q = DD(value) / DD(value)
        assert abs(as_fraction(q) - 1) <= Fraction(2) ** -100

    @settings(max_examples=50, deadline=None)
    @given(finite_floats, finite_floats)
    def test_ops_match_exact_rationals(self, a, b):
        xa, xb = DD(a), DD(b)
        assert as_fraction(xa + xb) == Fraction(a) + Fraction(b)
        prod = as_fraction(xa * xb)
        exact = Fraction(a) * Fraction(b)
        assert abs(prod - exact) <= abs(exact) * Fraction(2) ** -104
        quot = as_fraction(xa / xb)
        exact_q = Fraction(a) / Fraction(b)
        assert abs(quot - exact_q) <= abs(exact_q) * Fraction(2) ** -104

    # Pairs with nonzero low parts of either sign, |lo| <= ulp(hi)/2, over
    # 40 binades; 2^-104 relative is four times the worst error seen in
    # 20000 such pairs for every operation.
    def random_pairs(self, rng, m=500):
        hi = rng.uniform(0.5, 2.0, m) * 2.0 ** rng.integers(-20, 20, m)
        hi *= np.where(rng.random(m) < 0.5, -1.0, 1.0)
        lo = hi * 2.0 ** -53 * rng.uniform(-1.0, 1.0, m)
        return DD(hi + lo, (hi - (hi + lo)) + lo)

    def test_pairs_with_low_parts_match_exact_rationals(self, rng):
        a, b = self.random_pairs(rng), self.random_pairs(rng)
        exact_a = [as_fraction(a[i]) for i in range(len(a))]
        exact_b = [as_fraction(b[i]) for i in range(len(b))]
        for op, result in ((Fraction.__add__, a + b), (Fraction.__mul__, a * b),
                           (Fraction.__truediv__, a / b)):
            for i in range(len(a)):
                exact = op(exact_a[i], exact_b[i])
                assert abs(as_fraction(result[i]) - exact) <= abs(exact) * Fraction(2) ** -104

    def test_sum_is_exact_when_hi_parts_cancel(self, rng):
        # hi1 + hi2 = 0, so the sum is lo1 + lo2, which a pair holds exactly
        a = self.random_pairs(rng)
        lo = a.hi * 2.0 ** -53 * rng.uniform(-1.0, 1.0, len(a))
        b = DD(-a.hi, lo)
        total = a + b
        for i in range(len(a)):
            assert as_fraction(total[i]) == as_fraction(a[i]) + as_fraction(b[i])
        x = DD(1.0, 2.0 ** -54) + DD(-1.0, 2.0 ** -54 + 2.0 ** -106)
        assert as_fraction(x) == Fraction(2) ** -53 + Fraction(2) ** -106

    def test_division_keeps_its_third_correction(self):
        # quotients whose two-term approximation q1 + q2 is still off by more
        # than 2^-104 relative; the third correction brings them within it
        cases = [
            ("0x1.45fc7a4fcc3f9p+0", "-0x1.95921b020e6a0p-54",
             "0x1.2f69487ed20e4p+0", "0x1.f4ebcb709ce6fp-54"),
            ("0x1.365137d2130fcp+0", "-0x1.0a984eea1dd9ep-54",
             "0x1.0c9fbc065509cp+0", "0x1.e6caf2a3364c6p-54"),
        ]
        for h1, l1, h2, l2 in cases:
            a = DD(float.fromhex(h1), float.fromhex(l1))
            b = DD(float.fromhex(h2), float.fromhex(l2))
            exact = as_fraction(a) / as_fraction(b)
            assert abs(as_fraction(a / b) - exact) <= exact * Fraction(2) ** -104


class TestDDVectors:
    def test_pairwise_sum_exact_for_mixed_scales(self):
        hi = np.array([1.0, 2.0 ** -60, 2.0 ** -61, -1.0])
        total = dd_sum(DD(hi))
        want = Fraction(2) ** -60 + Fraction(2) ** -61
        assert as_fraction(total) == want

    def test_vector_sum_is_exactly_rounded(self, rng):
        # hi is the exact sum of all 2m parts rounded once, lo the rest of it
        # rounded once, at mixed scales and where hi or low parts cancel
        cases = [DD(np.array([1.0, -1.0, 2.0 ** -60]),
                    np.array([2.0 ** -80, -2.0 ** -80, 2.0 ** -120])),
                 DD(np.zeros(0))]
        for mode in range(300):
            m = int(rng.integers(1, 30))
            hi = rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.integers(-30, 31, m)
            lo = hi * 2.0 ** -53 * rng.uniform(-1.0, 1.0, m)
            if mode % 3:  # the hi parts cancel, so the low parts decide
                hi = np.concatenate((hi, -hi))
                lo = np.concatenate((lo, -rng.permutation(lo) if mode % 3 == 2 else lo))
            cases.append(DD(hi, lo))
        for v in cases:
            exact = sum(map(Fraction, v.hi.tolist() + v.lo.tolist()), Fraction(0))
            total = v.sum()
            # Fraction -> float divides two integers, which rounds once, to nearest
            assert float(total.hi) == float(exact)
            assert float(total.lo) == float(exact - Fraction(float(total.hi)))

    @staticmethod
    def random_dd(rng, shape):
        hi = rng.uniform(-1.0, 1.0, shape)
        return DD(hi, hi * 2.0 ** -53 * rng.uniform(-1.0, 1.0, shape))

    @staticmethod
    def assert_same_bits(got, want):
        assert got.hi.tobytes() == want.hi.tobytes()
        assert got.lo.tobytes() == want.lo.tobytes()

    @pytest.mark.parametrize("lengths", [
        [0, 1, 2, 0, 3, 4, 7, 0, 8, 1, 2, 3, 0, 37, 5, 5, 6, 0],  # ragged
        [13],  # one bucket
        [0, 0, 0],  # no entries
        [0, 1, 0],
    ])
    def test_segment_sums_match_one_dd_sum_per_bucket(self, rng, lengths):
        keys = np.repeat(np.arange(len(lengths)), lengths)
        weights = self.random_dd(rng, len(keys))
        want = DD.zeros(len(lengths))  # one dd_sum per bucket, the fold's oracle
        bounds = np.searchsorted(keys, np.arange(len(lengths) + 1))
        for b in range(len(lengths)):
            if bounds[b + 1] > bounds[b]:
                want[b] = dd_sum(weights[bounds[b]:bounds[b + 1]])
        self.assert_same_bits(_dd_segment_sums(weights, bounds), want)

    @staticmethod
    def assert_within_2_n_ulps(B, vals, x, products):
        """Every product's C_il = sum_j (b_ijl + b_ilj) x_j within 2n pair ulps
        of the exact rational value."""
        n = B.n
        b = {}
        for t, (i, j, k, _) in enumerate(B.entries()):
            b[i - 1, j - 1, k - 1] = as_fraction(vals[t])
        xs = [as_fraction(x[j]) for j in range(n)]
        for i in range(n):
            for l in range(n):
                want = sum((b.get((i, j, l), 0) + b.get((i, l, j), 0)) * xs[j]
                           for j in range(n))
                for got in products:
                    assert abs(as_fraction(got[i, l]) - want) <= 2 * n * want / 2**104

    @staticmethod
    def pair_values(rng, B):
        """B's values as pairs with nonzero low parts."""
        return DD(B.vals, B.vals * 2.0 ** -53 * rng.uniform(-1.0, 1.0, B.nnz))

    def test_contract_sym_within_2_n_ulps_of_exact_rationals(self, rng):
        # values and x with nonzero low parts; every other tensor stores all
        # n^3 entries and goes through the slab too
        for case in range(80):
            n = int(rng.integers(1, 9))
            U = rng.random((n, n * n)) * 10.0 ** rng.integers(-3, 3, size=(n, n * n))
            full = case % 2 == 1
            if not full:
                U[rng.random((n, n * n)) < rng.random()] = 0.0
            B = Tensor3.from_unfolding(U)
            assert (B.nnz == n ** 3) or not full
            vals = self.pair_values(rng, B)
            x = self.random_dd(rng, n).abs()
            products = [dd_contract_sym(dd_sym_matrix(B, vals), x)]
            if full:
                # S then holds every entry of the slab: the same folds, bit for bit
                products.append(dd_contract_slab(dd_slab(vals, n), x))
                self.assert_same_bits(*products)
            self.assert_within_2_n_ulps(B, vals, x, products)

    @pytest.mark.parametrize("name", CSR_EDGE_CASES)
    def test_csr_edge_cases_within_2_n_ulps_of_exact_rationals(self, rng, name):
        B = csr_edge_tensor(name)
        vals = self.pair_values(rng, B)
        x = self.random_dd(rng, B.n).abs()
        C = dd_contract_sym(dd_sym_matrix(B, vals), x)
        self.assert_within_2_n_ulps(B, vals, x, [C])
        if B.nnz == 0:
            assert not C.hi.any() and not C.lo.any()

    @staticmethod
    def lu_solve_row_by_row(A, b):
        """dd_lu_solve with its elimination one row at a time."""
        A = A.copy()
        x = b.copy()
        n = A.shape[0]
        for k in range(n):
            col = A[k:, k].abs()
            p = k + int(np.argmax(col.hi + col.lo))
            if (A.hi[p, k] + A.lo[p, k]) == 0.0:
                raise SingularPivotError(f"singular matrix at column {k + 1}")
            if p != k:
                A.hi[[k, p]], A.lo[[k, p]] = A.hi[[p, k]].copy(), A.lo[[p, k]].copy()
                x.hi[[k, p]], x.lo[[k, p]] = x.hi[[p, k]].copy(), x.lo[[p, k]].copy()
            piv = A[k, k]
            for i in range(k + 1, n):
                m = A[i, k] / piv
                A[i, k + 1 :] = A[i, k + 1 :] - DD(m.hi, m.lo) * A[k, k + 1 :]
                x[i] = x[i] - m * x[k]
        out = DD.zeros(n)
        for k in range(n - 1, -1, -1):
            acc = x[k]
            if k < n - 1:
                acc = acc - A[k, k + 1 :] @ out[k + 1 :]
            out[k] = acc / A[k, k]
        return out

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_lu_solve_matches_row_by_row_elimination(self, rng, n):
        for _ in range(5):
            A = self.random_dd(rng, (n, n))
            A.hi[0, 0] *= 1e-3  # the first column needs a row swap
            b = self.random_dd(rng, n)
            self.assert_same_bits(dd_lu_solve(A, b), self.lu_solve_row_by_row(A, b))

    def test_elementwise_roundtrip(self, rng):
        a = DD(rng.random(6))
        b = DD(rng.random(6))
        prod = a * b
        back = prod / b
        assert np.max(np.abs(back.to_float() - a.to_float())) <= 1e-28


class TestReferenceSolution:
    def test_intro_matches_analytic_dyadic_delta(self):
        # with a dyadic delta the vector [1-delta, delta] is exactly
        # representable and exactly stochastic, so the reference must hit it
        # at full pair precision
        delta = 2.0 ** -20
        p = intro(delta, 0.3)
        ref = reference_solution(p, MINIMAL)
        assert ref.converged and ref.residual_norm <= 1e-25
        analytic = DD(p.v.copy())
        err = float(abs(ref.x_pair - analytic).max())
        assert err <= 1e-25

    def test_intro_matches_analytic_decimal_delta(self):
        # delta = 1e-6 is not exactly representable; the float image of
        # [1-delta, delta] carries ~1e-17 of representation error, which is
        # the agreement floor for any reference computed from that data
        p = intro(1e-6, 0.3)
        ref = reference_solution(p, MINIMAL)
        assert ref.converged
        err = np.max(np.abs(ref.x - p.v) / p.v)
        assert err <= 5e-16

    def test_ex1_rounds_to_published_digits(self):
        ref = reference_solution(ex1(0.49999), MINIMAL)
        published = np.array([2.4655e-1, 8.2687e-2, 2.1565e-7, 6.7076e-1])
        assert np.max(np.abs(ref.x - published) / published) <= 1e-4

    def test_zero_tensor_returns_a(self):
        a = np.array([0.2, 0.7])
        p = Problem.from_general(a, Tensor3.zeros(2))
        ref = reference_solution(p, MINIMAL)
        assert np.array_equal(ref.x, a)
        assert ref.iterations <= 1

    def test_a_triangle_free_graph_tensor_returns_a(self):
        # the pair S of an empty three-cycle tensor stores nothing: C = 0
        a = np.random.default_rng(4).random(20) * 0.04
        p = Problem.from_general(a, csr_edge_tensor("triangle-free graph"))
        ref = reference_solution(p, MINIMAL)
        assert ref.converged and np.array_equal(ref.x, a)
        assert ref.x_pair.lo.tobytes() == np.zeros(20).tobytes()

    def test_rounded_reference_is_a_binary64_fixed_point(self):
        # rerunning one binary64 Newton step from the rounded reference moves
        # it by at most ~1e-14 componentwise
        p = ex1(0.3)
        ref = reference_solution(p, MINIMAL)
        opts = SolverOptions(method=Method.NEWTON, tol=0.0, maxit=1,
                             start=Start.CUSTOM, x0=ref.x)
        rep = solve(p, opts)
        assert np.max(np.abs(rep.x - ref.x) / np.abs(ref.x)) <= 1e-14

    @pytest.mark.parametrize("build,mode,path", [
        (lambda: ex1(0.3), MINIMAL, "sparse"),  # seeded from binary64 Newton-GTH
        (lambda: ex2(0.9951), STOCHASTIC, "sparse"),
        (lambda: Problem.from_general(ex1(0.3).a, scaled(ex1(0.3).p_tensor, 0.3)), MINIMAL,
         "sparse"),
        # all n^3 entries stored: the pair slab, built once
        (lambda: random_pagerank_problem(np.random.default_rng(1), 6, 0.3), MINIMAL, "slab"),
    ], ids=["seeded", "stochastic", "general", "full"])
    def test_one_contraction_per_step(self, monkeypatch, build, mode, path):
        builders = {"sparse": "dd_sym_matrix", "slab": "dd_slab"}
        products = {"sparse": "dd_contract_sym", "slab": "dd_contract_slab"}
        counts = dict.fromkeys([*builders.values(), *products.values()], 0)
        for name in counts:
            def counting(*args, _name=name, _real=getattr(precision, name)):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(precision, name, counting)
        ref = reference_solution(build(), mode)
        assert ref.converged and ref.iterations > 0
        want = dict.fromkeys(counts, 0)
        want.update({builders[path]: 1, products[path]: ref.iterations + 1})
        assert counts == want

    def test_stochastic_mode_needs_pagerank(self):
        p = Problem.from_general(np.array([0.1]), Tensor3.zeros(1))
        with pytest.raises(ValueError, match="PageRank"):
            reference_solution(p, STOCHASTIC)

    def test_decimal_strings_have_34_digits(self):
        ref = reference_solution(intro(1e-6, 0.3), MINIMAL)
        strings = ref.decimal_strings()
        assert len(strings) == 2
        digits = strings[0].replace(".", "").replace("-", "").lstrip("0")
        digits = digits.split("E")[0].split("e")[0]
        assert len(digits) >= 30

    def test_exact_stochastic_sum_law_moderate_alpha(self):
        p = ex1(0.49)
        ref = reference_solution(p, MINIMAL)
        assert ref.converged
        # minimal solution is stochastic for alpha <= 1/2
        assert abs(dd_sum(ref.x_pair).to_float() - 1.0) <= 1e-25

    def test_exact_stochastic_mode_handles_near_half_alpha(self):
        p = ex1(0.499999999999999)
        ref = reference_solution(p, MINIMAL)
        assert ref.converged
        # the two roots of the sum equation are only (1-2alpha)/alpha apart,
        # so a residual of 1e-28 pins the sum to about sqrt(1e-28) only
        assert abs(dd_sum(ref.x_pair).to_float() - 1.0) <= 1e-13


def mpmath_minimal_solution(problem):
    """Newton from zero in mpmath on the exactly normalized data.

    v and the unfolding columns are divided by their exact sums, as the
    pair-precision reference does; alpha is the binary64 value.  Call it
    inside mpmath.workdps.
    """
    mp = mpmath.mp
    n = problem.n
    U = problem.p_tensor.unfolding()
    alpha = mp.mpf(problem.alpha)
    v = [mp.mpf(float(t)) for t in problem.v]
    vsum = mp.fsum(v)
    a = [(1 - alpha) * t / vsum for t in v]
    B = [[[mp.mpf(0)] * n for _ in range(n)] for _ in range(n)]
    for c in range(n * n):
        col = [mp.mpf(float(U[i, c])) for i in range(n)]
        csum = mp.fsum(col)
        for i in range(n):
            B[i][c % n][c // n] = alpha * col[i] / csum
    x = [mp.mpf(0)] * n
    for _ in range(200):
        r = [a[i] + mp.fsum(B[i][j][k] * x[j] * x[k] for j in range(n) for k in range(n))
             - x[i] for i in range(n)]
        R = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                R[i, j] = (i == j) - mp.fsum((B[i][j][k] + B[i][k][j]) * x[k]
                                             for k in range(n))
        h = mp.lu_solve(R, mp.matrix(r))
        x = [x[i] + h[i] for i in range(n)]
        if all(abs(h[i]) <= mp.mpf(10) ** (10 - mp.dps) * x[i] for i in range(n)):
            return x
    raise AssertionError("mpmath Newton did not converge")


def error_against_mpmath(ref, problem, digits=80):
    """max_i |x_i - m_i| / m_i, with m from an mpmath Newton at `digits` digits."""
    with mpmath.workdps(digits):
        m = mpmath_minimal_solution(problem)
        return max(float(abs(mpmath.mpf(float(h)) + mpmath.mpf(float(l)) - t) / t)
                   for h, l, t in zip(ref.x_pair.hi, ref.x_pair.lo, m))


def from_zero(problem, monkeypatch):
    """The reference started from zero: the seed run is made to end MAXIT."""
    real = solvers.newton_gth
    with monkeypatch.context() as m:
        m.setattr(solvers, "newton_gth",
                  lambda p, opts: real(p, SolverOptions(maxit=1)))
        return reference_solution(problem, MINIMAL)


BUILTINS = {"intro": lambda alpha: intro(1e-6, alpha), "ex1": ex1, "ex2": ex2}


class TestSeededReference:
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    @pytest.mark.parametrize("alpha, bound, max_steps",
                             [(0.3, 1e-30, 2), (0.49999, 1e-27, 3), (0.6, 1e-30, 2)])
    def test_matches_mpmath_newton(self, name, alpha, bound, max_steps):
        problem = BUILTINS[name](alpha)
        ref = reference_solution(problem, MINIMAL)
        assert ref.converged
        assert ref.iterations <= max_steps
        assert error_against_mpmath(ref, problem) <= bound

    @pytest.mark.parametrize("alpha", [0.3, 0.6])
    @pytest.mark.parametrize("n, seed", [(n, seed) for n in (6, 10) for seed in (1, 2, 3)])
    def test_fully_stored_matches_mpmath_newton(self, n, seed, alpha):
        # every entry stored: the pair renormalization folds over i and the
        # products go through the pair slab
        problem = random_pagerank_problem(np.random.default_rng(seed), n, alpha)
        assert problem.p_tensor.nnz == n ** 3
        ref = reference_solution(problem, MINIMAL)
        assert ref.converged
        assert ref.iterations <= 2
        assert error_against_mpmath(ref, problem) <= 1e-30

    @pytest.mark.parametrize("name, alpha, steps", [
        ("intro", 0.3, {7}), ("ex1", 0.49999, {21}), ("ex2", 0.5, {46, 47}),
    ])
    def test_seed_run_short_of_tolerance_gives_run_from_zero(
            self, monkeypatch, name, alpha, steps):
        ref = from_zero(BUILTINS[name](alpha), monkeypatch)
        assert ref.converged
        assert ref.iterations in steps

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    @pytest.mark.parametrize("alpha", [0.3, 0.6])
    def test_perturbed_seed_corrects_itself(self, monkeypatch, name, alpha):
        problem = BUILTINS[name](alpha)
        want = from_zero(problem, monkeypatch)
        real = solvers.newton_gth

        def scaled(p, opts):
            rep = real(p, opts)
            rep.x = rep.x * (1.0 + 1e-6)
            return rep

        monkeypatch.setattr(solvers, "newton_gth", scaled)
        ref = reference_solution(problem, MINIMAL)
        assert ref.converged
        err = (ref.x_pair - want.x_pair).abs().to_float() / want.x
        assert err.max() <= 1e-27

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_seed_past_the_singular_root_restarts_from_zero(self, monkeypatch, name):
        # at alpha = 1/2 a seed with 1^T x > 1 makes z = 1 - 1^T x negative
        problem = BUILTINS[name](0.5)
        want = from_zero(problem, monkeypatch)
        real = solvers.newton_gth

        def past_the_root(p, opts):
            rep = real(p, opts)
            assert rep.termination is Termination.TOL_REACHED
            rep.x = rep.x * (1.0 + 1e-6)
            assert rep.x.sum() > 1.0
            return rep

        monkeypatch.setattr(solvers, "newton_gth", past_the_root)
        ref = reference_solution(problem, MINIMAL)
        assert ref.converged
        assert ref.x_pair.hi.tobytes() == want.x_pair.hi.tobytes()
        assert ref.x_pair.lo.tobytes() == want.x_pair.lo.tobytes()
        assert ref.iterations == want.iterations


class TestNoSilentMixing:
    def test_ndarray_operands_give_dd(self):
        A = DD(np.ones((2, 2)), np.full((2, 2), 2.0 ** -60))
        for got, want in ((np.eye(2) - A, DD(np.eye(2)) - A),
                          (np.eye(2) + A, DD(np.eye(2)) + A),
                          (np.full((2, 2), 3.0) * A, DD(np.full((2, 2), 3.0)) * A),
                          (np.float64(2.0) * A, DD(2.0) * A)):
            assert isinstance(got, DD)
            TestDDVectors.assert_same_bits(got, want)

    def test_conversion_to_ndarray_raises(self):
        x = DD(np.ones(2), np.full(2, 2.0 ** -60))
        with pytest.raises(TypeError, match="to_float"):
            np.asarray(x)
        with pytest.raises(TypeError):
            plain_lu_solve(np.eye(2), x)  # a binary64 solve handed pairs


def recording_iterate(monkeypatch):
    """The reports of every solvers._iterate run, in call order."""
    reports = []
    real = solvers._iterate

    def recording(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(solvers, "_iterate", recording)
    return reports


def direct_pair_residual(problem, x):
    """max |a + Bx^2 - x| for the pair-renormalized problem, C from one contraction."""
    B = problem.p_tensor.to_tensor3()
    alpha = DD(problem.alpha)
    v = DD(problem.v) / dd_sum(DD(problem.v))
    vals = DD(B.vals) * alpha / precision._dd_column_sums(B)[B.cols]
    C = dd_contract_sym(dd_sym_matrix(B, vals), x)
    return float(abs((DD(1.0) - alpha) * v + 0.5 * (C @ x) - x).max())


def grid_problem(name, alpha):
    """A built-in, or a dense random problem "dense<n>", at the decimal alpha."""
    if name in BUILTINS:
        return BUILTINS[name](float(alpha))
    n = int(name.removeprefix("dense"))
    omt = float(1 - 2 * Decimal(alpha))
    return random_pagerank_problem(np.random.default_rng(n), n, float(alpha), omt)


class TestOneDriver:
    """The references run on the solvers' drivers, on pair arrays."""

    @pytest.mark.parametrize("name, alpha", [
        *((name, alpha) for name in sorted(BUILTINS)
          for alpha in ("0.3", "0.49", "0.49999", "0.5", "0.6", "0.9")),
        *((name, alpha) for name in ("dense8", "dense16")
          for alpha in ("0.3", "0.49", "0.49999", "0.5", "0.6")),
    ])
    def test_converged_reference_has_a_direct_residual_within_tol(self, name, alpha):
        # the driver stops on its carried residual; the direct one must agree
        problem = grid_problem(name, alpha)
        converged = 0
        for p in (problem, *(componentwise_zero_sum_perturb(problem, 1e-8, seed)
                             for seed in (1, 2))):
            ref = reference_solution(p, MINIMAL)
            if ref.converged:
                converged += 1
                assert direct_pair_residual(p, ref.x_pair) <= precision.REFERENCE_TOL
        assert converged > 0

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_pair_z_halves_exactly_from_zero_at_alpha_half(self, monkeypatch, name):
        reports = recording_iterate(monkeypatch)
        ref = from_zero(BUILTINS[name](0.5), monkeypatch)
        run = reports[-1]
        assert ref.converged and isinstance(run.x, DD)
        assert run.iterations == ref.iterations
        assert np.array_equal(run.z_history, 2.0 ** -np.arange(ref.iterations + 1.0))

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_seeded_reference_runs_the_loop_twice(self, monkeypatch, name):
        reports = recording_iterate(monkeypatch)
        ref = reference_solution(BUILTINS[name](0.3), MINIMAL)
        assert ref.converged
        assert [type(r.x) for r in reports] == [np.ndarray, DD]
        assert ref.iterations == reports[-1].iterations

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_fallback_reference_runs_the_loop_three_times(self, monkeypatch, name):
        real = solvers.newton_gth

        def past_the_root(p, opts):
            rep = real(p, opts)
            rep.x = rep.x * (1.0 + 1e-6)  # z_0 = 1 - 1^T x_0 < 0 at alpha = 1/2
            return rep

        monkeypatch.setattr(solvers, "newton_gth", past_the_root)
        reports = recording_iterate(monkeypatch)
        ref = reference_solution(BUILTINS[name](0.5), MINIMAL)
        assert ref.converged
        assert [(type(r.x), r.termination) for r in reports] == [
            (np.ndarray, Termination.TOL_REACHED),
            (DD, Termination.SINGULAR_PIVOT),
            (DD, Termination.TOL_REACHED),
        ]
