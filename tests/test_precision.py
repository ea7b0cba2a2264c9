"""Compensated-pair arithmetic and the extended-precision reference solver."""

from fractions import Fraction

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
    reference_solution,
)
from mlpagerank.precision import DD, dd_sum
from mlpagerank.solvers import Method, SolverOptions, Start, solve

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
        err = (ref.x_pair - analytic).abs().max_abs()
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

    def test_rounded_reference_is_a_binary64_fixed_point(self):
        # rerunning one binary64 Newton step from the rounded reference moves
        # it by at most ~1e-14 componentwise
        p = ex1(0.3)
        ref = reference_solution(p, MINIMAL)
        opts = SolverOptions(method=Method.NEWTON, tol=0.0, maxit=1,
                             start=Start.CUSTOM, x0=ref.x)
        rep = solve(p, opts)
        assert np.max(np.abs(rep.x - ref.x) / np.abs(ref.x)) <= 1e-14

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
        ref = reference_solution(p, MINIMAL, exact_stochastic=True)
        assert ref.converged
        # the two roots of the sum equation are only (1-2alpha)/alpha apart,
        # so a residual of 1e-28 pins the sum to about sqrt(1e-28) only
        assert abs(dd_sum(ref.x_pair).to_float() - 1.0) <= 1e-13
