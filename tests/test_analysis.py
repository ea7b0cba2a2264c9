"""Componentwise distance between tensors, and the perturbation generator."""

import math

import numpy as np
import pytest

from mlpagerank import (
    Tensor3,
    builtin,
    componentwise_zero_sum_perturb,
    compute_y,
    cw_distance,
    ex1,
    omega,
    reference_solution,
)

from conftest import random_pagerank_problem

U_ROUND = 2.0**-53


def pair(n, rng):
    """A random sparse tensor and a copy to perturb, as unfoldings."""
    U = rng.random((n, n * n))
    U[rng.random((n, n * n)) < 0.7] = 0.0
    U[0, 0] = 0.5  # entry (1,1,1) is stored
    U[n - 1, n * n - 1] = 0.0  # entry (n,n,n) is a structural zero
    return U, U.copy()


@pytest.mark.parametrize("n", [3, 65])
class TestTensorCwDistance:
    def test_identical(self, n, rng):
        U, V = pair(n, rng)
        d = cw_distance(Tensor3.from_unfolding(V), Tensor3.from_unfolding(U))
        assert d.value == 0.0

    def test_same_support_names_the_largest_change(self, n, rng):
        U, V = pair(n, rng)
        V *= 1.0 + 2.0 ** -40
        rows, cols = np.nonzero(U)
        r, c = rows[len(rows) // 2], cols[len(rows) // 2]
        V[r, c] = U[r, c] * 1.25
        d = cw_distance(Tensor3.from_unfolding(V), Tensor3.from_unfolding(U))
        assert d.value == abs(V[r, c] - U[r, c]) / U[r, c]
        assert d.argmax_index == (r + 1, c % n + 1, c // n + 1)

    def test_dropped_entry_gives_one(self, n, rng):
        U, V = pair(n, rng)
        V[0, 0] = 0.0
        d = cw_distance(Tensor3.from_unfolding(V), Tensor3.from_unfolding(U))
        assert d.value == 1.0
        assert d.argmax_index == (1, 1, 1)

    def test_value_on_structural_zero_gives_inf(self, n, rng):
        U, V = pair(n, rng)
        V[n - 1, n * n - 1] = 1e-300
        d = cw_distance(Tensor3.from_unfolding(V), Tensor3.from_unfolding(U))
        assert d.value == math.inf
        assert d.argmax_index == (n, n, n)

    def test_matches_the_unfoldings(self, n, rng):
        U, V = pair(n, rng)
        V *= 1.0 + 1e-3 * rng.random(V.shape)
        V[0, 0] = 0.0
        d = cw_distance(Tensor3.from_unfolding(V), Tensor3.from_unfolding(U))
        dense = cw_distance(V, U)
        assert d.value == dense.value
        i, c = dense.argmax_index
        assert d.argmax_index == (i, (c - 1) % n + 1, (c - 1) // n + 1)


def test_zero_tensors():
    d = cw_distance(Tensor3.zeros(3), Tensor3.zeros(3))
    assert d.value == 0.0 and d.argmax_index == ()


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions"):
        cw_distance(Tensor3.zeros(3), Tensor3.zeros(4))


def perturbation_input(key):
    """A built-in by name, or a conftest problem of size n and density."""
    if isinstance(key, str):
        return builtin(key, 0.3)
    n, density = key
    return random_pagerank_problem(np.random.default_rng(n), n, 0.3, density)


@pytest.mark.parametrize("epsilon", [1e-8, 1e-4, 0.1, 0.2499])
@pytest.mark.parametrize("key", ["intro", "ex1", "ex2", (3, 1.0), (3, 0.4), (6, 1.0), (6, 0.4)])
def test_componentwise_perturbation_keeps_the_model(key, epsilon):
    problem = perturbation_input(key)
    P = problem.p_tensor
    for seed in range(20):
        pert = componentwise_zero_sum_perturb(problem, epsilon, seed)
        Q = pert.p_tensor
        assert cw_distance(Q, P).value <= 2.0 * epsilon
        assert np.array_equal(Q.rows, P.rows) and np.array_equal(Q.cols, P.cols)
        U = Q.unfolding()
        for col in U[:, U.any(axis=0)].T:
            assert abs(math.fsum(col) - 1.0) <= 4.0 * U_ROUND
        assert pert.v is problem.v
        assert pert.alpha == problem.alpha
        assert pert.one_minus_two_alpha == problem.one_minus_two_alpha


def test_zero_perturbation_returns_the_problem():
    problem = ex1(0.3)
    assert componentwise_zero_sum_perturb(problem, 0.0, 0) is problem


@pytest.mark.parametrize("epsilon", [-1e-3, 0.25, math.nan])
def test_perturbation_size_out_of_range(epsilon):
    with pytest.raises(ValueError, match=r"epsilon must be in \[0, 0.25\)"):
        componentwise_zero_sum_perturb(ex1(0.3), epsilon, 0)


def test_omega_keeps_its_digits_just_above_the_pair_threshold():
    # at column sums 1 - 2 alpha = 2^-39 the binary64 S = M^{-1} - 1 z^T
    # loses about u / w = 1e-4 of its accuracy (omega read 4.462975 on ex1,
    # for 4.463039); omega is flat this close to 1/2, so the value at 2^-39
    # must agree with the one at 2^-47
    values = []
    for e in (39, 47):
        problem = ex1(0.5 - 2.0 ** -(e + 1))
        assert problem.one_minus_two_alpha == 2.0 ** -e
        values.append(omega(problem, reference_solution(problem).x))
    assert abs(values[0] - values[1]) <= 1e-9 * values[1]


@pytest.mark.parametrize("m,message", [
    ([0.25, np.nan, 0.25, 0.25], "R_m has entries that are not finite"),
    ([-0.25] * 4, r"R_m is not an M-matrix \(positive off-diagonal entries\)"),
], ids=["nan", "negative"])
@pytest.mark.parametrize("quantity", [compute_y, omega], ids=["compute_y", "omega"])
def test_kappa_and_omega_reject_an_m_whose_r_m_is_not_an_m_matrix(quantity, m, message):
    # the GTH kernel validates nothing, and compiled it carries a NaN through
    # quietly; perturb turns this ValueError into exit 3
    with pytest.raises(ValueError, match=message):
        quantity(ex1(0.3), np.array(m))
