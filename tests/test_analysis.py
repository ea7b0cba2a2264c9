"""Componentwise distance between tensors."""

import math

import numpy as np
import pytest

from mlpagerank import Tensor3, cw_distance


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
