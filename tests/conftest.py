"""Shared construction helpers for the test suite."""

import numpy as np
import pytest

from mlpagerank import (
    Adjacency,
    Problem,
    Tensor3,
    force_sum_one,
    mmatrix,
    tensor,
    three_cycle_tensor,
)


def exact_stochastic_unfolding(rng, n, density=1.0):
    """Random n x n^2 unfolding whose columns sum to 1.0 in binary64 exactly.

    Near alpha = 1/2 the solvers respond to one-ulp column defects at the
    sqrt level, so test instances are built stochastic to the last bit: after
    normalization the largest entry of each column absorbs the leftover.
    """
    U = rng.random((n, n * n))
    if density < 1.0:
        mask = rng.random((n, n * n)) < density
        U = U * mask
        empty = ~mask.any(axis=0)
        U[rng.integers(0, n, size=int(empty.sum())), np.nonzero(empty)[0]] = 1.0
    U /= U.sum(axis=0)[None, :]
    for c in range(n * n):
        imax = int(np.argmax(U[:, c]))
        for _ in range(5):
            excess = U[:, c].sum() - 1.0
            if excess == 0.0:
                break
            U[imax, c] -= excess
    return U


def scaled(B, c):
    """B with every stored value times c, rounded once: non-stochastic values."""
    return Tensor3.from_coordinates(B.n, B.rows, B.cols, B.vals * c)


def stored_b_entries(p):
    """(i, j, k, b) of B as stored: fl(alpha p) from P on a PageRank problem."""
    if p.p_tensor is None:
        return list(p.tensor.entries())
    return [(i, j, k, p.alpha * b) for i, j, k, b in p.p_tensor.to_tensor3().entries()]


def held_bytes(a):
    """Bytes of the buffer an array lives in, not just of its view."""
    return (a if a.base is None else a.base).nbytes


def count_product_builds(monkeypatch):
    """A list that gets (structure, tensor) at each build of a Tensor3's
    product structure: its "slab", "half_slab" or slice matrix, "sym_matrix"."""
    builds = []

    def counted(name, slot):
        build = getattr(Tensor3, name)

        def counting(self):
            if getattr(self, slot) is None:
                builds.append((name, self))
            return build(self)

        monkeypatch.setattr(Tensor3, name, counting)

    counted("slab", "_slab")
    counted("half_slab", "_half")
    counted("sym_matrix", "_sym")
    return builds


def full_structure(n):
    """The product structure a Tensor3 that stores all n^3 entries builds."""
    if n >= tensor.HALF_SLAB_MIN_N and mmatrix._half_slab is not None:
        return "half_slab"
    return "slab"


def csr_symmetric(B, x):
    """The sparse path's product S x on any Tensor3, a full one included."""
    return (B.sym_matrix() @ x).reshape(B.n, B.n)


def cycle_graph(n):
    """The n-cycle, undirected: for n >= 4 it has no triangles."""
    A = np.zeros((n, n), dtype=bool)
    ring = np.arange(n)
    A[ring, (ring + 1) % n] = A[(ring + 1) % n, ring] = True
    return Adjacency(matrix=A)


CSR_EDGE_CASES = ["no entries", "rows without entries", "j = k only", "triangle-free graph"]


def csr_edge_tensor(name):
    """A sparse tensor at n = 20, past the slab rule, at an edge of S's build.

    Values spread over 12 decades, so summation order shows in the bits.
    """
    n = 20
    rng = np.random.default_rng(20)
    if name == "no entries":
        return Tensor3.zeros(n)
    if name == "rows without entries":
        U = rng.random((n, n * n)) * 10.0 ** rng.integers(-6, 6, size=(n, n * n))
        U[rng.random((n, n * n)) >= 0.1] = 0.0
        U[[0, 7, 8, 19]] = 0.0
        return Tensor3.from_unfolding(U)
    if name == "j = k only":
        return Tensor3(n, [(i, j, j, rng.random() * 10.0 ** rng.integers(-6, 6))
                           for i in range(1, n + 1, 2) for j in range(1, n + 1)
                           if rng.random() < 0.6])
    if name == "triangle-free graph":
        return three_cycle_tensor(cycle_graph(n))
    raise ValueError(name)


def random_pagerank_problem(rng, n, alpha, density=1.0, one_minus_two_alpha=None):
    U = exact_stochastic_unfolding(rng, n, density)
    v = rng.random(n) + 0.05
    v = force_sum_one(v / v.sum())
    return Problem.from_pagerank(v, Tensor3.from_unfolding(U), alpha, one_minus_two_alpha)


# The seed's binary64 formulas, restated as plain loops of the kernel's
# rounding: a pivot sums the entries beyond it in the eliminated orientation
# with the sums entry last, and every update is (a / d) b, with a the entry
# in the pivot's column of that orientation (its row for a ROW triplet).
# The kernel's pivots and multipliers reproduce these factors bit for bit;
# the fused solve, which rounds the right-hand sides inside the pass, matches
# the substitutions to the componentwise bound of a subtraction-free solve.

def seed_gth_factor(N, sig, by_row):
    n = N.shape[0]
    N = N.copy()
    sig = sig.copy()
    L = np.eye(n)
    U = np.zeros((n, n))
    for k in range(n):
        if by_row:
            d = np.append(N[k, k + 1 :], sig[k]).sum()
        else:
            d = np.append(N[k + 1 :, k], sig[k]).sum()
        U[k, k] = d
        U[k, k + 1 :] = -N[k, k + 1 :]
        L[k + 1 :, k] = -N[k + 1 :, k] / d
        if k < n - 1:
            if by_row:
                N[k + 1 :, k + 1 :] += np.outer(N[k + 1 :, k], N[k, k + 1 :] / d)
            else:
                N[k + 1 :, k + 1 :] += np.outer(N[k + 1 :, k] / d, N[k, k + 1 :])
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture
def dense_unfolding_60():
    """A dense n = 60 unfolding, stochastic to the last bit, and a teleport vector."""
    rng = np.random.default_rng(60)
    U = exact_stochastic_unfolding(rng, 60)
    v = rng.random(60) + 0.05
    return U, force_sum_one(v / v.sum())
