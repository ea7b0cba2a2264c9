"""Spanning-tree oracles (all-minors matrix tree theorem), for n <= 6.

The oracles compute determinants, adjugates and the partial-inverse split of
a ROW triplet from sums over spanning forests, products of nonnegative weights
only.  They serve as exact references for the GTH routines (test_mmatrix
imports them) and are checked here symbolically and numerically.
"""

from itertools import product

import numpy as np
import pytest
import sympy

from triplets import ROW, PartialInverse, TripletMMatrix

TREE_ORACLE_LIMIT = 6


def triplet_weights(T):
    """Weight table W[i-1][j] = w_{i,j} (j = 0..n) from a ROW triplet."""
    if T.orientation != ROW:
        raise ValueError("tree oracles expect ROW orientation")
    n = T.n
    W = np.zeros((n, n + 1))
    W[:, 0] = T.sums
    W[:, 1:] = T.offdiag
    return W


def _forest_sum(W, n, absent, roots, reach_from=None):
    """Sum of weight products over parent maps of {1..n}\\absent.

    Each remaining node picks one outgoing edge; the map must be acyclic with
    every path ending in `roots`, and node `reach_from` (if given) must reach
    the designated root.  Works for float or object (symbolic) weights.
    """
    movers = [i for i in range(1, n + 1) if i not in absent]
    choices = [[j for j in range(0, n + 1) if j != i] for i in movers]
    total = None
    for combo in product(*choices):
        parent = dict(zip(movers, combo))
        ok = True
        for start in movers:
            seen = set()
            cur = start
            while cur in parent:
                if cur in seen:
                    ok = False
                    break
                seen.add(cur)
                cur = parent[cur]
            if not ok or cur not in roots:
                ok = False
                break
        if ok and reach_from is not None:
            src, dst = reach_from
            if src != dst:
                cur = src
                while cur in parent and cur != dst:
                    cur = parent[cur]
                ok = cur == dst
        if not ok:
            continue
        term = None
        for i in movers:
            w = W[i - 1][parent[i]]
            term = w if term is None else term * w
        if term is None:  # n == 0 side of an empty product
            term = 1
        total = term if total is None else total + term
    return 0 if total is None else total


def _check_oracle_size(n):
    if n > TREE_ORACLE_LIMIT:
        raise ValueError(f"tree oracle limited to n <= {TREE_ORACLE_LIMIT}, got {n}")


def tree_oracle_det(W):
    """det M as the sum over spanning trees pointing towards node 0."""
    W = list(W)
    n = len(W)
    _check_oracle_size(n)
    return _forest_sum(W, n, absent=set(), roots={0})


def tree_oracle_adj(W):
    """adj M entrywise: (k,l) sums over the two-tree families of the theorem."""
    W = list(W)
    n = len(W)
    _check_oracle_size(n)
    adj = np.empty((n, n), dtype=object)
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            adj[k - 1, l - 1] = _forest_sum(
                W, n, absent={l}, roots={0, l}, reach_from=(k, l)
            )
    return adj


def tree_oracle_rs(W):
    """PartialInverse from the exact tree-family split.

    The rank-1 numerators are the terms whose tree towards node 0 is trivial,
    i.e. every node reaches l; the remainder forms S.
    """
    W = list(W)
    n = len(W)
    _check_oracle_size(n)
    det = tree_oracle_det(W)
    z = np.array(
        [
            _forest_sum(W, n, absent={l}, roots={l})
            for l in range(1, n + 1)
        ],
        dtype=np.float64,
    )
    z /= det
    adj = tree_oracle_adj(W).astype(np.float64)
    S = adj / det - np.ones((n, 1)) @ z[None, :]
    return PartialInverse(z=z, S=S)




def symbolic_weights(n):
    W = [[sympy.Integer(0)] * (n + 1) for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(0, n + 1):
            if j != i:
                W[i - 1][j] = sympy.Symbol(f"w_{i}{j}")
    return W


def w(i, j):
    return sympy.Symbol(f"w_{i}{j}")


class TestSymbolicExpansions:
    def test_three_node_determinant_has_sixteen_monomials(self):
        W = symbolic_weights(3)
        det = sympy.expand(tree_oracle_det(W))
        expected = sympy.expand(
            w(1, 0) * w(2, 0) * w(3, 0)
            + w(1, 0) * w(2, 0) * w(3, 1)
            + w(1, 0) * w(2, 1) * w(3, 0)
            + w(1, 0) * w(2, 0) * w(3, 2)
            + w(1, 0) * w(2, 1) * w(3, 1)
            + w(1, 2) * w(2, 0) * w(3, 0)
            + w(1, 0) * w(2, 1) * w(3, 2)
            + w(1, 0) * w(2, 3) * w(3, 0)
            + w(1, 2) * w(2, 0) * w(3, 1)
            + w(1, 3) * w(2, 0) * w(3, 0)
            + w(1, 0) * w(2, 3) * w(3, 1)
            + w(1, 2) * w(2, 0) * w(3, 2)
            + w(1, 3) * w(2, 1) * w(3, 0)
            + w(1, 2) * w(2, 3) * w(3, 0)
            + w(1, 3) * w(2, 0) * w(3, 2)
            + w(1, 3) * w(2, 3) * w(3, 0)
        )
        assert len(det.args) == 16
        assert sympy.simplify(det - expected) == 0

    def test_three_node_adjugate_entry_21(self):
        W = symbolic_weights(3)
        adj = tree_oracle_adj(W)
        expected = (
            w(2, 1) * w(3, 0)
            + w(2, 1) * w(3, 1)
            + w(2, 1) * w(3, 2)
            + w(2, 3) * w(3, 1)
        )
        assert sympy.simplify(sympy.expand(adj[1, 0]) - expected) == 0

    def test_symbolic_det_matches_matrix_determinant(self):
        W = symbolic_weights(3)
        M = sympy.zeros(3, 3)
        for i in range(1, 4):
            M[i - 1, i - 1] = sum(W[i - 1][j] for j in range(4) if j != i)
            for j in range(1, 4):
                if j != i:
                    M[i - 1, j - 1] = -W[i - 1][j]
        assert sympy.simplify(tree_oracle_det(W) - M.det()) == 0


class TestNumericOracles:
    def test_two_node_all_ones(self):
        W = np.zeros((2, 3))
        W[0, [0, 2]] = 1.0
        W[1, [0, 1]] = 1.0
        # w10 w20 + w10 w21 + w12 w20 = 3, the determinant of [[2,-1],[-1,2]]
        assert tree_oracle_det(W) == 3.0
        M = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert tree_oracle_det(W) == pytest.approx(np.linalg.det(M))

    def test_det_matches_direct_determinant(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            T = TripletMMatrix(
                np.where(np.eye(n, dtype=bool), 0.0, rng.random((n, n)) + 0.1),
                rng.random(n) + 0.1,
                ROW,
            )
            det = tree_oracle_det(triplet_weights(T))
            direct = np.linalg.det(T.materialize())
            assert abs(det - direct) <= 1e-12 * abs(direct)

    def test_adjugate_matches_inverse(self, rng):
        T = TripletMMatrix(
            np.where(np.eye(4, dtype=bool), 0.0, rng.random((4, 4)) + 0.1),
            rng.random(4) + 0.1,
            ROW,
        )
        W = triplet_weights(T)
        adj = tree_oracle_adj(W).astype(np.float64)
        det = tree_oracle_det(W)
        minv = np.linalg.inv(T.materialize())
        assert np.max(np.abs(adj / det - minv)) <= 1e-11 * np.abs(minv).max()

    def test_rs_split_reconstructs_adjugate(self, rng):
        T = TripletMMatrix(
            np.where(np.eye(3, dtype=bool), 0.0, rng.random((3, 3)) + 0.2),
            rng.random(3) + 0.2,
            ROW,
        )
        pi = tree_oracle_rs(triplet_weights(T))
        minv = np.linalg.inv(T.materialize())
        assert np.max(np.abs(pi.inverse() - minv)) <= 1e-12

    def test_size_limit(self):
        with pytest.raises(ValueError, match="limited"):
            tree_oracle_det(np.ones((7, 8)))
