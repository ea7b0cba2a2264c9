"""Graph pipeline: three-cycle tensors with dangling-column correction."""

import numpy as np
import pytest

from mlpagerank import (
    Adjacency,
    Problem,
    SolverOptions,
    Termination,
    build_pagerank_tensor,
    check_stochastic,
    random_teleport_vector,
    solve,
)


def random_symmetric_graph(seed, n=80, mean_degree=8):
    """Erdos-Renyi graph, stored both ways, as the benchmark's generator draws it."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < mean_degree / (n - 1), k=1)
    return Adjacency(matrix=upper | upper.T)


# Among seeds 1000-1299 these 21 graphs, with v from the same seed, got
# dangling(S) = 1 - colsum at -1 ulp on some normalized column, so entries
# of about -1e-17 that Tensor3 rejects; three are kept here.
NEGATIVE_DANGLING_SEEDS = [1048, 1112, 1175]


@pytest.mark.parametrize("seed", NEGATIVE_DANGLING_SEEDS)
def test_dangling_columns_are_exact(seed):
    adj = random_symmetric_graph(seed)
    v = random_teleport_vector(adj.n, seed)
    P = build_pagerank_tensor(adj, v, 0.1)
    assert (P.vals >= 0.0).all()
    assert check_stochastic(P, target=1.0, tol=1e-13).ok
    for alpha in (0.3, 0.49):
        rep = solve(Problem.from_pagerank(v, P, alpha), SolverOptions())
        assert rep.termination is Termination.TOL_REACHED
        assert (rep.x >= 0.0).all()
        assert abs(rep.x.sum() - 1.0) <= 1e-12 / (1.0 - 2.0 * alpha)


def test_dangling_column_gets_v():
    # a path 1-2-3 has no triangles, so every three-cycle column is dangling
    A = np.zeros((3, 3), dtype=bool)
    A[0, 1] = A[1, 0] = A[1, 2] = A[2, 1] = True
    v = np.array([0.5, 0.25, 0.25])
    P = build_pagerank_tensor(Adjacency(matrix=A), v, 1.0)
    assert np.array_equal(P.unfolding(), np.repeat(v[:, None], 9, axis=1))
