"""Graph pipeline: three-cycle tensors with dangling-column correction."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import mlpagerank
from mlpagerank import (
    Adjacency,
    Problem,
    SolverOptions,
    Termination,
    build_pagerank_tensor,
    check_stochastic,
    force_sum_one,
    random_teleport_vector,
    solve,
)

from conftest import random_pagerank_problem


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
    assert (P.unfolding() >= 0.0).all()
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


def five_nudges(v):
    """force_sum_one's first attempt: the largest entry minus the excess, up
    to five times; None if the sum is not 1 then."""
    v = v.copy()
    imax = int(np.argmax(v))
    for _ in range(5):
        if v.sum() == 1.0:
            return v
        v[imax] -= v.sum() - 1.0
    return v if v.sum() == 1.0 else None


def test_force_sum_one_reaches_an_exact_unit_sum_on_ordinary_vectors():
    # the nudges alone cycled without reaching 1 on about one vector in
    # ten at n = 12, 20 and 60, and force_sum_one raised
    cycled = 0
    for n in (12, 20, 60, 120):
        for seed in range(1000):
            r = np.random.default_rng(seed).uniform(0.0, 1.0, n) + 0.05
            v = r / r.sum()
            got = force_sum_one(v)
            assert got.sum() == 1.0, (n, seed)
            assert (got >= 0.0).all(), (n, seed)
            assert (np.abs(got - v) <= 1e-12 * v).all(), (n, seed)
            nudged = five_nudges(v)
            if nudged is None:
                cycled += 1
            else:
                assert got.tobytes() == nudged.tobytes(), (n, seed)
    assert cycled == 93 + 99 + 103
    random_pagerank_problem(np.random.default_rng(6), 12, 0.3, density=0.6)


def test_force_sum_one_raises_on_a_nan():
    with pytest.raises(ArithmeticError, match="exact unit sum"):
        force_sum_one(np.array([0.5, np.nan]))


def test_teleport_vector_sums_to_one_exactly():
    # v / v.sum() has fsum(v) != 1 on 141 of these 300 seeds, and the
    # nudges of force_sum_one fail on 10 of them
    for seed in range(1000, 1300):
        v = random_teleport_vector(80, seed)
        assert math.fsum(v) == 1.0, seed
        assert math.fsum([*v, -1.0]) == 0.0, seed
        assert (v >= 0.0).all()


def test_n_300_solves_without_forming_the_dense_tensor():
    adj = random_symmetric_graph(300, n=300)
    tracemalloc.start()
    try:
        v = random_teleport_vector(adj.n, 300)
        P = build_pagerank_tensor(adj, v, 0.1)
        rep = solve(Problem.from_pagerank(v, P, 0.49), SolverOptions())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.termination is Termination.TOL_REACHED
    assert peak < 50e6  # a dense P_(1) alone would take 216 MB


N_2000_RUN = textwrap.dedent("""
    import resource, time
    import numpy as np
    from mlpagerank import (Adjacency, Problem, SolverOptions, build_pagerank_tensor,
                            random_teleport_vector, solve)

    n = 2000
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < 8 / (n - 1), k=1)
    adj = Adjacency(matrix=upper | upper.T)
    del upper
    t0 = time.perf_counter()
    v = random_teleport_vector(n, n)
    P = build_pagerank_tensor(adj, v, 0.1)
    rep = solve(Problem.from_pagerank(v, P, 0.49), SolverOptions())
    print(rep.termination.value, time.perf_counter() - t0,
          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
""")


@pytest.mark.slow
def test_n_2000_at_alpha_0_49_in_ten_seconds_and_one_gigabyte():
    # a fresh process, so the peak RSS is this run's alone
    src = os.path.dirname(os.path.dirname(mlpagerank.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", N_2000_RUN], capture_output=True, text=True,
                         check=True, timeout=600, env=env).stdout.split()
    termination, seconds, rss_mb = out[0], float(out[1]), float(out[2])
    assert termination == "tol_reached"
    assert seconds <= 10.0
    assert rss_mb <= 1024.0
