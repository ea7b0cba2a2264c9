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
    ingest,
    random_teleport_vector,
    read_matrix_market,
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


def numpy_scalar_teleport_vector(n, seed):
    """random_teleport_vector's exact-sum loop as it ran on numpy scalars:
    the oracle of its bits."""
    rng = np.random.default_rng(seed)
    v = rng.random(n) * np.exp(9.0 * rng.standard_normal(n))
    v = v / v.sum()
    excess = math.fsum([*v.tolist(), -1.0])
    for i in np.argsort(-v, kind="stable"):
        if excess == 0.0:
            break
        kept = v[i] - excess
        if kept != v[i]:
            v[i] = kept
            excess = math.fsum([*v.tolist(), -1.0])
    return v


def test_teleport_vector_bits_are_those_of_the_numpy_scalar_loop():
    for n in (3, 10, 80, 300):
        for seed in range(200):
            want = numpy_scalar_teleport_vector(n, seed)
            assert random_teleport_vector(n, seed).tobytes() == want.tobytes(), (n, seed)


TRIANGLE = "3 3 3\n1 2\n2 3\n3 1\n"


@pytest.mark.parametrize("preamble", ["\n% c\n", "% c\n\n", "\n% c\n  \n%d\n\t\n"],
                         ids=["blank-then-comment", "comment-then-blank", "interleaved"])
def test_blank_and_comment_lines_before_the_size_line_in_any_order(preamble, tmp_path):
    path = tmp_path / "g.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n" + preamble + TRIANGLE)
    A = read_matrix_market(path).matrix
    assert A.tolist() == [[False, True, False], [False, False, True], [True, False, False]]


def test_a_clean_file_is_read_in_the_numpy_pass_alone(tmp_path, monkeypatch):
    def line_by_line(*args):
        raise AssertionError("the per-line reader ran")

    monkeypatch.setattr(ingest, "_read_entries", line_by_line)
    path = tmp_path / "g.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n% c\n"
                    "4 4 4\n2 1 0.5\n3 2 1e-300\n4 3 0\n4 1 -2\n")
    A = read_matrix_market(path).matrix
    assert np.argwhere(A).tolist() == [[0, 1], [0, 3], [1, 0], [1, 2], [2, 1], [3, 0]]


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
    import resource, sys, time
    import numpy as np
    from mlpagerank import (Problem, SolverOptions, build_pagerank_tensor,
                            random_teleport_vector, read_matrix_market, solve)

    n, path = 2000, sys.argv[1]
    rng = np.random.default_rng(n)
    rows, cols = np.nonzero(np.triu(rng.random((n, n)) < 8 / (n - 1), k=1))
    with open(path, "w", encoding="utf-8") as fh:  # the lower triangle, as the format stores it
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\\n")
        fh.write(f"{n} {n} {len(rows)}\\n")
        fh.writelines(f"{j + 1} {i + 1}\\n" for i, j in zip(rows.tolist(), cols.tolist()))
    t0 = time.perf_counter()
    adj = read_matrix_market(path)
    assert adj.edge_count == 2 * len(rows)
    v = random_teleport_vector(n, n)
    P = build_pagerank_tensor(adj, v, 0.1)
    rep = solve(Problem.from_pagerank(v, P, 0.49), SolverOptions())
    print(rep.termination.value, time.perf_counter() - t0,
          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
""")


@pytest.mark.slow
def test_n_2000_at_alpha_0_49_in_ten_seconds_and_one_gigabyte(tmp_path):
    # a fresh process, so the peak RSS is this run's alone
    src = os.path.dirname(os.path.dirname(mlpagerank.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", N_2000_RUN, str(tmp_path / "graph.mtx")],
                         capture_output=True, text=True, check=True, timeout=600,
                         env=env).stdout.split()
    termination, seconds, rss_mb = out[0], float(out[1]), float(out[2])
    assert termination == "tol_reached"
    assert seconds <= 10.0
    assert rss_mb <= 1024.0
