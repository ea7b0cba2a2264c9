"""Tensor storage and contraction products."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpagerank import tensor as tz
from mlpagerank import (
    Adjacency,
    Problem,
    SolverOptions,
    Tensor3,
    apply_bilinear,
    apply_quadratic,
    build_pagerank_tensor,
    check_stochastic,
    contract_left,
    contract_right,
    contract_sym,
    read_tensor_text,
    solve,
    three_cycle_tensor,
    write_tensor_text,
)

from conftest import exact_stochastic_unfolding


def intro_tensor(alpha=0.3):
    return Tensor3.from_unfolding(
        alpha * np.array([[1.0, 0.5, 0.5, 0.0], [0.0, 0.5, 0.5, 1.0]])
    )


def brute_force_quadratic(B, x):
    """Independent triple-loop oracle."""
    n = B.n
    dense = np.zeros((n, n, n))
    for i, j, k, v in B.entries():
        dense[i - 1, j - 1, k - 1] = v
    out = np.zeros(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i] += dense[i, j, k] * x[j] * x[k]
    return out


def loop_built_arrays(n, entries):
    """The coordinate arrays as the per-entry loop constructor built them."""
    ent = list(entries)
    rows = np.array([i - 1 for i, _, _, _ in ent], dtype=np.int64)
    cols = np.array([(j - 1) + (k - 1) * n for _, j, k, _ in ent], dtype=np.int64)
    vals = np.array([float(v) for _, _, _, v in ent], dtype=np.float64)
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


# The products as the per-call index arithmetic and np.bincount computed them.
# The kernels promise the same terms summed in the same order, so equal bits.
def bincount_apply_bilinear(B, x, y):
    w = B.vals * x[B.cols % B.n] * y[B.cols // B.n]
    return np.bincount(B.rows, weights=w, minlength=B.n)


def bincount_contract_left(B, x):
    w = B.vals * x[B.cols % B.n]
    flat = B.rows * B.n + B.cols // B.n
    return np.bincount(flat, weights=w, minlength=B.n * B.n).reshape(B.n, B.n)


def bincount_contract_right(B, x):
    w = B.vals * x[B.cols // B.n]
    flat = B.rows * B.n + B.cols % B.n
    return np.bincount(flat, weights=w, minlength=B.n * B.n).reshape(B.n, B.n)


def random_sparse_tensor(rng, n, density, empty_rows=()):
    """Values spread over 12 decades, so summation order shows in the bits."""
    U = rng.random((n, n * n)) * 10.0 ** rng.integers(-6, 6, size=(n, n * n))
    U[rng.random((n, n * n)) >= density] = 0.0
    U[list(empty_rows)] = 0.0
    return Tensor3.from_unfolding(U)


KERNEL_CASES = [  # (n, density, empty rows); n = 20 dense lies above BINCOUNT_MAX_NNZ
    (1, 1.0, ()),
    (1, 0.0, ()),
    (3, 0.5, (1,)),
    (5, 0.3, (0, 4)),
    (20, 1.0, (7,)),
    (24, 0.6, (0, 23)),
]


class TestKernelsMatchBincountFormulas:
    @pytest.mark.parametrize("n,density,empty_rows", KERNEL_CASES)
    def test_bit_identical(self, n, density, empty_rows):
        rng = np.random.default_rng(1000 + n)
        B = random_sparse_tensor(rng, n, density, empty_rows).scale(0.4)
        for _ in range(3):
            x = rng.random(n) * 10.0 ** rng.integers(-3, 3, size=n)
            y = rng.random(n)
            for got, want in (
                (apply_bilinear(B, x, y), bincount_apply_bilinear(B, x, y)),
                (apply_quadratic(B, x), bincount_apply_bilinear(B, x, x)),
                (contract_left(B, x), bincount_contract_left(B, x)),
                (contract_right(B, x), bincount_contract_right(B, x)),
            ):
                assert got.dtype == np.float64
                assert got.shape == want.shape
                assert got.tobytes() == want.astype(np.float64).tobytes()

    def test_both_bilinear_paths_are_exercised(self):
        sizes = [random_sparse_tensor(np.random.default_rng(1000 + n), n, d, e).nnz
                 for n, d, e in KERNEL_CASES]
        assert min(sizes) <= tz.BINCOUNT_MAX_NNZ < max(sizes)

    def test_scale_copies_share_index_arrays_not_values(self, rng):
        P = random_sparse_tensor(rng, 6, 0.5)
        A, B = P.scale(0.3), P.scale(0.6)
        x = rng.random(6)
        assert contract_left(A, x).tobytes() == bincount_contract_left(A, x).tobytes()
        assert contract_right(B, x).tobytes() == bincount_contract_right(B, x).tobytes()
        assert A._layout is B._layout is P._layout
        assert np.shares_memory(A.slice_matrices()[0].data, A.vals)
        assert np.shares_memory(B.slice_matrices()[1].data, B.vals)

    def test_dense_slice_matrices_have_32_bit_indices(self, rng):
        B = Tensor3.from_unfolding(exact_stochastic_unfolding(rng, 30)).scale(0.4)
        assert B.nnz > tz.BINCOUNT_MAX_NNZ  # the CSR path of apply_bilinear
        for M in B.slice_matrices():
            assert M.indices.dtype == M.indptr.dtype == np.int32
        assert B._layout.j.dtype == B._layout.k.dtype == np.int32
        for _ in range(3):
            x = rng.random(30) * 10.0 ** rng.integers(-3, 3, size=30)
            y = rng.random(30)
            assert contract_left(B, x).tobytes() == bincount_contract_left(B, x).tobytes()
            assert contract_right(B, x).tobytes() == bincount_contract_right(B, x).tobytes()
            got = apply_bilinear(B, x, y)
            assert got.tobytes() == bincount_apply_bilinear(B, x, y).tobytes()

    def test_unsorted_input_is_sorted(self, rng):
        n = 4
        U = rng.random((n, n * n))
        U[U < 0.5] = 0.0
        entries = list(Tensor3.from_unfolding(U).entries())
        rng.shuffle(entries)
        B = Tensor3(n, entries)
        rows, cols, vals = loop_built_arrays(n, entries)
        assert np.array_equal(B.rows, rows)
        assert np.array_equal(B.cols, cols)
        assert B.vals.tobytes() == vals.tobytes()
        assert np.array_equal(B.row_ptr, np.searchsorted(rows, np.arange(n + 1)))
        x = rng.random(n)
        assert contract_right(B, x).tobytes() == bincount_contract_right(B, x).tobytes()
        assert apply_quadratic(B, x).tobytes() == bincount_apply_bilinear(B, x, x).tobytes()


def bincount_contract_sym(B, x):
    """Row i*n + j of S = D + D^T adds fl(b_ijk + b_ikj) x_k one term at a time,
    in the order S stores its columns i*n + k."""
    n, U, S = B.n, B.unfolding(), B.sym_matrix()
    rows = np.repeat(np.arange(n * n), np.diff(S.indptr))
    i, j, k = rows // n, rows % n, S.indices % n
    terms = U[i, j + k * n] + U[i, k + j * n]
    assert S.data.tobytes() == terms.tobytes()
    return np.bincount(rows, weights=terms * x[k], minlength=n * n).reshape(n, n)


def graph_pipeline_tensor(rng, n=12):
    upper = np.triu(rng.random((n, n)) < 0.4, k=1)
    P = build_pagerank_tensor(Adjacency(matrix=upper | upper.T), np.full(n, 1.0 / n), 0.1)
    return Tensor3.from_unfolding(P.unfolding())


def held_bytes(a):
    """Bytes of the buffer an array lives in, not just of its view."""
    return (a if a.base is None else a.base).nbytes


class TestContractSym:
    @pytest.mark.parametrize("n,density,empty_rows", KERNEL_CASES)
    def test_bit_identical_to_bincount(self, n, density, empty_rows):
        rng = np.random.default_rng(2000 + n)
        B = random_sparse_tensor(rng, n, density, empty_rows).scale(0.4)
        for _ in range(3):
            x = rng.random(n) * 10.0 ** rng.integers(-3, 3, size=n)
            assert contract_sym(B, x).tobytes() == bincount_contract_sym(B, x).tobytes()

    @pytest.mark.parametrize("build,symmetric_pattern", [
        (lambda rng: Tensor3.from_unfolding(exact_stochastic_unfolding(rng, 30)), True),
        (lambda rng: random_sparse_tensor(rng, 24, 0.6, (0, 23)), False),
        (graph_pipeline_tensor, False),
    ])
    def test_within_2_n_plus_1_u_of_both_contractions(self, rng, build, symmetric_pattern):
        B = build(rng).scale(0.4)
        n, u = B.n, 2.0 ** -53
        # a symmetric pattern gives S the pattern of D; else (j, k) and (k, j) differ
        assert (B.sym_matrix().nnz == B.nnz) is symmetric_pattern
        for _ in range(3):
            x = rng.random(n) * 10.0 ** rng.integers(-3, 3, size=n)
            got = contract_sym(B, x)
            assert got.tobytes() == bincount_contract_sym(B, x).tobytes()
            want = contract_left(B, x) + contract_right(B, x)
            assert (np.abs(got - want) <= 2 * (n + 1) * u * want).all()

    def test_built_once_at_its_exact_size(self, rng):
        P = random_sparse_tensor(rng, 8, 0.5)
        S = P.sym_matrix()
        assert P.sym_matrix() is S
        assert S.format == "csr"
        assert S.data.size == S.indices.size == S.nnz
        assert held_bytes(S.data) == S.data.nbytes
        assert held_bytes(S.indices) == S.indices.nbytes

    def test_scale_copies_do_not_inherit_it(self, rng):
        P = random_sparse_tensor(rng, 8, 0.5)
        S = P.sym_matrix()
        A = P.scale(0.3)
        assert A._sym is None
        assert A.sym_matrix() is not S
        x = rng.random(8)
        assert contract_sym(A, x).tobytes() == bincount_contract_sym(A, x).tobytes()

    def test_every_alpha_problem_of_one_p_shares_it(self, rng, monkeypatch):
        builds = []
        build = Tensor3.sym_matrix

        def counting(self):
            if self._sym is None:
                builds.append(self)
            return build(self)

        monkeypatch.setattr(Tensor3, "sym_matrix", counting)
        P = Tensor3.from_unfolding(exact_stochastic_unfolding(rng, 6))
        v = np.full(6, 1.0 / 6.0)
        for alpha in (0.3, 0.49, 0.4999, 0.6):
            rep = solve(Problem.from_pagerank(v, P, alpha), SolverOptions())
            assert rep.iterations > 1
        assert builds == [P]

    def test_memory_is_that_of_its_entries(self, rng):
        P = Tensor3.from_unfolding(exact_stochastic_unfolding(rng, 60))
        P.slice_matrices()
        S = P.sym_matrix()
        # an upper bound: a dense P's S shares the index arrays of D^T
        added = sum(held_bytes(a) for a in (S.data, S.indices, S.indptr))
        assert S.nnz == P.nnz
        assert added <= 1.1 * (8 + 4) * P.nnz


class TestConstruction:
    @pytest.mark.parametrize("entries,message", [
        ([(1, 1, 1, float("nan"))], r"^entry \(1,1,1\) has invalid value nan$"),
        ([(1, 2, 1, 0.5), (2, 1, 2, float("inf"))], r"^entry \(2,1,2\) has invalid value inf$"),
        ([(2, 2, 1, -0.5)], r"^entry \(2,2,1\) has invalid value -0.5$"),
        ([(1, 1, 1, 0.5), (1, 3, 1, 0.5)], r"^entry \(1,3,1\) out of range for n=2$"),
        ([(0, 1, 1, 0.5)], r"^entry \(0,1,1\) out of range for n=2$"),
        ([(2, 1, 2, 0.5), (1, 1, 1, 0.5), (2, 1, 2, 0.25)], r"^duplicate entry \(2,1,2\)$"),
        # the first bad entry in input order is the one reported
        ([(1, 1, 1, -1.0), (1, 1, 9, 0.5)], r"^entry \(1,1,1\) has invalid value -1.0$"),
    ], ids=["nan", "inf", "negative", "out-of-range", "zero-index", "duplicate", "first-bad"])
    def test_rejects_with_message(self, entries, message):
        with pytest.raises(ValueError, match=message):
            Tensor3(2, entries)

    @pytest.mark.parametrize("bad,message", [
        (np.nan, r"^entry \(2,1,2\) has invalid value nan$"),
        (-np.inf, r"^entry \(2,1,2\) has invalid value -inf$"),
        (-1e-17, r"^entry \(2,1,2\) has invalid value -1e-17$"),
    ], ids=["nan", "-inf", "negative"])
    def test_from_unfolding_rejects_with_message(self, bad, message):
        U = np.full((2, 4), 0.5)
        U[1, 2] = bad  # column 2 is (j, k) = (1, 2)
        with pytest.raises(ValueError, match=message):
            Tensor3.from_unfolding(U)

    def test_rejects_malformed_entries(self):
        with pytest.raises(ValueError, match="must be"):
            Tensor3(2, [(1, 1, 0.5)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Tensor3(2, [(1, 1, 1, 0.5), (1, 1, 1, 0.25)])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="invalid value"):
            Tensor3(2, [(1, 1, 1, -0.5)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Tensor3(2, [(1, 3, 1, 0.5)])

    def test_unfolding_round_trip(self, rng):
        U = rng.random((3, 9))
        U[U < 0.4] = 0.0
        T = Tensor3.from_unfolding(U)
        assert np.array_equal(T.unfolding(), U)

    def test_file_round_trip_bit_exact(self, rng, tmp_path):
        U = rng.random((3, 9))
        U[U < 0.5] = 0.0
        T = Tensor3.from_unfolding(U)
        path = tmp_path / "t.txt"
        write_tensor_text(T, path)
        T2 = read_tensor_text(path)
        assert np.array_equal(T.vals, T2.vals)
        assert np.array_equal(T.cols, T2.cols)

    def test_reader_rejects_negative(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1 1 1 -0.5\n")
        with pytest.raises(ValueError, match="negative"):
            read_tensor_text(path)


class TestApplyQuadratic:
    def test_zero_tensor(self):
        B = Tensor3.zeros(3)
        assert np.array_equal(apply_quadratic(B, np.ones(3)), np.zeros(3))

    def test_intro_tensor_scales_x(self):
        # (Bx^2)_i = alpha x_i (x_1 + x_2), so for stochastic x this is alpha x
        alpha, delta = 0.3, 1e-6
        B = intro_tensor(alpha)
        x = np.array([1.0 - delta, delta])
        got = apply_quadratic(B, x)
        expected = alpha * x * x.sum()
        assert np.max(np.abs(got - expected) / expected) <= 1e-15

    def test_matches_brute_force(self, rng):
        U = rng.random((3, 9))
        B = Tensor3.from_unfolding(U)
        x = rng.random(3)
        got = apply_quadratic(B, x)
        want = brute_force_quadratic(B, x)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            apply_quadratic(intro_tensor(), np.ones(3))


class TestApplyBilinear:
    def test_zero_y(self):
        B = intro_tensor()
        assert np.array_equal(apply_bilinear(B, np.ones(2), np.zeros(2)), np.zeros(2))

    def test_unfolding_column_lookup(self):
        # x = e1, y = e2 reads the unfolding column for (j,k) = (1,2)
        alpha = 0.3
        B = intro_tensor(alpha)
        got = apply_bilinear(B, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.array_equal(got, alpha * np.array([0.5, 0.5]))

    def test_bit_for_bit_equal_to_quadratic(self, rng):
        U = rng.random((4, 16))
        B = Tensor3.from_unfolding(U)
        x = rng.random(4)
        assert np.array_equal(apply_bilinear(B, x, x), apply_quadratic(B, x))


class TestContractions:
    def test_zero_vector(self):
        B = intro_tensor()
        assert np.array_equal(contract_left(B, np.zeros(2)), np.zeros((2, 2)))
        assert np.array_equal(contract_right(B, np.zeros(2)), np.zeros((2, 2)))

    def test_contraction_bilinear_identity(self, rng):
        U = rng.random((4, 16))
        U[U < 0.3] = 0.0
        B = Tensor3.from_unfolding(U)
        x, y = rng.random(4), rng.random(4)
        bxy = apply_bilinear(B, x, y)
        assert np.max(np.abs(contract_left(B, x) @ y - bxy)) <= 1e-14
        assert np.max(np.abs(contract_right(B, x) @ y - apply_bilinear(B, y, x))) <= 1e-14

    def test_intro_column_sum_identity(self):
        # column sums of Bx: + B:x equal 2 alpha (1^T x) for stochastic slices
        alpha = 0.3
        B = intro_tensor(alpha)
        x = np.array([1.0, 0.0])
        C = contract_left(B, x) + contract_right(B, x)
        assert np.max(np.abs(C.sum(axis=0) - 2 * alpha)) <= 1e-16

    def test_jacobian_column_sums_random(self, rng):
        # 1^T R_x = (1 - 2 alpha 1^T x) 1^T for stochastic P
        n, alpha = 5, 0.4
        U = exact_stochastic_unfolding(rng, n)
        B = Tensor3.from_unfolding(U).scale(alpha)
        x = rng.random(n)
        R = np.eye(n) - contract_left(B, x) - contract_right(B, x)
        want = 1.0 - 2.0 * alpha * x.sum()
        assert np.max(np.abs(R.sum(axis=0) - want)) <= 1e-13


class TestCheckStochastic:
    def test_intro_tensor_alpha_columns(self):
        rep = check_stochastic(intro_tensor(0.25), target=0.25, tol=0.0)
        assert rep.ok and rep.max_deviation == 0.0

    def test_zero_tensor(self):
        rep = check_stochastic(Tensor3.zeros(3), target=0.0, tol=0.0)
        assert rep.ok

    def test_reports_offending_column(self):
        U = np.array([[1.0, 0.5, 0.5, 0.0], [0.0, 0.5, 0.25, 1.0]])
        rep = check_stochastic(Tensor3.from_unfolding(U), target=1.0, tol=1e-12)
        assert not rep.ok
        assert rep.worst_column == (1, 2)
        assert rep.max_deviation == pytest.approx(0.25)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=int(1e6)))
def test_nonnegative_inputs_give_nonnegative_outputs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    U = rng.random((n, n * n))
    U[rng.random((n, n * n)) < 0.5] = 0.0
    B = Tensor3.from_unfolding(U)
    x = rng.random(n)
    y = rng.random(n)
    assert (apply_bilinear(B, x, y) >= 0.0).all()
    assert (apply_quadratic(B, x) >= 0.0).all()
    assert (contract_left(B, x) >= 0.0).all()
    assert (contract_right(B, x) >= 0.0).all()
    assert (contract_sym(B, x) >= 0.0).all()


# ---------------------------------------------------------------------------
# The graph PageRank tensor in factored form against a dense oracle
# ---------------------------------------------------------------------------


def dense_pagerank_unfolding(A, v, nu):
    """P_(1) of a 0/1 adjacency A, built entry by entry from the formula."""
    n = len(A)
    Af = A.astype(np.float64)
    C = (Af[:, :, None] * Af[None, :, :] * Af.T[:, None, :]).transpose(0, 2, 1).reshape(n, n * n)
    sums = C.sum(axis=0)
    S = C / np.where(sums == 0.0, 1.0, sums)[None, :]
    deg = Af.sum(axis=1)
    M = Af.T * np.where(deg == 0.0, 0.0, 1.0 / np.where(deg == 0.0, 1.0, deg))[None, :]
    second = S + v[:, None] * (sums == 0.0)[None, :]
    first = M + v[:, None] * (deg == 0.0)[None, :]
    return nu * second + (1.0 - nu) * np.kron(first, np.ones((1, n)))


def exact_products(U, x, y):
    """Every protocol product of the tensor with unfolding U, each entry one fsum.

    The terms u x_j (y_k) are rounded products, so each entry is within 2u of
    the exact value for these stored entries.
    """
    n = len(x)
    T = U.reshape(n, n, n).transpose(0, 2, 1)  # T[i, j, k] = p_ijk

    def fsum(a):
        return math.fsum(np.ravel(a).tolist())

    left = np.array([[fsum(T[i, :, k] * x) for k in range(n)] for i in range(n)])
    right = np.array([[fsum(T[i, j, :] * x) for j in range(n)] for i in range(n)])
    return {
        "bilinear": np.array([fsum(T[i] * np.outer(x, y)) for i in range(n)]),
        "left": left,
        "right": right,
        "sym": np.array([[fsum(np.concatenate([T[i, :, j] * x, T[i, j, :] * x]))
                          for j in range(n)] for i in range(n)]),
        "column_sums": np.array([fsum(U[:, c]) for c in range(n * n)]),
    }


def factored_products(P, x, y):
    return {
        "bilinear": apply_bilinear(P, x, y),
        "left": contract_left(P, x),
        "right": contract_right(P, x),
        "sym": contract_sym(P, x),
        "column_sums": P._column_sums(),
    }


def path_graph():
    A = np.zeros((3, 3), dtype=bool)
    A[0, 1] = A[1, 0] = A[1, 2] = A[2, 1] = True
    return A


def random_graph(seed, n=12, density=0.5, isolated=(), directed=False):
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)) < density
    if not directed:
        A = np.triu(A, k=1)
        A = A | A.T
    A[list(isolated), :] = False
    A[:, list(isolated)] = False
    return A


GRAPHS = {
    "path-1-2-3": path_graph,
    "random": lambda: random_graph(1),
    "isolated-vertex": lambda: random_graph(2, n=10, isolated=(3,)),
    "directed-with-loops": lambda: random_graph(3, n=9, density=0.6, directed=True),
}


class TestPageRankTensor:
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("nu", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("weight", [1.0, 0.4])
    def test_products_within_2_n_plus_1_u_of_the_dense_oracle(self, graph, nu, weight):
        A = GRAPHS[graph]()
        n, u = len(A), 2.0 ** -53
        rng = np.random.default_rng(n)
        v = rng.random(n) + 0.1
        v /= v.sum()
        P = build_pagerank_tensor(Adjacency(matrix=A), v, nu)
        U = dense_pagerank_unfolding(A, v, nu)
        assert P.unfolding().tobytes() == U.tobytes()
        oracle = Tensor3.from_unfolding(U).scale(weight)
        B = P.scale(weight)
        assert B.to_tensor3().unfolding().tobytes() == oracle.unfolding().tobytes()
        for _ in range(3):
            x = rng.random(n) * 10.0 ** rng.integers(-3, 3, size=n)
            y = rng.random(n)
            want = exact_products(oracle.unfolding(), x, y)
            for name, got in factored_products(B, x, y).items():
                assert (got >= 0.0).all(), name
                assert (np.abs(got - want[name]) <= 2 * (n + 1) * u * want[name]).all(), name

    def test_isolated_vertex_is_dangling_in_the_first_order_term(self):
        A = GRAPHS["isolated-vertex"]()
        v = np.full(10, 0.1)
        P = build_pagerank_tensor(Adjacency(matrix=A), v, 0.0)
        assert P.F[:, 3].tobytes() == v.tobytes()
        assert check_stochastic(P, target=1.0, tol=1e-15).ok

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_products_repeat_bit_for_bit(self, graph):
        A = GRAPHS[graph]()
        n = len(A)
        rng = np.random.default_rng(7)
        P = build_pagerank_tensor(Adjacency(matrix=A), np.full(n, 1.0 / n), 0.1).scale(0.49)
        x, y = rng.random(n), rng.random(n)
        first = factored_products(P, x, y)
        again = factored_products(P, x.copy(), y.copy())
        for name in first:
            assert first[name].tobytes() == again[name].tobytes(), name

    def test_scale_copies_share_the_factors(self):
        P = build_pagerank_tensor(Adjacency(matrix=random_graph(4)), np.full(12, 1.0 / 12), 0.1)
        B = P.scale(0.3)
        assert B.S is P.S and B.F is P.F and B.dS is P.dS and B.v is P.v
        assert B.to_tensor3() is B.to_tensor3()
        assert B.to_tensor3() is not P.to_tensor3()

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_three_cycle_tensor_is_the_dense_formula(self, graph):
        A = GRAPHS[graph]()
        n = len(A)
        Af = A.astype(np.float64)
        C = (Af[:, :, None] * Af[None, :, :] * Af.T[:, None, :]).transpose(0, 2, 1)
        want = Tensor3.from_unfolding(C.reshape(n, n * n))
        got = three_cycle_tensor(Adjacency(matrix=A))
        for name in ("rows", "cols", "vals"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
