"""Tensor storage and contraction products."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlpagerank
from mlpagerank import (
    Adjacency,
    Problem,
    SolverOptions,
    Tensor3,
    build_pagerank_tensor,
    check_stochastic,
    componentwise_zero_sum_perturb,
    contract_sym,
    cw_distance,
    mmatrix,
    read_tensor_text,
    reference_solution,
    residual,
    solve,
    three_cycle_tensor,
    write_tensor_text,
)
from mlpagerank.tensor import HALF_SLAB_MIN_N, SLAB_MAX_ENTRIES

from conftest import (
    CSR_EDGE_CASES,
    count_product_builds,
    csr_edge_tensor,
    csr_symmetric,
    exact_stochastic_unfolding,
    full_structure,
    held_bytes,
    scaled,
)


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


# The two Jacobian contractions Bx: and B:x by index arithmetic and np.bincount,
# each entry summed in storage order: oracles for contract_sym's sum.
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


KERNEL_CASES = [  # (n, density, empty rows)
    (1, 1.0, ()),
    (1, 0.0, ()),
    (3, 0.5, (1,)),
    (5, 0.3, (0, 4)),
    (20, 1.0, (7,)),
    (24, 0.6, (0, 23)),
]


class TestKernelsMatchBincountFormulas:
    def test_dense_slice_matrices_have_32_bit_indices(self, rng):
        B = scaled(Tensor3.from_unfolding(exact_stochastic_unfolding(rng, 30)), 0.4)
        S = B.sym_matrix()
        assert S.indices.dtype == S.indptr.dtype == np.int32
        for _ in range(3):
            x = rng.random(30) * 10.0 ** rng.integers(-3, 3, size=30)
            assert contract_sym(B, x).tobytes() == bincount_contract_sym(B, x).tobytes()

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
        assert contract_sym(B, x).tobytes() == bincount_contract_sym(B, x).tobytes()


def bincount_contract_sym(B, x):
    """Row i*n + j of S adds fl(b_ijk + b_ikj) x_k one term at a time, in the
    order S stores its columns k."""
    n, U, S = B.n, B.unfolding(), B.sym_matrix()
    assert S.shape == (n * n, n)
    rows = np.repeat(np.arange(n * n), np.diff(S.indptr))
    i, j, k = rows // n, rows % n, S.indices
    terms = U[i, j + k * n] + U[i, k + j * n]
    assert S.data.tobytes() == terms.tobytes()
    return np.bincount(rows, weights=terms * x[k], minlength=n * n).reshape(n, n)


def graph_pipeline_tensor(rng, n=12):
    upper = np.triu(rng.random((n, n)) < 0.4, k=1)
    P = build_pagerank_tensor(Adjacency(matrix=upper | upper.T), np.full(n, 1.0 / n), 0.1)
    return Tensor3.from_unfolding(P.unfolding())


class TestContractSym:
    @pytest.mark.parametrize("n,density,empty_rows", KERNEL_CASES)
    def test_bit_identical_to_bincount(self, n, density, empty_rows):
        rng = np.random.default_rng(2000 + n)
        B = scaled(random_sparse_tensor(rng, n, density, empty_rows), 0.4)
        for _ in range(3):
            x = rng.random(n) * 10.0 ** rng.integers(-3, 3, size=n)
            assert contract_sym(B, x).tobytes() == bincount_contract_sym(B, x).tobytes()

    @pytest.mark.parametrize("build,symmetric_pattern", [
        (lambda rng: Tensor3.from_unfolding(exact_stochastic_unfolding(rng, 30)), True),
        (lambda rng: random_sparse_tensor(rng, 24, 0.6, (0, 23)), False),
        (graph_pipeline_tensor, False),
    ])
    def test_within_2_n_plus_1_u_of_both_contractions(self, rng, build, symmetric_pattern):
        B = scaled(build(rng), 0.4)
        n, u = B.n, 2.0 ** -53
        # a symmetric pattern gives S the pattern of D; else (j, k) and (k, j) differ
        assert (B.sym_matrix().nnz == B.nnz) is symmetric_pattern
        for _ in range(3):
            x = rng.random(n) * 10.0 ** rng.integers(-3, 3, size=n)
            got = contract_sym(B, x)
            assert got.tobytes() == bincount_contract_sym(B, x).tobytes()
            want = bincount_contract_left(B, x) + bincount_contract_right(B, x)
            assert (np.abs(got - want) <= 2 * (n + 1) * u * want).all()

    def test_built_once_at_its_exact_size(self, rng):
        P = random_sparse_tensor(rng, 8, 0.5)
        S = P.sym_matrix()
        assert P.sym_matrix() is S
        assert S.format == "csr"
        assert S.data.size == S.indices.size == S.nnz
        assert held_bytes(S.data) == S.data.nbytes
        assert held_bytes(S.indices) == S.indices.nbytes

    @pytest.mark.parametrize("density,structure", [
        (1.0, "slab"), (0.5, "slab"), (0.5, "sym_matrix")])
    def test_every_alpha_problem_of_one_p_shares_it(self, rng, monkeypatch, density, structure):
        # a full P, or any P with n^3 <= SLAB_MAX_ENTRIES, builds its slab and
        # never S; a sparse P above that bound builds S and never a slab
        n = 6 if structure == "slab" else 17
        builds = count_product_builds(monkeypatch)
        P = Tensor3.from_unfolding(exact_stochastic_unfolding(rng, n, density))
        assert (P.nnz == n ** 3) is (density == 1.0)
        assert (n ** 3 <= SLAB_MAX_ENTRIES) is (structure == "slab")
        v = np.full(n, 1.0 / n)
        for alpha in (0.3, 0.49, 0.4999, 0.6):
            rep = solve(Problem.from_pagerank(v, P, alpha), SolverOptions())
            assert rep.iterations > 1
        assert builds == [(structure, P)]

    @pytest.mark.parametrize("pattern", ["dense", "directed graph"])
    def test_memory_is_that_of_its_entries(self, rng, pattern):
        n = 60
        if pattern == "dense":
            P = Tensor3.from_unfolding(exact_stochastic_unfolding(rng, n))
        else:  # a directed graph's three-cycles: b_ijk stored, b_ikj mostly not
            A = rng.random((n, n)) < 0.2
            np.fill_diagonal(A, False)
            C = three_cycle_tensor(Adjacency(matrix=A))
            P = Tensor3.from_coordinates(n, C.rows, C.cols, rng.random(C.nnz))
        # its values, and its columns unless it stores all n^3 entries; rows
        # come from row_ptr
        stored = held_bytes(P.vals) + (0 if P._cols is None else held_bytes(P._cols))
        assert stored == (8 if P.nnz == n ** 3 else 16) * P.nnz
        S = P.sym_matrix()
        # one entry of S per stored entry where the pattern is symmetric in
        # (j, k), as a dense one is; at most two
        if pattern == "dense":
            assert S.nnz == P.nnz
        else:
            assert 1.5 * P.nnz < S.nnz <= 2 * P.nnz
        added = sum(held_bytes(a) for a in (S.data, S.indices, S.indptr))
        assert added <= 12 * S.nnz + 4 * (n * n + 1)
        x = mixed_x(rng, n)
        assert contract_sym(P, x).tobytes() == bincount_contract_sym(P, x).tobytes()


def full_tensor(rng, n):
    """All n^3 entries stored, values spread over 12 decades."""
    B = random_sparse_tensor(rng, n, 1.0)
    assert B.nnz == n ** 3
    return B


def mixed_x(rng, n):
    """Mixed scales and signs: plain Newton's steps can be negative."""
    return rng.random(n) * 10.0 ** rng.integers(-3, 3, size=n) * rng.choice([-1.0, 1.0], n)


def assert_slab_product_is_the_csr_product(B, xs):
    """contract_sym takes the slab path, or the half-slab path where a full
    tensor's n selects it, and its bits are those of S x and of the
    sequential bincount over S's terms."""
    got = [contract_sym(B, x) for x in xs]
    half = B._cols is None and full_structure(B.n) == "half_slab"
    assert (B._half is not None) is half and (B._slab is None) is half and B._sym is None
    for x, C in zip(xs, got, strict=True):
        assert C.tobytes() == csr_symmetric(B, x).tobytes()
        assert C.tobytes() == bincount_contract_sym(B, x).tobytes()


class TestSlabPath:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 30, 120])
    def test_bit_identical_to_the_csr_product(self, n):
        rng = np.random.default_rng(3000 + n)
        B = full_tensor(rng, n)
        xs = [mixed_x(rng, n) for _ in range(3)]
        assert_slab_product_is_the_csr_product(B, xs)

    def test_listed_entries_with_explicit_zeros(self, rng):
        n = 5
        U = full_tensor(rng, n).unfolding()
        U[rng.random(U.shape) < 0.3] = 0.0
        entries = [(i + 1, c % n + 1, c // n + 1, U[i, c])
                   for i in range(n) for c in range(n * n)]
        rng.shuffle(entries)
        B = Tensor3(n, entries)
        assert B.nnz == n ** 3 and (B.vals == 0.0).any()
        assert_slab_product_is_the_csr_product(B, [mixed_x(rng, n) for _ in range(3)])

    def test_slab_is_k_major_and_built_once(self, rng):
        n = 4
        B = full_tensor(rng, n)
        K = B.slab()
        assert B.slab() is K
        assert K.shape == (n, n, n) and K.flags.c_contiguous
        U = B.unfolding()
        for i, j, k in np.ndindex(n, n, n):
            assert K[k, i, j] == U[i, j + k * n] + U[i, k + j * n]


needs_half_slab = pytest.mark.skipif(mmatrix._half_slab is None,
                                     reason="no compiled half-slab product")


def non_finite_xs(rng, n):
    """mixed_x with one entry inf, -inf or NaN."""
    xs = []
    for bad in (np.inf, -np.inf, np.nan):
        x = mixed_x(rng, n)
        x[rng.integers(n)] = bad
        xs.append(x)
    return xs


# A full tensor at n = 130 with its values and x strided views, so that
# the copies the C code reads are past numpy's cache of small buffers, and
# its product against einsum over its slab.
STRIDED_RUN = """
import numpy as np
from mlpagerank import Tensor3, contract_sym
n = 130
rng = np.random.default_rng(n)
vals = np.stack([rng.random(n ** 3), np.zeros(n ** 3)], axis=1)[:, 0]
B = Tensor3.from_coordinates(n, np.repeat(np.arange(n), n * n), np.tile(np.arange(n * n), n),
                             vals)
x = np.stack([rng.random(n) - 0.5, np.zeros(n)], axis=1)[:, 0]
assert B._cols is None and not B.vals.flags.c_contiguous and not x.flags.c_contiguous
got = contract_sym(B, x)
print(f"half slab {B._half is not None}, same bytes",
      got.tobytes() == np.einsum("kij,k->ij", B.slab(), x).tobytes())
"""


class TestHalfSlabPath:
    """A full tensor with n >= HALF_SLAB_MIN_N contracts through its half slab
    where the compiled product runs, with the bits of einsum over its slab."""

    @pytest.mark.parametrize("n", [HALF_SLAB_MIN_N - 1, HALF_SLAB_MIN_N, 40, 121, 123])
    def test_bit_identical_to_the_csr_product_and_to_einsum(self, n):
        rng = np.random.default_rng(5000 + n)
        B = full_tensor(rng, n)
        with_zeros = mixed_x(rng, n)
        with_zeros[rng.random(n) < 0.3] = 0.0
        assert_slab_product_is_the_csr_product(
            B, [mixed_x(rng, n), with_zeros, np.zeros(n), -np.zeros(n)])
        for x in non_finite_xs(rng, n):
            got = contract_sym(B, x)
            assert got.tobytes() == np.einsum("kij,k->ij", B.slab(), x).tobytes()

    @needs_half_slab
    @pytest.mark.parametrize("n", [HALF_SLAB_MIN_N, 121])
    def test_the_same_bytes_with_the_kernel_switched_off(self, monkeypatch, n):
        rng = np.random.default_rng(6000 + n)
        B = full_tensor(rng, n)
        xs = [mixed_x(rng, n), np.zeros(n), *non_finite_xs(rng, n)]
        on = [contract_sym(B, x).tobytes() for x in xs]
        assert B._half is not None and B._slab is None
        monkeypatch.setattr(mmatrix, "_half_slab", None)
        off = [contract_sym(B, x).tobytes() for x in xs]
        assert B._slab is not None
        assert on == off

    @needs_half_slab
    def test_a_strided_x_and_strided_values_give_einsums_bytes(self):
        # the C build and product read contiguous copies of both, which must
        # outlive the call; glibc fills freed memory with MALLOC_PERTURB_'s
        # byte, so a copy read after its free gives other bytes
        src = os.path.dirname(os.path.dirname(mlpagerank.__file__))
        env = dict(os.environ, MALLOC_PERTURB_="165",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", STRIDED_RUN], capture_output=True, text=True,
                             timeout=300, env=env)
        assert (out.stdout, out.stderr) == ("half slab True, same bytes True\n", "")

    @pytest.mark.parametrize("n", [HALF_SLAB_MIN_N, 121])
    def test_two_nans_in_x_give_nan_everywhere(self, rng, n):
        # which of two NaNs a sum keeps is not pinned: x86 keeps the first
        # operand's, and einsum and the kernel add in opposite order
        B = full_tensor(rng, n)
        for first, second in ((np.nan, -np.nan), (-np.nan, np.nan)):
            x = mixed_x(rng, n)
            x[3], x[n - 2] = first, second
            assert np.isnan(contract_sym(B, x)).all()
            assert np.isnan(np.einsum("kij,k->ij", B.slab(), x)).all()

    @needs_half_slab
    @pytest.mark.parametrize("n", [1, 9, 16])
    def test_holds_the_k_le_j_triangle_of_each_slice_in_groups_of_8(self, rng, n):
        B = full_tensor(rng, n)
        H = B.half_slab()
        assert B.half_slab() is H and H.ctypes.data % 64 == 0
        K, groups, t = B.slab(), -(-n // 8), n * (n + 1) // 2
        want = np.zeros((groups, t, 8))
        for j in range(n):
            for k in range(j + 1):
                lanes = np.zeros(8 * groups)  # the slices past n are zero
                lanes[:n] = K[k, :, j]
                want[:, j * (j + 1) // 2 + k] = lanes.reshape(groups, 8)
        assert H.tobytes() == want.tobytes()
        assert (K == K.transpose(2, 1, 0)).all()  # every slice symmetric

    def test_only_a_full_tensor_has_one(self, rng):
        B = random_sparse_tensor(rng, HALF_SLAB_MIN_N, 0.5)
        with pytest.raises(ValueError, match=r"stores all n\^3 entries"):
            B.half_slab()
        assert B._half is None


SMALL_SPARSE_CASES = [  # (n, density, empty rows), every one with n^3 <= SLAB_MAX_ENTRIES
    (1, 0.0, ()),
    (2, 0.5, (1,)),
    (3, 0.05, ()),
    (4, 0.3, (0,)),
    (7, 0.3, (2, 6)),
    (12, 0.05, (0,)),
    (16, 0.05, ()),
    (16, 0.3, (15,)),
    (16, 0.9, (3,)),
]


class TestSlabSizeRule:
    """A sparse tensor with n^3 <= SLAB_MAX_ENTRIES contracts through its slab."""

    @pytest.mark.parametrize("n,density,empty_rows", SMALL_SPARSE_CASES)
    def test_small_sparse_tensors_take_the_slab_with_the_csr_bits(self, n, density, empty_rows):
        rng = np.random.default_rng(4000 + n)
        B = random_sparse_tensor(rng, n, density, empty_rows)
        assert n ** 3 <= SLAB_MAX_ENTRIES and B.nnz < n ** 3
        assert_slab_product_is_the_csr_product(B, [mixed_x(rng, n) for _ in range(4)])
        A = B.unfolding().reshape(n, n, n)
        assert B.slab().flags.c_contiguous
        assert B.slab().tobytes() == (A.transpose(1, 0, 2) + A.transpose(2, 0, 1)).tobytes()

    @pytest.mark.parametrize("density", [0.05, 0.3, 0.9])
    def test_just_above_the_bound_builds_s_and_no_slab(self, rng, monkeypatch, density):
        n = 17
        assert (n - 1) ** 3 <= SLAB_MAX_ENTRIES < n ** 3
        builds = count_product_builds(monkeypatch)
        B = random_sparse_tensor(rng, n, density, (4,))
        for _ in range(3):
            x = mixed_x(rng, n)
            assert contract_sym(B, x).tobytes() == bincount_contract_sym(B, x).tobytes()
        assert builds == [("sym_matrix", B)]
        assert B._slab is None

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_a_non_finite_x_meets_the_slab_zeros_and_not_s(self, rng, bad):
        # 0 x_k is NaN for x_k = inf or NaN: the slab multiplies every k, while
        # S multiplies only the terms it stores, the nonzero ones
        n, k = 4, 2
        B = random_sparse_tensor(rng, n, 0.3, (1,))
        x = rng.random(n)
        x[k] = bad
        slab, csr = contract_sym(B, x), csr_symmetric(B, x)
        stored = B.slab()[k] != 0.0
        assert stored.any() and not stored.all()
        finite = x.copy()
        finite[k] = 0.0  # what S's sum is where it stores no term of x_k
        without_k = csr_symmetric(B, finite)
        assert np.isnan(slab[~stored]).all()
        assert csr[~stored].tobytes() == without_k[~stored].tobytes()
        if bad == np.inf:
            assert np.isposinf(slab[stored]).all() and np.isposinf(csr[stored]).all()
        else:
            assert np.isnan(slab).all() and np.isnan(csr[stored]).all()


class TestCsrEdgeCases:
    """S's build at its edges: no entries, rows without entries, only j = k."""

    @pytest.mark.parametrize("name", CSR_EDGE_CASES)
    def test_the_bytes_of_einsum_over_the_slab(self, name):
        rng = np.random.default_rng(21)
        B = csr_edge_tensor(name)
        n = B.n
        assert n ** 3 > SLAB_MAX_ENTRIES and B.nnz < n ** 3
        for _ in range(3):
            x = mixed_x(rng, n)
            got = contract_sym(B, x)
            assert got.tobytes() == np.einsum("kij,k->ij", B.slab(), x).tobytes()
            assert got.tobytes() == bincount_contract_sym(B, x).tobytes()
        S = B.sym_matrix()
        assert S.shape == (n * n, n) and S.indptr[0] == 0 and S.indptr[-1] == S.nnz
        if name == "j = k only":  # b_ijj goes twice to row i*n + j, column j
            assert S.nnz == B.nnz and S.data.tobytes() == (2.0 * B.vals).tobytes()
        else:
            assert B.nnz <= S.nnz <= 2 * B.nnz
        if B.nnz == 0:
            assert S.nnz == 0 and not S.indptr.any()

    def test_a_pattern_past_packed_keys_builds_the_same_s(self, rng):
        # at n^3 > 2^31 the placements are ordered by an argsort of their keys;
        # at n = 1291 S's row pointer alone is 6.7 MB, so the entries are few
        n = 1291
        assert n ** 3 > 2 ** 31
        i, j, k = (rng.integers(0, n, 300) for _ in range(3))
        j[:40] = k[:40]
        # some entries and their (j, k) transposes both stored
        i[40:80], j[40:80], k[40:80] = i[80:120], k[80:120], j[80:120]
        flat = np.unique(i * n * n + j + k * n)
        rows, cols = np.divmod(flat, n * n)
        vals = rng.random(len(flat)) * 10.0 ** rng.integers(-6, 6, size=len(flat))
        B = Tensor3.from_coordinates(n, rows, cols, vals)
        S = B.sym_matrix()
        assert S.indices.dtype == S.indptr.dtype == np.int32
        want = {}
        for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            kk, jj = divmod(c, n)
            for at in ((r * n + jj, kk), (r * n + kk, jj)):
                want[at] = want.get(at, 0.0) + v
        row_of = np.repeat(np.arange(n * n), np.diff(S.indptr))
        assert list(zip(row_of.tolist(), S.indices.tolist())) == sorted(want)
        assert S.data.tolist() == [want[at] for at in sorted(want)]


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

    def test_from_unfolding_of_any_layout_is_the_sorted_entries(self, rng):
        n = 5
        U = rng.random((n, n * n))
        U[rng.random((n, n * n)) < 0.4] = 0.0
        U[:, 3] = 0.0  # an empty column
        entries = [(i + 1, c % n + 1, c // n + 1, U[i, c])
                   for i in range(n) for c in range(n * n) if U[i, c] != 0.0]
        rng.shuffle(entries)
        want = Tensor3(n, entries)
        wide = np.zeros((2 * n, 3 * n * n))
        wide[::2, ::3] = U
        for layout in (U, np.asfortranarray(U), wide[::2, ::3]):
            got = Tensor3.from_unfolding(layout)
            for name in ("rows", "cols", "vals", "row_ptr"):
                assert getattr(got, name).dtype == getattr(want, name).dtype
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_rejects_malformed_entries(self):
        with pytest.raises(ValueError, match="must be"):
            Tensor3(2, [(1, 1, 0.5)])

    @pytest.mark.parametrize("entries,message", [
        ([(1.7, 1, 1, 0.5)], r"^entry \(1.7,1,1\) has an index that is not an integer$"),
        ([(1, 1, 1, 0.5), (2, 1, 1.5, 0.5)],
         r"^entry \(2,1,1.5\) has an index that is not an integer$"),
        ([(1, float("nan"), 1, 0.5)], r"^entry \(1,nan,1\) has an index that is not an integer$"),
        ([(Fraction(3, 2), 1, 1, 0.5)],
         r"^entry \(3/2,1,1\) has an index that is not an integer$"),
        ([(2 ** 70, 1, 1, 0.5)], rf"^entry \({2 ** 70},1,1\) out of range for n=2$"),
    ], ids=["float", "second-entry", "nan", "fraction", "huge"])
    def test_rejects_indices_that_are_not_integers(self, entries, message):
        # they were once truncated: (1.7, 1, 1) stored entry (1, 1, 1)
        with pytest.raises(ValueError, match=message):
            Tensor3(2, entries)

    def test_integral_float_indices_are_their_integers(self):
        B = Tensor3(2, [(2.0, 1.0, np.float32(2.0), 0.5), (np.int8(1), 2, 1, 0.25)])
        assert list(B.entries()) == [(1, 2, 1, 0.25), (2, 1, 2, 0.5)]

    @pytest.mark.parametrize("rows,cols,vals", [
        ([0, 0], [0, 1], [1.0]),
        ([0], [0, 1], [1.0, 2.0]),
        ([0, 1], [1], [1.0, 2.0]),
    ])
    def test_from_coordinates_rejects_lengths_that_differ(self, rows, cols, vals):
        # once it built nnz 1 with row_ptr counting 2, and an unfolding that
        # spread the one value over both positions
        message = rf"^rows, cols and vals differ in length: {len(rows)}, {len(cols)}, {len(vals)}$"
        with pytest.raises(ValueError, match=message):
            Tensor3.from_coordinates(2, rows, cols, vals)

    @pytest.mark.parametrize("rows,cols,message", [
        ([0, 0.5], [0, 1], r"^entry \(1.5,2,1\) has an index that is not an integer$"),
        ([0], [0.5], r"^entry \(1,1.5,1\) has an index that is not an integer$"),
        ([0], [np.nan], r"^entry \(1,nan,nan\) has an index that is not an integer$"),
        ([0], [np.inf], r"^entry \(1,nan,nan\) has an index that is not an integer$"),
        ([0, 0], [1, 4], r"^entry \(1,1,3\) out of range for n=2$"),
        ([-1], [0], r"^entry \(0,1,1\) out of range for n=2$"),
    ], ids=["row", "column", "nan-column", "inf-column", "column-past-n^2", "negative-row"])
    def test_from_coordinates_names_a_bad_index_by_its_ijk(self, rows, cols, message):
        # an index that is not an integer was once truncated
        with pytest.raises(ValueError, match=message):
            Tensor3.from_coordinates(2, rows, cols, np.full(len(rows), 0.5))

    def test_from_coordinates_names_a_bad_value_by_its_ijk(self):
        with pytest.raises(ValueError, match=r"^entry \(2,1,2\) has invalid value -0.5$"):
            Tensor3.from_coordinates(2, [0, 1], [0, 2], [0.5, -0.5])

    def test_from_coordinates_takes_integral_floats(self):
        B = Tensor3.from_coordinates(2, np.array([1.0, 0.0]), [3, 1], [0.5, 0.25])
        assert B.rows.dtype == B.cols.dtype == np.int64
        assert list(B.entries()) == [(1, 2, 1, 0.25), (2, 2, 2, 0.5)]

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


def full_constructions(U, tmp_path, rng):
    """A full tensor built every way there is, by name."""
    n = U.shape[0]
    rows, cols = np.nonzero(U)
    entries = [(i + 1, c % n + 1, c // n + 1, U[i, c]) for i, c in zip(rows, cols)]
    rng.shuffle(entries)
    path = tmp_path / "full.txt"
    write_tensor_text(Tensor3.from_unfolding(U), path)
    return {
        "from_unfolding C": Tensor3.from_unfolding(np.ascontiguousarray(U)),
        "from_unfolding F": Tensor3.from_unfolding(np.asfortranarray(U)),
        "entries shuffled": Tensor3(n, entries),
        "from_coordinates": Tensor3.from_coordinates(n, rows, cols, U[rows, cols]),
        "text round trip": read_tensor_text(path),
    }


class TestFullTensors:
    """A tensor that stores all n^3 entries keeps its values alone."""

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_every_construction_agrees(self, n, rng, tmp_path):
        U = exact_stochastic_unfolding(rng, n)
        want_rows, want_cols = np.nonzero(U)
        x = mixed_x(rng, n)
        built = full_constructions(U, tmp_path, rng)
        first = built["from_unfolding C"]
        for name, T in built.items():
            assert T._cols is None, name
            assert T.vals.tobytes() == U.tobytes(), name
            assert T.row_ptr.tobytes() == np.searchsorted(want_rows, np.arange(n + 1)).tobytes()
            for got, want in ((T.rows, want_rows), (T.cols, want_cols)):
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert contract_sym(T, x).tobytes() == contract_sym(first, x).tobytes(), name
            assert check_stochastic(T, 1.0, 1e-13) == check_stochastic(first, 1.0, 1e-13)
            assert cw_distance(T, first).value == 0.0 and cw_distance(first, T).value == 0.0
            assert T.unfolding().tobytes() == U.tobytes(), name
            assert list(T.entries()) == list(zip((want_rows + 1).tolist(),
                                                 (want_cols % n + 1).tolist(),
                                                 (want_cols // n + 1).tolist(), T.vals.tolist()))

    def test_column_sums_are_the_bincount_over_storage_order(self, rng):
        for n in (1, 3, 30):
            B = full_tensor(rng, n)
            want = np.bincount(B.cols, weights=B.vals, minlength=n * n)
            assert B._column_sums().tobytes() == want.tobytes()
        B = Tensor3(1, [(1, 1, 1, -0.0)])  # started from 0.0, as bincount starts
        assert B._column_sums().tobytes() == np.zeros(1).tobytes()

    def test_rows_and_cols_are_read_only_and_not_kept(self, rng):
        B = full_tensor(rng, 4)
        with pytest.raises(AttributeError):
            B.rows = np.zeros(B.nnz, dtype=np.int64)
        with pytest.raises(AttributeError):
            B.cols = np.zeros(B.nnz, dtype=np.int64)
        B.cols[:] = 0  # a derived copy: the tensor does not change
        assert np.array_equal(B.cols, np.tile(np.arange(16), 4))

    def test_changing_the_unfolding_later_leaves_it_alone(self, rng):
        U = exact_stochastic_unfolding(rng, 5)
        kept = U.copy()
        B = Tensor3.from_unfolding(U)
        sums = B._column_sums().copy()
        U[:] = 7.0
        assert B.vals.tobytes() == kept.tobytes()
        assert B.unfolding().tobytes() == kept.tobytes()
        assert B._column_sums().tobytes() == sums.tobytes()

    @pytest.mark.parametrize("bad,where,message", [
        (np.nan, (1, 2), r"^entry \(2,3,1\) has invalid value nan$"),
        (-0.5, (0, 0), r"^entry \(1,1,1\) has invalid value -0.5$"),
        (np.inf, (2, 8), r"^entry \(3,3,3\) has invalid value inf$"),
        (np.inf, (0, 5), r"^entry \(1,3,2\) has invalid value inf$"),
    ], ids=["nan", "negative", "inf-last", "inf"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_bad_entry_is_named_by_its_ijk(self, bad, where, message, order):
        U = np.full((3, 9), 0.25)
        U[where] = bad
        with pytest.raises(ValueError, match=message):
            Tensor3.from_unfolding(np.asarray(U, order=order))

    def test_one_zero_takes_the_stored_index_path(self, rng):
        n = 17  # above SLAB_MAX_ENTRIES, so its products take S, not a slab
        U = exact_stochastic_unfolding(rng, n)
        U[2, 17] = 0.0
        B = Tensor3.from_unfolding(U)
        assert B.nnz == n ** 3 - 1
        rows, cols = np.nonzero(U)
        assert np.array_equal(B.rows, rows)
        assert B._cols is not None and np.array_equal(B.cols, cols)
        assert B.unfolding().tobytes() == U.tobytes()
        x = mixed_x(rng, n)
        assert contract_sym(B, x).tobytes() == bincount_contract_sym(B, x).tobytes()
        assert B._slab is None

    def test_holds_8_bytes_an_entry_then_16_with_its_slab(self, rng):
        n = 40
        U = exact_stochastic_unfolding(rng, n)
        x = rng.random(n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            B = Tensor3.from_unfolding(U)
            built = tracemalloc.get_traced_memory()[0] - base
            C = contract_sym(B, x)
            contracted = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert C.shape == (n, n)
        assert built <= 8 * B.nnz + 32 * n * n
        assert contracted <= 16 * B.nnz + 32 * n * n

    @pytest.mark.parametrize("kernel", ["on", "off"])
    def test_holds_8_bytes_an_entry_then_its_product_structure_at_n_120(
            self, rng, monkeypatch, kernel):
        # the half slab: 8 bytes an entry plus 32 ceil(n/8) (n + 1) / n^2,
        # about 12.03 in all; the slab (kernel off) 16
        n = 120
        if kernel == "off":
            monkeypatch.setattr(mmatrix, "_half_slab", None)
        U = rng.random((n, n * n))
        x = rng.random(n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            B = Tensor3.from_unfolding(U)
            built = tracemalloc.get_traced_memory()[0] - base
            C = contract_sym(B, x)
            contracted = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert C.shape == (n, n)
        assert built <= 8 * B.nnz + 32 * n * n
        if full_structure(n) == "half_slab":
            held = held_bytes(B._half)
            assert held == 32 * -(-n // 8) * n * (n + 1) + 64
            assert held <= 4.1 * B.nnz
        else:
            held = held_bytes(B._slab)
            assert held == 8 * B.nnz
        assert contracted - built <= held + 32 * n * n

    def test_column_sums_computed_once_for_every_problem(self, rng, monkeypatch):
        n = 8
        U = exact_stochastic_unfolding(rng, n)
        v = np.full(n, 1.0 / n)
        computed = []
        column_sums = Tensor3._column_sums

        def counting(self):
            if self._colsum is None:
                computed.append(self)
            return column_sums(self)

        monkeypatch.setattr(Tensor3, "_column_sums", counting)
        for P in (Tensor3.from_unfolding(U), random_sparse_tensor(rng, n, 0.5)):
            if P._cols is not None:  # make the sparse one stochastic
                P = Tensor3.from_coordinates(n, P.rows, P.cols,
                                             P.vals / P._column_sums()[P.cols])
                computed.clear()
            sums = P._column_sums()
            computed.clear()
            for alpha in (0.3, 0.49, 0.4999, 0.6):
                Problem.from_pagerank(v, P, alpha)
            assert computed == [] and P._column_sums() is sums
            assert not sums.flags.writeable

    def test_no_hot_path_derives_rows_or_cols(self, rng, monkeypatch, tmp_path):
        n = 6
        U = exact_stochastic_unfolding(rng, n)
        v = np.full(n, 1.0 / n)
        P = Tensor3.from_unfolding(U)

        def derived(self):
            raise AssertionError("rows or cols derived")

        monkeypatch.setattr(Tensor3, "rows", property(derived))
        monkeypatch.setattr(Tensor3, "cols", property(derived))
        problem = Problem.from_pagerank(v, P, 0.4)
        rep = solve(problem, SolverOptions())
        residual(problem, rep.x)
        reference_solution(problem)
        perturbed = componentwise_zero_sum_perturb(problem, 1e-6, 1)
        assert cw_distance(perturbed.p_tensor, P).value > 0.0
        write_tensor_text(P, tmp_path / "p.txt")
        assert P.unfolding().tobytes() == U.tobytes()


def half_c_x(B, x):
    """Bx^2 as the solvers take it: (Bx: + B:x) x / 2."""
    return 0.5 * (contract_sym(B, x) @ x)


class TestQuadraticFromContraction:
    def test_zero_tensor(self):
        B = Tensor3.zeros(3)
        assert np.array_equal(half_c_x(B, np.ones(3)), np.zeros(3))

    def test_intro_tensor_scales_x(self):
        # (Bx^2)_i = alpha x_i (x_1 + x_2), so for stochastic x this is alpha x
        alpha, delta = 0.3, 1e-6
        B = intro_tensor(alpha)
        x = np.array([1.0 - delta, delta])
        got = half_c_x(B, x)
        expected = alpha * x * x.sum()
        assert np.max(np.abs(got - expected) / expected) <= 1e-15

    def test_matches_brute_force(self, rng):
        U = rng.random((3, 9))
        B = Tensor3.from_unfolding(U)
        x = rng.random(3)
        got = half_c_x(B, x)
        want = brute_force_quadratic(B, x)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,density,empty_rows", KERNEL_CASES)
    def test_within_2_n_plus_2_u_of_exact_rationals(self, n, density, empty_rows):
        # C's entries add n + 1 rounded terms, C x adds n more; halving is exact
        rng = np.random.default_rng(3000 + n)
        B = scaled(random_sparse_tensor(rng, n, density, empty_rows), 0.4)
        x = rng.random(n) * 10.0 ** rng.integers(-3, 3, size=n)
        xs = [Fraction(float(t)) for t in x]
        want = [Fraction(0)] * n
        for i, j, k, b in B.entries():
            want[i - 1] += Fraction(b) * xs[j - 1] * xs[k - 1]
        for got, exact in zip(half_c_x(B, x), want, strict=True):
            assert abs(Fraction(float(got)) - exact) <= (2 * n + 2) * exact / 2**53

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            contract_sym(intro_tensor(), np.ones(3))


class TestContractions:
    def test_zero_vector(self):
        B = intro_tensor()
        assert np.array_equal(contract_sym(B, np.zeros(2)), np.zeros((2, 2)))

    def test_intro_column_sum_identity(self):
        # column sums of Bx: + B:x equal 2 alpha (1^T x) for stochastic slices
        alpha = 0.3
        B = intro_tensor(alpha)
        x = np.array([1.0, 0.0])
        C = contract_sym(B, x)
        assert np.max(np.abs(C.sum(axis=0) - 2 * alpha)) <= 1e-16

    def test_jacobian_column_sums_random(self, rng):
        # 1^T R_x = (1 - 2 alpha 1^T x) 1^T for stochastic P
        n, alpha = 5, 0.4
        U = exact_stochastic_unfolding(rng, n)
        B = scaled(Tensor3.from_unfolding(U), alpha)
        x = rng.random(n)
        R = np.eye(n) - contract_sym(B, x)
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


def exact_products(U, x):
    """Every protocol product of the tensor with unfolding U, each entry one fsum.

    The terms u x_j are rounded products, so each entry is within 2u of the
    exact value for these stored entries.
    """
    n = len(x)
    T = U.reshape(n, n, n).transpose(0, 2, 1)  # T[i, j, k] = p_ijk

    def fsum(a):
        return math.fsum(np.ravel(a).tolist())

    return {
        "sym": np.array([[fsum(np.concatenate([T[i, :, j] * x, T[i, j, :] * x]))
                          for j in range(n)] for i in range(n)]),
        "column_sums": np.array([fsum(U[:, c]) for c in range(n * n)]),
    }


def factored_products(P, x):
    return {
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
        # weight < 1 is the alpha x at which Problem.contract takes P's products
        A = GRAPHS[graph]()
        n, u = len(A), 2.0 ** -53
        rng = np.random.default_rng(n)
        v = rng.random(n) + 0.1
        v /= v.sum()
        P = build_pagerank_tensor(Adjacency(matrix=A), v, nu)
        U = dense_pagerank_unfolding(A, v, nu)
        assert P.unfolding().tobytes() == U.tobytes()
        assert P.to_tensor3().unfolding().tobytes() == U.tobytes()
        for _ in range(3):
            x = weight * (rng.random(n) * 10.0 ** rng.integers(-3, 3, size=n))
            want = exact_products(U, x)
            for name, got in factored_products(P, x).items():
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
        P = build_pagerank_tensor(Adjacency(matrix=A), np.full(n, 1.0 / n), 0.1)
        x = rng.random(n)
        first = factored_products(P, x)
        again = factored_products(P, x.copy())
        for name in first:
            assert first[name].tobytes() == again[name].tobytes(), name

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

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_s_is_from_coordinates_on_the_cycle_list(self, graph):
        # S takes the cycle tensor's coordinates as they are; from_coordinates
        # checks and sorts the cycle list, from the dense formula, anew
        A = GRAPHS[graph]()
        n = len(A)
        Af = A.astype(np.float64)
        C = (Af[:, :, None] * Af[None, :, :] * Af.T[:, None, :]).transpose(0, 2, 1)
        U = C.reshape(n, n * n)
        rows, cols = np.nonzero(U)
        want = Tensor3.from_coordinates(n, rows, cols, 1.0 / U.sum(axis=0)[cols])
        S = build_pagerank_tensor(Adjacency(matrix=A), np.full(n, 1.0 / n), 0.1).S
        for name in ("vals", "cols", "row_ptr"):
            assert getattr(S, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_column_sums_are_kept_read_only_with_the_formula_bytes(self, graph):
        A = GRAPHS[graph]()
        n = len(A)
        v = np.random.default_rng(n).random(n) + 0.1
        P = build_pagerank_tensor(Adjacency(matrix=A), v / v.sum(), 0.1)
        sums = P._column_sums()
        assert P._column_sums() is sums
        with pytest.raises(ValueError, match="read-only"):
            sums[0] = 0.0
        S_sums = np.bincount(P.S.cols, weights=P.S.vals, minlength=n * n)
        want = (P.nu * (S_sums + P.dS.ravel() * P.v.sum())
                + (1.0 - P.nu) * np.repeat(P.F.sum(axis=0), n))
        assert sums.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,directed", [(80, False), (150, False), (60, True)])
    @pytest.mark.parametrize("nu", [0.0, 0.1, 1.0])
    def test_unfolding_is_the_formula_in_one_array(self, n, directed, nu):
        # the formula's own expression is the oracle; evaluated in place, the
        # unfolding is the only n^3 array alive
        A = random_graph(n, n=n, density=8.0 / n, isolated=(n // 2,), directed=directed)
        rng = np.random.default_rng(n)
        v = rng.random(n) + 0.05
        v[n // 3] = 0.0
        P = build_pagerank_tensor(Adjacency(matrix=A), v / v.sum(), nu)
        want = (P.nu * (P.S.unfolding() + P.v[:, None] * P.dS.reshape(1, n * n))
                + (1.0 - P.nu) * np.repeat(P.F, n, axis=1))
        tracemalloc.start()
        try:
            got = P.unfolding()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak <= 1.25 * n ** 3 * 8


# ---------------------------------------------------------------------------
# The compiled product of the factored tensor against its numpy expression
# ---------------------------------------------------------------------------

needs_graph_product = pytest.mark.skipif(mmatrix._graph_product is None,
                                         reason="no compiled graph product")


def bipartite_graph(n):
    """The complete bipartite graph on n vertices: no odd cycles, so no three-cycles."""
    A = np.zeros((n, n), dtype=bool)
    A[: n // 2, n // 2 :] = A[n // 2 :, : n // 2] = True
    return A


# every GRAPHS fixture has n^3 <= SLAB_MAX_ENTRIES and keeps the numpy
# expression; the rest are past the bound, where the compiled product runs
PRODUCT_GRAPHS = {
    **GRAPHS,
    "n=17": lambda: random_graph(17, n=17, density=0.3, isolated=(5,)),
    "n=80": lambda: random_graph(80, n=80, density=0.1, isolated=(0, 41)),
    "n=150-directed": lambda: random_graph(150, n=150, density=0.05, isolated=(149,),
                                           directed=True),
    "no-three-cycles": lambda: bipartite_graph(40),
}


def graph_tensor(A, nu):
    n = len(A)
    v = np.random.default_rng(n).random(n) + 0.05
    return build_pagerank_tensor(Adjacency(matrix=A), v / v.sum(), nu)


def products_on_and_off(monkeypatch, P, xs):
    """The bytes of contract_sym(P, x) for each x with the compiled product,
    then with its binding set to None, which runs the numpy expression."""
    on = [contract_sym(P, x).tobytes() for x in xs]
    with monkeypatch.context() as m:
        m.setattr(mmatrix, "_graph_product", None)
        off = [contract_sym(P, x).tobytes() for x in xs]
    return on, off


@needs_graph_product
class TestCompiledGraphProduct:
    """Past the slab bound, with S on its CSR path and 32-bit indices, a
    PageRankTensor's product runs compiled with the numpy expression's bytes."""

    @pytest.mark.parametrize("graph", sorted(PRODUCT_GRAPHS))
    @pytest.mark.parametrize("nu", [0.0, 0.1, 1.0])
    def test_the_bytes_of_the_numpy_expression(self, monkeypatch, graph, nu):
        A = PRODUCT_GRAPHS[graph]()
        n = len(A)
        P = graph_tensor(A, nu)
        assert bool(P._compiled_factors()) is (n ** 3 > SLAB_MAX_ENTRIES)
        assert P.S.nnz > 0 or graph in ("no-three-cycles", "path-1-2-3")
        rng = np.random.default_rng(n)
        xs = [scale * rng.random(n) for scale in (1e-8, 1e-4, 1.0)]
        xs += [mixed_x(rng, n), np.zeros(n), -np.zeros(n)]
        on, off = products_on_and_off(monkeypatch, P, xs)
        assert on == off

    @pytest.mark.parametrize("graph", ["n=17", "n=80", "n=150-directed"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, -np.nan],
                             ids=["inf", "-inf", "nan", "-nan"])
    def test_one_entry_of_x_that_is_not_finite_gives_the_same_bytes(self, monkeypatch, graph,
                                                                     bad):
        # every NaN either path makes comes from that one entry or from an
        # invalid operation, so the two meet no two different NaNs
        A = PRODUCT_GRAPHS[graph]()
        n = len(A)
        P = graph_tensor(A, 0.1)
        rng = np.random.default_rng(n)
        xs = []
        for k in (0, n - 1, int(rng.integers(n))):
            x = rng.random(n)
            x[k] = bad
            xs.append(x)
        with np.errstate(invalid="ignore"):
            on, off = products_on_and_off(monkeypatch, P, xs)
        assert on == off
        assert all(np.isnan(np.frombuffer(b)).any() for b in on)

    def test_the_factors_are_read_once_per_tensor(self, monkeypatch):
        P = graph_tensor(PRODUCT_GRAPHS["n=80"](), 0.1)
        x = np.random.default_rng(1).random(80)
        first = contract_sym(P, x)
        factors = P._factors
        builds = count_product_builds(monkeypatch)
        again = contract_sym(P, x)
        assert P._factors is factors and builds == []
        assert again.tobytes() == first.tobytes()

    def test_no_compiled_product_on_64_bit_indices_or_at_the_slab_bound(self, monkeypatch):
        P = graph_tensor(PRODUCT_GRAPHS["n=17"](), 0.1)
        S = P.S.sym_matrix()
        wide = S.copy()
        wide.indices, wide.indptr = S.indices.astype(np.int64), S.indptr.astype(np.int64)
        monkeypatch.setattr(P.S, "_sym", wide)
        assert P._compiled_factors() == ()
        x = np.random.default_rng(2).random(17)
        on, off = products_on_and_off(monkeypatch, P, [x])
        assert on == off
        small = graph_tensor(GRAPHS["random"](), 0.1)
        assert small._compiled_factors() == () and small.S._sym is None

    def test_a_strided_x_and_strided_factors_give_the_numpy_bytes(self):
        # the C product reads contiguous copies of x, v and F, which must
        # outlive the calls; glibc fills freed memory with MALLOC_PERTURB_'s
        # byte, so a copy read after its free gives other bytes
        src = os.path.dirname(os.path.dirname(mlpagerank.__file__))
        env = dict(os.environ, MALLOC_PERTURB_="165",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", STRIDED_GRAPH_RUN], capture_output=True,
                             text=True, timeout=300, env=env)
        assert (out.stdout, out.stderr) == ("compiled True, same bytes True\n", "")


# A graph's tensor at n = 130 rebuilt with v, F and x strided views, so that
# the copies the C product reads are past numpy's cache of small buffers, and
# its products against the numpy expression's.
STRIDED_GRAPH_RUN = """
import numpy as np
from mlpagerank import Adjacency, build_pagerank_tensor, contract_sym, mmatrix
from mlpagerank.tensor import PageRankTensor
n = 130
rng = np.random.default_rng(n)
A = rng.random((n, n)) < 0.08
v = rng.random(n) + 0.05
G = build_pagerank_tensor(Adjacency(matrix=A | A.T), v / v.sum(), 0.1)
v, F = (np.stack([a, np.zeros_like(a)], axis=-1)[..., 0] for a in (G.v, G.F))
P = PageRankTensor(G.S, v, G.dS, F, G.nu)
xs = [np.stack([rng.random(n), np.zeros(n)], axis=1)[:, 0] for _ in range(3)]
assert not (P.v.flags.c_contiguous or P.F.flags.c_contiguous or xs[0].flags.c_contiguous)
got = [contract_sym(P, x).tobytes() for x in xs]
compiled = bool(P._compiled_factors())
mmatrix._graph_product = None
print(f"compiled {compiled}, same bytes", got == [contract_sym(P, x).tobytes() for x in xs])
"""
