"""Tensor storage and contraction products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpagerank import tensor as tz
from mlpagerank import (
    Tensor3,
    apply_bilinear,
    apply_quadratic,
    check_stochastic,
    contract_left,
    contract_right,
    read_tensor_text,
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
