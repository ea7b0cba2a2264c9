"""Order-3 tensors and the contraction products used by the solvers.

The solvers and Problem.from_pagerank touch a tensor only through its
product protocol: the module functions apply_bilinear, apply_quadratic,
contract_left, contract_right, contract_sym and check_stochastic (its
unfolding column sums), plus unfolding(), scale(), n and nnz.  Code that
reads stored entries (pair-precision arithmetic, cw_distance on tensors,
the tensor file) calls to_tensor3() first.  Two types implement the
protocol: Tensor3, which stores entries, and PageRankTensor, which keeps a
graph's PageRank tensor in factored form.

An n x n x n tensor B is stored through its first-mode unfolding: entry
b_{ijk} lives in row i, column c = j + (k-1)*n of an n x n^2 matrix.  The
entries are kept in coordinate arrays (rows, cols, vals), zero-based and
sorted by (row, column) with a CSR row pointer, so within a row they run by
k, then j.  All stored values are nonnegative; the solvers rely on this to
keep their nonnegative code paths free of cancellation.

Read in that order, the storage is also the compressed-column (CSC) form of
the n^2 x n^2 block-diagonal slice matrix D = diag(B_1, ..., B_n), with
(B_i)_{jk} = b_{ijk}: column i*n + k of D holds the entries b_{ijk} of one
(i, k) in storage order, at rows i*n + j.  With x~ = (x, ..., x) (n copies),

    vec(B:x) = D x~   (row i*n + j)      vec(Bx:) = D^T x~   (row i*n + k),

so the two Jacobian contractions are scipy matrix-vector products with D
and with its transpose, a CSR matrix on the same arrays.  Their index arrays
are derived on a tensor's first product and shared by all of its scale()
copies, so a tensor that is never multiplied never pays for them.  Their
sum vec(Bx: + B:x) = S x~ takes one product (contract_sym) with S = D + D^T,
whose blocks B_i + B_i^T are symmetric; S is kept per tensor, not per copy.

Summation-order contract: every product adds the terms b_{ijk} x_j,
b_{ijk} x_k or (b_{ijk} x_j) y_k of one output entry one at a time, starting
from 0.0, in storage order.  Results are therefore bit-for-bit reproducible
and equal to a sequential ``np.bincount`` over the same terms, however the
work is dispatched.  contract_sym adds the terms fl(b_{ijk} + b_{ikj}) x_k of
row i*n + j of S in the same way, in the order S stores them (k ascending).

PageRankTensor holds P_(1) = w [nu (S + v d_S^T) + (1 - nu) F kron 1^T]
as its factors.  Its products cost O(nnz(S) + n^2) and add nonnegative
terms only, in one order: the S product by the rule above, plus v times a
BLAS product with d_S, times w nu; plus w (1 - nu) times the F terms (BLAS
products with F, and 1^T x).  For example, with D_{jk} = d_S(j, k),

    (Px: + P:x)_{ij} = w nu [(Sx: + S:x)_{ij} + v_i ((D + D^T) x)_j]
                     + w (1 - nu) [(Fx)_i + F_{ij} 1^T x].

Let m be the largest of n (2n for apply_bilinear) and the stored entries
of S in one row.  Each entry of a product is then within gamma_{m+6} =
(m+6)u / (1 - (m+6)u) of the exact product of the stored factors, relative
to that entry.  BLAS fixes its own summation order, so results repeat bit
for bit from call to call on one BLAS build and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array, csr_array

# apply_bilinear sums with np.bincount below this many stored entries, where
# building a CSR matrix per call costs more than it saves; both add the same
# terms in the same order.
BINCOUNT_MAX_NNZ = 4096


class _Layout:
    """Index arrays derived from a storage pattern, built on first use.

    One instance is shared by a tensor and all of its scale() copies.
    """

    __slots__ = ("j", "k", "col_ptr", "slice_rows", "tile")

    def __init__(self):
        self.j = None

    def build(self, B):
        if self.j is None:
            n = B.n
            # storage runs by (i, k, j), so the columns i*n + k of D are sorted;
            # 32-bit indices where they fit make the products cheaper and smaller
            index = np.int32 if max(n * n, B.nnz) < 2**31 else np.int64
            k, j = (a.astype(index) for a in np.divmod(B.cols, n))
            self.k = k
            self.col_ptr = np.searchsorted(B.rows * n + k, np.arange(n * n + 1)).astype(index)
            self.slice_rows = (B.rows * n + j).astype(index)
            self.tile = np.tile(np.arange(n), n)  # x.take(tile) is x~
            self.j = j
        return self


def _entry(n, row, col):
    """The 1-based (i,j,k) label of a zero-based (row, unfolding column)."""
    return f"({row + 1},{col % n + 1},{col // n + 1})"


def _invalid(vals):
    return ~np.isfinite(vals) | (vals < 0.0)


class Tensor3:
    """Immutable nonnegative order-3 tensor in coordinate form.

    Entries are kept sorted by (row, unfolding column) with a CSR-style row
    pointer, so one pass over the arrays streams the tensor in a fixed,
    reproducible order.
    """

    __slots__ = ("n", "rows", "cols", "vals", "row_ptr", "_layout", "_slices", "_sym")

    def __init__(self, n, entries):
        """Build from an iterable of (i, j, k, value) with 1-based indices.

        Raises ValueError on indices out of range, negative or non-finite
        values, or duplicate (i, j, k) triples (duplicates are rejected, not
        summed, so file round-trips are bit-exact).  Entries may come in any
        order; they are sorted only when they are not sorted already.
        """
        n = int(n)
        if n <= 0:
            raise ValueError("tensor dimension must be positive")
        entries = list(entries)
        if any(len(e) != 4 for e in entries):
            raise ValueError("entries must be (i, j, k, value) tuples")
        columns = list(zip(*entries)) or [(), (), (), ()]
        i, j, k = (np.asarray(c, dtype=np.int64) for c in columns[:3])
        vals = np.asarray(columns[3], dtype=np.float64)
        outside = (np.minimum(np.minimum(i, j), k) < 1) | (np.maximum(np.maximum(i, j), k) > n)
        bad = outside | _invalid(vals)
        if bad.any():
            e = int(np.argmax(bad))
            what = (f"out of range for n={n}" if outside[e]
                    else f"has invalid value {float(vals[e])!r}")
            raise ValueError(f"entry ({i[e]},{j[e]},{k[e]}) {what}")
        self._store(n, i - 1, (j - 1) + (k - 1) * n, vals)

    def _store(self, n, rows, cols, vals):
        """Validate values, sort if needed, reject duplicates, and keep the arrays.

        rows and cols are zero-based int64 arrays already known to be in range.
        """
        bad = _invalid(vals)
        if bad.any():
            e = int(np.argmax(bad))
            raise ValueError(f"entry {_entry(n, rows[e], cols[e])} "
                             f"has invalid value {float(vals[e])!r}")
        flat = rows * (n * n)
        flat += cols
        if len(flat) > 1 and not (np.diff(flat) > 0).all():
            order = np.argsort(flat, kind="stable")
            rows, cols, vals, flat = rows[order], cols[order], vals[order], flat[order]
            dup = np.flatnonzero(np.diff(flat) == 0)
            if len(dup):
                raise ValueError(f"duplicate entry {_entry(n, rows[dup[0]], cols[dup[0]])}")
        self.n = n
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.row_ptr = np.searchsorted(rows, np.arange(n + 1))
        self._layout = _Layout()
        self._slices = None
        self._sym = None

    @classmethod
    def from_unfolding(cls, unfolding):
        """Build from a dense n x n^2 first-mode unfolding (zeros dropped)."""
        U = np.asarray(unfolding, dtype=np.float64)
        n = U.shape[0]
        if U.shape != (n, n * n):
            raise ValueError(f"unfolding must be n x n^2, got {U.shape}")
        if n == 0:
            raise ValueError("tensor dimension must be positive")
        rows, cols = (np.ascontiguousarray(a) for a in np.nonzero(U))
        out = cls.__new__(cls)
        out._store(n, rows, cols, U[rows, cols])
        return out

    @classmethod
    def from_coordinates(cls, n, rows, cols, vals):
        """Build from zero-based rows and unfolding columns c = j + k*n, with values."""
        rows, cols = (np.asarray(a, dtype=np.int64) for a in (rows, cols))
        if len(rows) and (min(rows.min(), cols.min()) < 0
                          or rows.max() >= n or cols.max() >= n * n):
            raise ValueError(f"coordinates out of range for n={n}")
        out = cls.__new__(cls)
        out._store(int(n), rows, cols, np.asarray(vals, dtype=np.float64))
        return out

    @classmethod
    def zeros(cls, n):
        return cls(n, [])

    @property
    def nnz(self):
        return len(self.vals)

    def entries(self):
        """Iterate (i, j, k, value) with 1-based indices in storage order."""
        k, j = np.divmod(self.cols, self.n)
        return zip((self.rows + 1).tolist(), (j + 1).tolist(), (k + 1).tolist(),
                   self.vals.tolist())

    def unfolding(self):
        """A new dense n x n^2 unfolding."""
        U = np.zeros((self.n, self.n * self.n))
        U[self.rows, self.cols] = self.vals
        return U

    def scale(self, factor):
        """Return the tensor scaled by a nonnegative factor."""
        factor = float(factor)
        if factor < 0.0:
            raise ValueError("scale factor must be nonnegative")
        out = Tensor3.__new__(Tensor3)
        out.n = self.n
        out.rows = self.rows
        out.cols = self.cols
        out.vals = self.vals * factor
        out.row_ptr = self.row_ptr
        out._layout = self._layout
        out._slices = None
        out._sym = None
        return out

    def slice_matrices(self):
        """(D, D^T): the slice matrix in CSC form and its CSR transpose.

        Both wrap this tensor's own arrays, copying nothing, and are built
        once per tensor.
        """
        if self._slices is None:
            lay = self._layout.build(self)
            nn = self.n * self.n
            D = csc_array((self.vals, lay.slice_rows, lay.col_ptr), shape=(nn, nn))
            self._slices = (D, D.T)
        return self._slices

    def sym_matrix(self):
        """S = D + D^T in CSR form, built once per tensor.

        S shares D^T's index arrays where D has their pattern; otherwise it is
        copied at its exact size out of scipy's nnz(D) + nnz(D^T) buffers.
        """
        if self._sym is None:
            D, DT = self.slice_matrices()
            S = D.tocsr()
            if np.array_equal(S.indptr, DT.indptr) and np.array_equal(S.indices, DT.indices):
                S.data += DT.data
                S = csr_array((S.data, DT.indices, DT.indptr), shape=S.shape)
            else:
                S = S + DT
                S = csr_array((S.data[:S.nnz].copy(), S.indices[:S.nnz].copy(), S.indptr),
                              shape=S.shape)
            self._sym = S
        return self._sym

    def to_tensor3(self):
        return self

    def _bilinear(self, x, y):
        lay = self._layout.build(self)
        w = self.vals * x.take(lay.j)
        if 0 < self.nnz <= BINCOUNT_MAX_NNZ:  # with no weights bincount gives integers
            w *= y.take(lay.k)
            return np.bincount(self.rows, weights=w, minlength=self.n)
        return csr_array((w, lay.k, self.row_ptr), shape=(self.n, self.n)) @ y

    def _left(self, x):
        _, DT = self.slice_matrices()
        return (DT @ x.take(self._layout.tile)).reshape(self.n, self.n)

    def _right(self, x):
        D, _ = self.slice_matrices()
        return (D @ x.take(self._layout.tile)).reshape(self.n, self.n)

    def _symmetric(self, x):
        return (self.sym_matrix() @ x.take(self._layout.tile)).reshape(self.n, self.n)

    def _column_sums(self):
        return np.bincount(self.cols, weights=self.vals, minlength=self.n * self.n)

    def __repr__(self):
        return f"Tensor3(n={self.n}, nnz={self.nnz})"


class PageRankTensor:
    """P_(1) = w [nu (S + v d_S^T) + (1 - nu) F kron 1^T], kept in factored form.

    S is a sparse Tensor3; dS is the n x n array of d_S, with dS[k, j] = 1
    exactly where unfolding column j + k*n of S is empty and 0 elsewhere; F
    is dense n x n, its entry (i, k) the first-order part of p_{ijk} for
    every j; nu is the mixing weight in [0, 1] and w the scale weight, so
    scale() copies share the factors.  Products follow the order and bound in
    the module docstring; to_tensor3() stores the entries, once per object.
    """

    __slots__ = ("n", "S", "v", "dS", "F", "nu", "weight", "_stored")

    def __init__(self, S, v, dS, F, nu, weight=1.0):
        self.n = S.n
        self.S, self.v, self.dS, self.F = S, v, dS, F
        self.nu = float(nu)
        self.weight = float(weight)
        self._stored = None

    @property
    def nnz(self):
        """Entries stored across the factors (not the nonzeros of P_(1))."""
        return self.S.nnz + self.v.size + self.dS.size + self.F.size

    def scale(self, factor):
        factor = float(factor)
        if factor < 0.0:
            raise ValueError("scale factor must be nonnegative")
        return PageRankTensor(self.S, self.v, self.dS, self.F, self.nu, self.weight * factor)

    def unfolding(self):
        """A new dense n x n^2 unfolding, entry by entry as the formula reads."""
        n = self.n
        U = (self.nu * (self.S.unfolding() + self.v[:, None] * self.dS.reshape(1, n * n))
             + (1.0 - self.nu) * np.repeat(self.F, n, axis=1))
        U *= self.weight
        return U

    def to_tensor3(self):
        if self._stored is None:
            self._stored = Tensor3.from_unfolding(self.unfolding())
        return self._stored

    def _mix(self):
        return self.weight * self.nu, self.weight * (1.0 - self.nu)

    def _bilinear(self, x, y):
        a, b = self._mix()
        return (a * (self.S._bilinear(x, y) + self.v * ((self.dS @ x) @ y))
                + b * ((self.F @ y) * x.sum()))

    def _left(self, x):
        a, b = self._mix()
        return a * (self.S._left(x) + np.outer(self.v, self.dS @ x)) + b * (self.F * x.sum())

    def _right(self, x):
        a, b = self._mix()
        return a * (self.S._right(x) + np.outer(self.v, x @ self.dS)) + (b * (self.F @ x))[:, None]

    def _symmetric(self, x):
        a, b = self._mix()
        d = self.dS @ x + x @ self.dS
        return (a * (self.S._symmetric(x) + np.outer(self.v, d))
                + b * ((self.F @ x)[:, None] + self.F * x.sum()))

    def _column_sums(self):
        a, b = self._mix()
        return (a * (self.S._column_sums() + self.dS.ravel() * self.v.sum())
                + b * np.repeat(self.F.sum(axis=0), self.n))


def _check_dim(B, x, name="x"):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (B.n,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({B.n},)")
    return x


def apply_bilinear(B, x, y):
    """(Bxy)_i = sum_{j,k} b_{ijk} x_j y_k.

    On a Tensor3 each term is (b_{ijk} x_j) y_k, accumulated in storage
    order, so repeated calls are bit-for-bit reproducible; for nonnegative
    x, y only additions and multiplications of nonnegative terms occur.
    """
    return B._bilinear(_check_dim(B, x, "x"), _check_dim(B, y, "y"))


def apply_quadratic(B, x):
    """(Bx^2)_i = sum_{j,k} b_{ijk} x_j x_k."""
    return apply_bilinear(B, x, x)


def contract_left(B, x):
    """Matrix of y -> Bxy, i.e. (Bx:)_{ik} = sum_j b_{ijk} x_j."""
    return B._left(_check_dim(B, x))


def contract_right(B, x):
    """Matrix of y -> Byx, i.e. (B:x)_{ij} = sum_k b_{ijk} x_k."""
    return B._right(_check_dim(B, x))


def contract_sym(B, x):
    """Bx: + B:x in one pass: (Bx: + B:x)_{ij} = sum_k (b_{ijk} + b_{ikj}) x_k.

    A Tensor3 takes one product with its symmetric slice matrix.
    """
    return B._symmetric(_check_dim(B, x))


@dataclass(frozen=True)
class StochasticityReport:
    """Outcome of a column-sum check on the unfolding."""

    target: float
    tol: float
    max_deviation: float
    worst_column: tuple[int, int]  # (j, k), 1-based
    ok: bool


def check_stochastic(B, target, tol):
    """Check every unfolding column sums to `target` within `tol`."""
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    sums = B._column_sums()
    dev = np.abs(sums - target)
    worst = int(np.argmax(dev))
    j, k = worst % B.n + 1, worst // B.n + 1
    return StochasticityReport(
        target=float(target),
        tol=float(tol),
        max_deviation=float(dev[worst]),
        worst_column=(j, k),
        ok=bool(dev[worst] <= tol),
    )


def read_tensor_text(path):
    """Read the tensor text format: header ``n nnz`` then ``i j k value`` lines."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}:1: expected header 'n nnz'")
        n, nnz = int(header[0]), int(header[1])
        entries = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 'i j k value'")
            i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
            value = float(parts[3])
            if value < 0.0:
                raise ValueError(f"{path}:{lineno}: negative value {value}")
            entries.append((i, j, k, value))
    if len(entries) != nnz:
        raise ValueError(f"{path}: header says {nnz} entries, file has {len(entries)}")
    return Tensor3(n, entries)


def write_tensor_text(B, path):
    """Write the tensor text format; values use repr so round-trips are exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{B.n} {B.nnz}\n")
        for i, j, k, v in B.entries():
            fh.write(f"{i} {j} {k} {v!r}\n")
