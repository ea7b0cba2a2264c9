"""Order-3 tensors and the one contraction product the solvers use.

The solvers, the analysis and Problem.from_pagerank touch a tensor only
through contract_sym and check_stochastic (its unfolding column sums), plus
unfolding(), n and nnz.  Every other quantity comes from the Jacobian part
C = Bx: + B:x that contract_sym returns: R_x = I - C, and Bx^2 = C x / 2,
the halving exact.  Code that reads stored entries
(pair-precision arithmetic, cw_distance on tensors, the tensor file) calls
to_tensor3() first.  Two types implement the protocol: Tensor3, which stores
entries, and PageRankTensor, which keeps a graph's PageRank tensor in
factored form.

An n x n x n tensor B is stored through its first-mode unfolding: entry
b_{ijk} lives in row i, column c = j + (k-1)*n of an n x n^2 matrix.  The
entries are kept in CSR form: their columns (cols) and values (vals),
zero-based and sorted by (row, column), with a row pointer (row_ptr), so
within a row they run by k, then j.  The row of each entry is derived from
row_ptr when read, never kept.  A tensor that stores all n^3 entries keeps
vals alone, the unfolding in row-major order: the position of an entry gives
its column too.  All stored values are nonnegative; the solvers rely on this
to keep their nonnegative code paths free of cancellation.

The sparse path contracts through one structure, the n^2 x n slice matrix
S whose row i*n + j holds b_{ijk} + b_{ikj} at column k (the slab K below,
stored sparse), so that

    (Bx: + B:x)_{ij} = (S x)_{i*n + j},

one scipy CSR product.  S is built straight from the stored entries: each
b_{ijk} goes to row i*n + j at column k and to row i*n + k at column j, so an
entry of S adds one or two stored values.  This path is taken by a tensor
that stores fewer than all its n^3 entries and has
n^3 > SLAB_MAX_ENTRIES = 16^3.  S is built on the first product and kept per
tensor.  A solve holds such a tensor at 16 bytes an entry, its cols and vals,
plus S at 12 bytes an entry of S (its values and 32-bit column indices, while
they fit) and 4 (n^2 + 1) bytes of row pointer.  S has as many entries as
the tensor where the pattern is symmetric in (j, k), and at most twice as
many.

A tensor that stores every one of its n^3 entries (some may be explicit
zeros), and any tensor with n^3 <= SLAB_MAX_ENTRIES, takes the slab path
instead.  With A[i, k, j] = b_{ijk} (a full tensor's values in storage order,
or the dense unfolding of a sparse one), the k-major slab
K[k, i, j] = b_{ijk} + b_{ikj} is the sum of A's (k, i, j) and (j, i, k)
transposes, formed in one pass.  The product is np.einsum("kij,k->ij", K, x).
K is built on the first product and kept per tensor; S is never built.  So
a solve holds a full tensor with n < HALF_SLAB_MIN_N (or one whose products
cannot run compiled, below) at 16 bytes an entry: its vals (8) and K (8).  A
small sparse tensor holds its cols and vals (16 bytes a stored entry) and K,
8 n^3 bytes, at most 32 KB.

A tensor that stores every entry and has n >= HALF_SLAB_MIN_N takes the
half-slab path where the compiled product runs: mmatrix._half_slab, an
x86-64 build of mmatrix._GTH_C by a compiler with the target attribute, on a
CPU with AVX-512F.  Each slice K[:, i, :] is symmetric bit for bit, since
K[k, i, j] and K[j, i, k] add the same two values, so the half slab keeps
its k <= j triangle alone.  The slices go in groups of 8, the last padded
with zero slices, and a group holds entry (k, j) of its 8 slices side by
side at position j (j + 1) / 2 + k (Tensor3.half_slab).  It is built in C
from vals on the first product and kept per tensor; K is never built.  The
product adds a group's 8 slices in one vector: for column j the terms of
k <= j down column j, then those of k > j along row j, where entry (j, k)
is K[k, i, j].  So a solve holds a full tensor at 8 bytes an entry plus
32 ceil(n/8) (n + 1) / n^2 (12.0 in all at n = 120).  The product streams
half of K's bytes, and a product at n = 120 is memory bound, so it takes
about half the time.  Below HALF_SLAB_MIN_N a ctypes call costs more than
the bytes saved; there, on other CPUs and without a compiler, the slab and
einsum stay, as the half slab's specification.

Summation-order contract, on every path: entry (i, j) of contract_sym adds
the terms fl(b_{ijk} + b_{ikj}) x_k one at a time, starting from 0.0, k
ascending (the terms of row i*n + j of S, in the order S stores them, or
every k of the slab or half slab).  einsum without optimize makes one pass
over k with the (i, j) plane innermost, so it adds the same terms in the
same order as the CSR product; a BLAS product (tensordot, matmul) would not.
The compiled half-slab product rounds every product and sum as einsum does,
with no fused multiply-add, so its bits are einsum's for finite x and for
x with one entry that is not finite.  Where two NaNs meet in one sum (two
NaN entries of x, or a NaN after inf - inf), both give NaN in the same
entries, but not always the same NaN: x86 keeps the first operand's sign
and payload, and einsum adds term + sum where the kernel adds sum + term.
The slab of a sparse tensor also holds the terms S does not store:
fl(0 + 0) x_k = 0 for finite x_k, and adding an exact zero to a sum started
from 0.0 leaves it unchanged, sign included.  Results are therefore
bit-for-bit reproducible, equal on every path for finite x, and equal to a
sequential ``np.bincount`` over the same terms, however the work is
dispatched.  (Where x_k is infinite or NaN, a slab entry 0 gives
0 x_k = NaN, while S skips the entry.)

PageRankTensor holds P_(1) = nu (S + v d_S^T) + (1 - nu) F kron 1^T as
its factors.  Its products cost O(nnz(S) + n^2) and add nonnegative terms
only, in one order: the S product by the rule above, plus v times a BLAS
product with d_S, times nu; plus (1 - nu) times the F terms (BLAS products
with F, and 1^T x).  With D_{jk} = d_S(j, k),

    (Px: + P:x)_{ij} = nu [(Sx: + S:x)_{ij} + v_i ((D + D^T) x)_j]
                     + (1 - nu) [(Fx)_i + F_{ij} 1^T x].

Where S takes its CSR path with 32-bit indices and the library is loaded,
the product runs compiled (mmatrix._graph_product): d = (D + D^T) x, F x
and 1^T x stay numpy calls, and one C pass over the n^2 entries adds each
row of S x in scipy's CSR order and combines the terms with the numpy
expression's operations in the expression's order, so its bytes are the
expression's.  Everywhere else, on S's slab below the bound above all, the
numpy expression runs: it is the compiled pass's specification and its
fallback.

Let m be the largest of n and the stored entries of S in one row.  Each
entry of a product is then within gamma_{m+6} = (m+6)u / (1 - (m+6)u) of the
exact product of the stored factors, relative to that entry.  BLAS fixes its
own summation order, so results repeat bit for bit from call to call on one
BLAS build and thread count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.sparse import csr_array

from . import mmatrix

# Up to this many entries in n^3 a tensor contracts through its dense slab
# (8 n^3 bytes, 32 KB here) whatever it stores.  On a 2-vCPU VM, best of 5,
# einsum over the slab matched or beat the CSR product up to n = 24 at
# densities 0.05 and 0.3, and lost at n = 32 at 0.05.  Up to n = 16 the
# slab is also built in a fifth or less of the time S takes.
SLAB_MAX_ENTRIES = 16 ** 3

# From this n up a tensor that stores all n^3 entries contracts through its
# half slab, where the compiled product runs (mmatrix._half_slab).  On a
# 2-vCPU AVX-512 VM (best of 7 x 100 calls, 3 rounds, contract_sym on a
# built structure) its time over einsum's was 1.38 at n = 17, 1.02-1.06 at
# 24-26, 0.95 at 27, 0.93 at 28, 0.80-0.91 at 29-32, 0.60 at 40 and 0.53 at
# 120: a ctypes call costs more than einsum's few microseconds below.
HALF_SLAB_MIN_N = 28


def _entry(n, row, col):
    """The 1-based (i,j,k) label of a zero-based (row, unfolding column)."""
    return f"({row + 1},{col % n + 1},{col // n + 1})"


def _invalid(vals):
    return ~np.isfinite(vals) | (vals < 0.0)


def _check_values(n, vals, rows=None, cols=None):
    """Raise ValueError naming the first stored value that is negative or not finite.

    Without rows and cols, vals are all n^3 entries in storage order.  Two
    reductions clear valid values (a NaN makes the minimum NaN); only
    invalid ones are looked for entry by entry.
    """
    if not len(vals) or (vals.min() >= 0.0 and vals.max() < np.inf):
        return
    e = int(np.argmax(_invalid(vals)))
    row, col = divmod(e, n * n) if rows is None else (rows[e], cols[e])
    raise ValueError(f"entry {_entry(n, row, col)} has invalid value {float(vals[e])!r}")


class Tensor3:
    """Immutable nonnegative order-3 tensor in CSR form.

    Entries are kept sorted by (row, unfolding column) with a row pointer,
    so one pass over the arrays streams the tensor in a fixed, reproducible
    order.  Every tensor derives the row of each entry from row_ptr when
    read; whatever builds it, one with all n^3 entries stored keeps only
    vals and row_ptr, its cols derived from storage order too.  The
    unfolding's column sums are computed once and kept.
    """

    __slots__ = ("n", "vals", "row_ptr", "_cols", "_csr", "_colsum", "_sym", "_slab", "_half")

    def __init__(self, n, entries):
        """Build from an iterable of (i, j, k, value) with 1-based indices.

        Raises ValueError on indices out of range or not integers, negative
        or non-finite values, or duplicate (i, j, k) triples (duplicates are
        rejected, not summed, so file round-trips are bit-exact).  Entries
        may come in any order; they are sorted only when they are not sorted
        already.
        """
        n = int(n)
        if n <= 0:
            raise ValueError("tensor dimension must be positive")
        entries = list(entries)
        if any(len(e) != 4 for e in entries):
            raise ValueError("entries must be (i, j, k, value) tuples")
        columns = list(zip(*entries)) or [(), (), (), ()]
        self._store(n, [np.asarray(c, dtype=np.float64) - 1 for c in columns[:3]],
                    np.asarray(columns[3], dtype=np.float64), lambda e: entries[e][:3])

    def _store(self, n, ijk, vals, given):
        """Check, sort if needed and keep entries at zero-based indices ijk = (i, j, k).

        Raises ValueError naming the first entry, in input order, with an
        index out of range or not an integer, or a value that is negative or
        not finite (given(e) is its (i, j, k) as given), then the first
        duplicate.
        """
        # reductions clear valid entries (a NaN fails them); only a bad one is
        # looked for entry by entry
        if len(vals) and not (all(a.min() >= 0 and a.max() < n and
                                  (a.dtype.kind in "biu" or (a == np.floor(a)).all()) for a in ijk)
                              and vals.min() >= 0.0 and vals.max() < np.inf):
            outside = np.any([(a < 0) | (a >= n) for a in ijk], axis=0)
            fractional = np.any([a != np.floor(a) for a in ijk], axis=0)
            e = int(np.argmax(outside | fractional | _invalid(vals)))
            what = (f"out of range for n={n}" if outside[e]
                    else "has an index that is not an integer" if fractional[e]
                    else f"has invalid value {float(vals[e])!r}")
            raise ValueError("entry ({},{},{}) {}".format(*given(e), what))
        rows, j, k = (a.astype(np.int64, copy=False) for a in ijk)
        cols = j + k * n
        flat = rows * (n * n) + cols
        if len(flat) > 1 and not (np.diff(flat) > 0).all():
            order = np.argsort(flat, kind="stable")
            rows, cols, vals, flat = rows[order], cols[order], vals[order], flat[order]
            dup = np.flatnonzero(np.diff(flat) == 0)
            if len(dup):
                raise ValueError(f"duplicate entry {_entry(n, rows[dup[0]], cols[dup[0]])}")
        self._keep(n, rows, cols, vals)

    def _keep(self, n, rows, cols, vals):
        """Keep arrays sorted by (row, column) with unique, in-range coordinates.

        rows only give the row pointer.  With all n^3 entries stored, their
        positions row * n^2 + col are 0, 1, ..., n^3 - 1, so a full tensor
        keeps its values alone (rows and cols may then be None).  _csr is
        whether products take the sparse path, S x: fewer than all n^3
        entries stored, and n^3 > SLAB_MAX_ENTRIES.
        """
        self.n, self.vals = n, vals
        self._cols = None if len(vals) == n ** 3 else cols
        self._csr = self._cols is not None and n ** 3 > SLAB_MAX_ENTRIES
        self.row_ptr = (np.arange(n + 1) * (n * n) if rows is None
                        else np.searchsorted(rows, np.arange(n + 1)))
        self._sym = self._slab = self._half = self._colsum = None

    @classmethod
    def from_unfolding(cls, unfolding):
        """Build from a dense n x n^2 first-mode unfolding (zeros dropped).

        The values are copied, so changing the unfolding later leaves the
        tensor alone.  An unfolding whose entries are all positive is taken
        as one C-order copy: no coordinates are listed.
        """
        U = np.asarray(unfolding, dtype=np.float64)
        n = U.shape[0]
        if U.shape != (n, n * n):
            raise ValueError(f"unfolding must be n x n^2, got {U.shape}")
        if n == 0:
            raise ValueError("tensor dimension must be positive")
        if U.min() > 0.0:  # no zeros, and no NaN, which makes the minimum NaN
            rows = cols = None
            vals = U.flatten()
            if not vals.max() < np.inf:  # the minimum ruled out all but inf
                _check_values(n, vals)
        else:
            # np.nonzero and the boolean gather list each entry once, in
            # row-major order, whatever the memory layout of U: sorted by
            # (row, column) already
            nonzero = U != 0.0
            rows, cols = (np.ascontiguousarray(a) for a in np.nonzero(nonzero))
            vals = U[nonzero]
            _check_values(n, vals, rows, cols)
        out = cls.__new__(cls)
        out._keep(n, rows, cols, vals)
        return out

    @classmethod
    def from_coordinates(cls, n, rows, cols, vals):
        """Build from zero-based rows and unfolding columns c = j + k*n, with values.

        Raises ValueError where rows, cols and vals differ in length, and as
        Tensor3(n, entries) does, naming an entry by its 1-based (i, j, k).
        """
        rows, cols, vals = np.asarray(rows), np.asarray(cols), np.asarray(vals, dtype=np.float64)
        if not len(rows) == len(cols) == len(vals):
            lengths = f"{len(rows)}, {len(cols)}, {len(vals)}"
            raise ValueError(f"rows, cols and vals differ in length: {lengths}")
        with np.errstate(invalid="ignore"):  # an infinite column gives NaN
            k = cols // n
            ijk = rows, cols - k * n, k
        out = cls.__new__(cls)
        out._store(int(n), ijk, vals, lambda e: (f"{a[e] + 1:g}" for a in ijk))
        return out

    def with_values(self, vals):
        """A tensor with this one's coordinates and new values, one a stored
        entry in storage order.

        The coordinates, checked and sorted already, are not checked or
        sorted again; the values are checked as from_coordinates checks them.
        """
        vals = np.asarray(vals, dtype=np.float64)
        if vals.shape != self.vals.shape:
            raise ValueError(f"expected {self.nnz} values, got shape {vals.shape}")
        rows = None if self._cols is None else self.rows
        _check_values(self.n, vals, rows, self._cols)
        out = Tensor3.__new__(Tensor3)
        out._keep(self.n, rows, self._cols, vals)
        return out

    @classmethod
    def zeros(cls, n):
        return cls(n, [])

    @property
    def nnz(self):
        return len(self.vals)

    @property
    def rows(self):
        """Zero-based unfolding row of each stored entry, derived from row_ptr
        on each read."""
        return np.arange(self.n).repeat(self.row_ptr[1:] - self.row_ptr[:-1])

    @property
    def cols(self):
        """Zero-based unfolding column j + k*n of each stored entry; a full
        tensor's is derived from storage order on each read."""
        if self._cols is None:
            return np.tile(np.arange(self.n * self.n), self.n)
        return self._cols

    def positions(self):
        """Row-major position row * n^2 + col of each stored entry in the unfolding."""
        if self._cols is None:
            return np.arange(self.nnz)
        return self.rows * (self.n * self.n) + self._cols

    def entries(self):
        """Iterate (i, j, k, value) with 1-based indices in storage order."""
        if self._cols is None:  # storage runs by i, then k, then j
            r = range(1, self.n + 1)
            return ((i, j, k, v) for (i, k, j), v in zip(product(r, r, r), self.vals.tolist()))
        k, j = np.divmod(self._cols, self.n)
        return zip((self.rows + 1).tolist(), (j + 1).tolist(), (k + 1).tolist(),
                   self.vals.tolist())

    def unfolding(self):
        """A new dense n x n^2 unfolding."""
        if self._cols is None:
            return self.vals.reshape(self.n, -1).copy()
        U = np.zeros((self.n, self.n * self.n))
        U[self.rows, self._cols] = self.vals
        return U

    def _sym_pattern(self):
        """S's pattern, from the stored entries: (source, bounds, indices, row_ptr).

        Each stored b_ijk goes to row i*n + j of S at column k and to row
        i*n + k at column j.  Sorted by (row, column), these 2 nnz placements
        fall into runs of one or two, one run an entry of S: run r adds the
        values vals[source[bounds[r]:bounds[r + 1]]], in no set order, and
        lies at column indices[r] of S, whose CSR row pointer is row_ptr.
        The pair product (precision.dd_sym_matrix) shares it.
        """
        n, nnz = self.n, self.nnz
        cols, start = self.cols, self.rows * (n * n)
        k = cols // n
        # the placement at (row, column) has the key row * n + column
        keys = np.concatenate((start + cols, start + (cols - k * n) * n + k))
        if n ** 3 <= 2 ** 31:
            # a key below 2^31 and a source below 2^32 pack into one int64:
            # sorting those is faster than an argsort of the keys
            keys = np.sort((keys << 32) + np.concatenate([np.arange(nnz)] * 2))
            keys, source = keys >> 32, keys & 0xFFFFFFFF
        else:
            source = np.argsort(keys)
            keys = keys[source]
            source %= nnz
        # a run starts at the first placement, if any, and wherever the key
        # changes; the last bound closes the last run
        bounds = np.flatnonzero(np.concatenate((keys[:1] >= 0, keys[1:] != keys[:-1], [True])))
        keys = keys[bounds[:-1]]
        row = keys // n
        return source, bounds, keys - row * n, np.searchsorted(row, np.arange(n * n + 1))

    def sym_matrix(self):
        """S, the sparse path's n^2 x n slice matrix in CSR form, built once per tensor.

        Row i*n + j holds fl(b_ijk + b_ikj) at column k, columns ascending:
        each entry adds its one or two stored values (_sym_pattern), and a
        sum of two rounds the same in either order.
        """
        if self._sym is None:
            source, bounds, indices, row_ptr = self._sym_pattern()
            data = np.add.reduceat(self.vals[source], bounds[:-1])
            # 32-bit indices where they fit make the product cheaper and smaller
            index = np.int32 if max(self.n ** 2, len(data)) < 2**31 else np.int64
            self._sym = csr_array((data, indices.astype(index), row_ptr.astype(index)),
                                  shape=(self.n ** 2, self.n))
        return self._sym

    def slab(self):
        """K[k, i, j] = b_{ijk} + b_{ikj}, the slab path's structure, built once per tensor.

        A tensor that stores all n^3 entries reads A[i, k, j] = b_{ijk} from
        its values in storage order; any other from its dense unfolding.  K
        is formed in one pass, C-ordered, so k is its outermost axis.  A
        product on the half-slab path never builds it.
        """
        if self._slab is None:
            A = (self.vals if self._cols is None else self.unfolding()).reshape((self.n,) * 3)
            self._slab = np.add(A.transpose(1, 0, 2), A.transpose(2, 0, 1), order="C")
        return self._slab

    def half_slab(self):
        """The half-slab path's structure, built once per tensor that stores all n^3 entries.

        Slices i go in groups of 8, the last padded with zeros; a group keeps
        K[k, i, j] for k <= j, its 8 slices' values side by side at position
        j (j + 1) / 2 + k.  The slices are symmetric bit for bit, so this is
        all of K in 32 ceil(n/8) n (n + 1) bytes.  Built in C from the values
        in storage order (mmatrix._half_slab's half_slab_build), at a 64-byte
        boundary.
        """
        if self._half is None:
            n = self.n
            if self._cols is not None:  # the C build reads all n^3 values
                raise ValueError("only a tensor that stores all n^3 entries has a half slab")
            size = -(-n // 8) * 8 * (n * (n + 1) // 2)
            buf = np.empty(size + 8)
            start = -buf.ctypes.data % 64 // 8
            H = buf[start : start + size]
            vals = np.ascontiguousarray(self.vals)  # held: the C build reads it
            mmatrix._half_slab.half_slab_build(vals.ctypes.data, n, H.ctypes.data)
            self._half = H
        return self._half

    def to_tensor3(self):
        return self

    def _symmetric(self, x):
        n = self.n
        if self._csr:
            return (self.sym_matrix() @ x).reshape(n, n)
        if n >= HALF_SLAB_MIN_N and self._cols is None and mmatrix._half_slab is not None:
            C = np.empty((n, n))
            x = np.ascontiguousarray(x)  # held: the C product reads it
            mmatrix._half_slab.half_slab_contract(self.half_slab().ctypes.data, n, x.ctypes.data,
                                                  C.ctypes.data)
            return C
        # not optimize=True, which may hand the sum to BLAS in another order
        return np.einsum("kij,k->ij", self.slab(), x)

    def _column_sums(self):
        """The unfolding's column sums, read-only, computed once per tensor.

        Each adds its column's entries in storage order, starting from 0.0:
        np.bincount does, and so does a sum over the rows of a full
        tensor's (n, n^2) values, which adds them row by row.
        """
        if self._colsum is None:
            if self._cols is None:
                sums = self.vals.reshape(self.n, -1).sum(axis=0, initial=0.0)
            else:
                sums = np.bincount(self._cols, weights=self.vals, minlength=self.n * self.n)
            sums.flags.writeable = False
            self._colsum = sums
        return self._colsum

    def __repr__(self):
        return f"Tensor3(n={self.n}, nnz={self.nnz})"


class PageRankTensor:
    """P_(1) = nu (S + v d_S^T) + (1 - nu) F kron 1^T, kept in factored form.

    S is a sparse Tensor3; dS is the n x n array of d_S, with dS[k, j] = 1
    exactly where unfolding column j + k*n of S is empty and 0 elsewhere; F
    is dense n x n, its entry (i, k) the first-order part of p_{ijk} for
    every j; nu is the mixing weight in [0, 1].  Products follow the order
    and bound in the module docstring: past SLAB_MAX_ENTRIES, with S on its
    CSR path, in one compiled pass, elsewhere as the numpy expression, with
    the same bytes.  to_tensor3() stores the entries, once per object.  The
    unfolding's column sums are computed once and kept, read-only, as a
    Tensor3 keeps its own, and so are the compiled pass's arguments.
    """

    __slots__ = ("n", "S", "v", "dS", "F", "nu", "_stored", "_colsum", "_factors")

    def __init__(self, S, v, dS, F, nu):
        self.n = S.n
        self.S, self.v, self.dS, self.F = S, v, dS, F
        self.nu = float(nu)
        self._stored = self._colsum = self._factors = None

    @property
    def nnz(self):
        """Entries stored across the factors (not the nonzeros of P_(1))."""
        return self.S.nnz + self.v.size + self.dS.size + self.F.size

    def unfolding(self):
        """A new dense n x n^2 unfolding, entry by entry as the formula reads:
        nu (S + v d_S^T) + (1 - nu) F kron 1^T, each entry
        fl(fl(fl(s + fl(v_i d)) nu) + fl((1 - nu) F_ik)).

        It is formed in one array, on its (i, k, j) view, in two passes and
        a third over S's stored entries.  Where S stores nothing, s = 0 and
        d is 0 or 1, so fl(fl(0 + v_i d) nu) = fl(v_i nu) d for a finite
        v >= 0, as build_pagerank_tensor checks it: the first pass writes
        that, the second adds the F term, and S's entries are then formed
        whole.
        """
        n, S = self.n, self.S
        U = np.empty((n, n, n))
        np.multiply((self.v * self.nu)[:, None, None], self.dS, out=U)
        U += ((1.0 - self.nu) * self.F)[:, :, None]
        rows, cols = S.rows, S.cols
        U.reshape(n, -1)[rows, cols] = ((S.vals + self.v[rows] * self.dS.ravel()[cols]) * self.nu
                                        + (1.0 - self.nu) * self.F[rows, cols // n])
        return U.reshape(n, n * n)

    def to_tensor3(self):
        if self._stored is None:
            self._stored = Tensor3.from_unfolding(self.unfolding())
        return self._stored

    def _compiled_factors(self):
        """The arguments of mmatrix._graph_product fixed per tensor: S's rows
        that have entries and their count, S's CSR arrays (row pointer,
        columns, values), v, F, nu and 1 - nu, the arrays by address; () where
        S does not take its CSR path with 32-bit indices.  Built once per
        tensor, with the arrays kept, so that every address outlives every
        call.
        """
        if self._factors is None:
            self._factors = ((), ())
            if self.S._csr:
                S = self.S.sym_matrix()
                if S.indptr.dtype == S.indices.dtype == np.int32:
                    rows = np.flatnonzero(S.indptr[1:] != S.indptr[:-1]).astype(np.int32)
                    held = (rows, S.indptr, S.indices, S.data,
                            np.ascontiguousarray(self.v, dtype=np.float64),
                            np.ascontiguousarray(self.F, dtype=np.float64))
                    rows, ptr, col, val, v, F = (a.ctypes.data for a in held)
                    self._factors = (rows, len(held[0]), ptr, col, val, v, F, self.nu,
                                     1.0 - self.nu), held
        return self._factors[0]

    def _symmetric(self, x):
        d = self.dS @ x + x @ self.dS
        f, sigma = self.F @ x, x.sum()
        product = mmatrix._graph_product
        factors = () if product is None else self._compiled_factors()
        if factors:
            address = mmatrix._address
            C = np.empty((self.n, self.n))
            x = np.ascontiguousarray(x)  # held: the C product reads it
            product(self.n, *factors, address(x), address(d), address(f), sigma, address(C))
            return C
        return (self.nu * (self.S._symmetric(x) + np.outer(self.v, d))
                + (1.0 - self.nu) * (f[:, None] + self.F * sigma))

    def _column_sums(self):
        """nu (S's column sums + d_S 1^T v) + (1 - nu) F's column sums, each
        repeated n times; read-only, computed once per tensor."""
        if self._colsum is None:
            sums = (self.nu * (self.S._column_sums() + self.dS.ravel() * self.v.sum())
                    + (1.0 - self.nu) * np.repeat(self.F.sum(axis=0), self.n))
            sums.flags.writeable = False
            self._colsum = sums
        return self._colsum


def contract_sym(B, x):
    """C = Bx: + B:x in one pass: C_{ij} = sum_k (b_{ijk} + b_{ikj}) x_k.

    A Tensor3 that stores all n^3 entries with n >= HALF_SLAB_MIN_N takes
    the compiled product over its half slab where mmatrix._half_slab runs
    it.  Any other full one, and any with n^3 <= SLAB_MAX_ENTRIES, takes one
    einsum over its slab; the rest take one CSR product S x with their
    n^2 x n slice matrix (Tensor3.sym_matrix).  All three sum in the order
    the module docstring states, with the same bits.  A PageRankTensor
    takes its factored product, compiled past SLAB_MAX_ENTRIES where S's
    product is a CSR product.  C is the Jacobian part of R_x = I - C, and
    Bx^2 = C x / 2.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (B.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({B.n},)")
    return B._symmetric(x)


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


def check_dense_fits(n, where, power=2):
    """Raise ValueError at `where` (FILE:LINE) if a dense float64 array of
    n**power entries needs more bytes than the machine's physical memory.

    A declared size is checked before anything of its size is allocated: a
    solve makes n x n float64 arrays (power 2), and a tensor that stores all
    n^3 entries is n^3 of them.  Where os.sysconf cannot tell the memory,
    nothing is checked.
    """
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    need = 8 * n ** power
    if need > memory:
        raise ValueError(f"{where}: n = {n} needs {need} bytes for a dense "
                         f"{' x '.join(['n'] * power)} float64 array, more than the "
                         f"{memory} bytes of physical memory")


def read_tensor_text(path, power=2):
    """Read the tensor text format: header ``n nnz`` then ``i j k value`` lines.

    n is checked first for a dense array of n**power entries, the largest
    the caller makes of the tensor (check_dense_fits)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            n, nnz = map(int, fh.readline().split())
        except ValueError:
            raise ValueError(f"{path}:1: expected header 'n nnz'") from None
        check_dense_fits(n, f"{path}:1", power)
        entries = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            try:
                i, j, k, value = parts
                i, j, k, value = int(i), int(j), int(k), float(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'i j k value'") from None
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
