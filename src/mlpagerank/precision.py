"""Compensated-pair (double-double) arithmetic and reference solutions.

A scalar is an unevaluated sum hi + lo of two binary64 values with
|lo| <= ulp(hi)/2, giving roughly 32 significant decimal digits.  The kernels
below are the classical error-free transformations (Dekker split, two-sum,
two-product); vector versions operate on numpy arrays elementwise.

This module stands in for variable-precision arithmetic: it provides the
reference solution that the rest of the package treats as ground truth
(residuals around 1e-28, far beyond binary64).  It has no Newton loop of its
own.  reference_solution hands the solvers' drivers a pair view of the
problem (_PairProblem: a, v, alpha, n, 1 - 2 alpha and contract, the latter
dd_contract_sym), and they run on DD arrays as they run on binary64 ones.
For the minimal solution of a PageRank problem they run Newton-GTH with its
z-recurrence, started from the binary64 Newton-GTH solution, or from zero
when the binary64 run or the seeded pair run fails; its iteration count is
of pair-arithmetic steps only.  Its GTH steps are the mmatrix kernel's fused
solve (gth_col_solve) run on DD arrays, which is why DD offers the few
numpy-style methods that the kernel and the drivers use: .sum(axis=0),
.max(), .T, .transpose(), .reshape(), abs(), float(), += into a view, @
between vectors and matrices, and the kernel's leaf back-substitution,
gth_substitute.

Two sums serve them.  DD.sum of a vector, every GTH pivot among them, is
exactly rounded: math.fsum of its 2m parts, then of the rest.  dd_sum, the
pairwise fold batched over columns, gives the sums along the first axis of
a matrix, each entry of @ and the segment sums of the sparse product.  In
pair arithmetic the elimination update rounds as (a / d) b, the order
binary64 keeps, and gth_substitute (mmatrix._back_substitute) multiplies
by the pivot reciprocals from one vectorised division and sweeps by
columns, so a pair solve of n unknowns makes n pair divisions.

Both sums, the leaf and the reference's n^3 work run compiled where
mmatrix's C library loads, with the same bits: a leaf solve is one call of
dd_gth_solve, whose pivots are math.fsum's exactly rounded sums, dd_sum's
fold is dd_fold, and the segment sums are dd_fold_runs.  The pair products
are mmatrix._pair_products: dd_slab_build builds the renormalized slab in
one pass (dd_slab), dd_contract forms and folds the products of a slab or a
matrix with a vector (dd_contract_slab, @ with a vector), 8 entries a lane,
and dd_contract_runs those of S (dd_contract_sym).  Each has a baseline and
an AVX-512F entry, one C body with every pair helper inlined, chosen once at
import.  dd_mul is not commutative bit for bit (_two_prod adds ahi blo
before alo bhi), so each keeps the numpy expression's operand order.  The
Python loops and numpy expressions here and in mmatrix are their
specification and the fallback without a compiler; @ between matrices
forms its products with numpy.

Each reference step makes one tensor product: the contraction of the step h
on the Newton-GTH path, which updates C = Bx: + B:x and gives the next
residual Bh^2 = G h / 2, and the contraction of the iterate for plain
Newton, whose C gives both R_x = I - C and the residual's Bx^2 = C x / 2.
There are two product paths, chosen as Tensor3 chooses its own.  A tensor
that stores all n^3 entries contracts through the pair slab
K[k, i, j] = b_ijk + b_ikj, built once (dd_slab): one dd_sum over k, n terms
per entry (dd_contract_slab).  Any other contracts through the slice matrix
S of Tensor3's sparse path in pairs, built once from S's pattern
(dd_sym_matrix): one dd_sum per row of S, its terms S_{i*n+j, k} x_k with k
ascending (dd_contract_sym).  On a tensor that stores all n^3 entries the
two give the same bits: S then holds every K[k, i, j], and each entry folds
the same n terms.  A PageRank problem is renormalized first by one pair
reciprocal alpha / colsum per unfolding column, which multiplies every entry
of that column; for a tensor that stores all n^3 entries dd_slab does it in
the same pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, getcontext
from functools import partial

import numpy as np

from . import mmatrix
from .mmatrix import SingularPivotError, _address, _back_substitute

MINIMAL = "minimal"
STOCHASTIC = "stochastic"

# A reference run stops once the driver's pair-precision residual is this
# small in the max norm, or after this many steps.
REFERENCE_TOL = 1e-28
REFERENCE_MAXIT = 200

_SPLITTER = 134217729.0  # 2^27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _split(a):
    c = _SPLITTER * a
    big = c - a
    hi = c - big
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_add(h1, l1, h2, l2):
    s, e = _two_sum(h1, h2)
    t, f = _two_sum(l1, l2)
    e = e + t
    s, e = _quick_two_sum(s, e)
    e = e + f
    return _quick_two_sum(s, e)


def _dd_mul(h1, l1, h2, l2):
    p, e = _two_prod(h1, h2)
    e = e + (h1 * l2 + l1 * h2)
    return _quick_two_sum(p, e)


def _dd_div(h1, l1, h2, l2):
    q1 = h1 / h2
    rh, rl = _dd_add(h1, l1, *_dd_mul(q1, 0.0 * q1, -h2, -l2))
    q2 = rh / h2
    rh, rl = _dd_add(rh, rl, *_dd_mul(q2, 0.0 * q2, -h2, -l2))
    q3 = rh / h2
    qh, ql = _quick_two_sum(q1, q2)
    return _dd_add(qh, ql, q3, 0.0 * q3)


class DD:
    """Array of compensated pairs; shape follows the hi component.

    DD never mixes silently with ndarrays: an operator with an ndarray on
    either side gives a DD (__array_ufunc__ = None makes numpy defer to it),
    and converting a DD to an ndarray raises TypeError, so no binary64
    routine rounds a pair array it is handed without a word.
    """

    __slots__ = ("hi", "lo")
    __array_ufunc__ = None

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=np.float64)
        self.lo = (
            np.zeros_like(self.hi)
            if lo is None
            else np.asarray(lo, dtype=np.float64)
        )

    @classmethod
    def zeros(cls, shape):
        return cls(np.zeros(shape))

    @staticmethod
    def _coerce(other):
        if isinstance(other, DD):
            return other
        return DD(np.asarray(other, dtype=np.float64))

    def __array__(self, dtype=None, copy=None):
        raise TypeError("a DD pair array does not convert to an ndarray; "
                        "use .to_float() to round it")

    @property
    def shape(self):
        return self.hi.shape

    def __len__(self):
        return len(self.hi)

    def copy(self):
        return DD(self.hi.copy(), self.lo.copy())

    def __getitem__(self, idx):
        return DD(self.hi[idx], self.lo[idx])

    def __setitem__(self, idx, value):
        value = self._coerce(value)
        self.hi[idx] = value.hi
        self.lo[idx] = value.lo

    def __add__(self, other):
        other = self._coerce(other)
        return DD(*_dd_add(self.hi, self.lo, other.hi, other.lo))

    __radd__ = __add__

    def __iadd__(self, other):
        """In place, as for an ndarray: a view adds into the array it views."""
        self[...] = self + other
        return self

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __sub__(self, other):
        other = self._coerce(other)
        return DD(*_dd_add(self.hi, self.lo, -other.hi, -other.lo))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        return DD(*_dd_mul(self.hi, self.lo, other.hi, other.lo))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return DD(*_dd_div(self.hi, self.lo, other.hi, other.lo))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def abs(self):
        neg = (self.hi < 0.0) | ((self.hi == 0.0) & (self.lo < 0.0))
        sign = np.where(neg, -1.0, 1.0)
        return DD(self.hi * sign, self.lo * sign)

    __abs__ = abs

    def max(self):
        """The largest pair, as a 0-d DD: the largest hi, then the largest lo."""
        i = np.lexsort((self.lo.ravel(), self.hi.ravel()))[-1]
        return DD(self.hi.ravel()[i], self.lo.ravel()[i])

    def to_float(self):
        return self.hi + self.lo

    def __float__(self):
        """The value of a one-element pair array, rounded to a Python float."""
        return float(self.hi + self.lo)

    def transpose(self, *axes):
        """A view with its axes permuted, as ndarray.transpose."""
        return DD(self.hi.transpose(*axes), self.lo.transpose(*axes))

    T = property(transpose, doc="The transpose, a view sharing this array's storage.")

    def reshape(self, *shape):
        return DD(self.hi.reshape(*shape), self.lo.reshape(*shape))

    def sum(self, axis=0):
        """The sum along the first axis, the only axis offered.

        A vector's sum is exactly rounded: hi is its 2m parts added exactly
        and rounded once (math.fsum, Shewchuk, DCG 18, 1997), lo the rest,
        rounded the same way, as in dd_residual.  Along the first axis of a
        matrix it is dd_sum, the pairwise fold batched over the columns.
        """
        if axis != 0:
            raise ValueError("DD.sum folds along axis 0 only")
        if self.hi.ndim != 1:
            return dd_sum(self)
        parts = self.hi.tolist() + self.lo.tolist()
        hi = math.fsum(parts)
        return DD(hi, math.fsum(parts + [-hi]))

    def __matmul__(self, other):
        """Vectors and matrices: each entry a dd_sum of its products in order.

        A product with a vector folds dd_mul(self[..., r], other[r]), the left
        side first (_fold_products); the others form their products with numpy.
        """
        lhs = self.T if len(self.shape) == 2 else self  # contracted axis first
        if len(other.shape) == 1:
            return _fold_products(lhs, self._coerce(other))
        lhs_shape = lhs.shape + (1,) * (len(other.shape) - 1)
        rhs_shape = other.shape[:1] + (1,) * (len(lhs.shape) - 1) + other.shape[1:]
        return dd_sum(lhs.reshape(lhs_shape) * other.reshape(rhs_shape))

    # the solve of solvers.newton in pairs, looked up when called
    lu_solve = staticmethod(lambda A, b: dd_lu_solve(A, b))
    # the back-substitution of mmatrix's GTH leaf in pairs: a column sweep
    gth_substitute = staticmethod(_back_substitute)

    def __repr__(self):
        return f"DD(hi={self.hi!r}, lo={self.lo!r})"


def _contiguous(a):
    """The DD a with C-contiguous parts: a itself, or a copy."""
    return DD(np.ascontiguousarray(a.hi), np.ascontiguousarray(a.lo))


def dd_sum(v):
    """Pairwise-fold sum of a DD array along its first axis (deterministic
    order).

    The fold runs compiled (dd_fold of mmatrix._pair_kernels) with the same
    bits; the loop below is its specification and the fallback.
    """
    m = len(v.hi)
    if m == 0:
        return DD(0.0)
    kernels = mmatrix._pair_kernels
    if kernels is not None:
        v = _contiguous(v)
        rest = v.shape[1:]
        size = math.prod(rest)
        # the result's two parts, then room for one fold's terms
        buf = np.empty(2 * size + 2 * m)
        at = _address(buf)
        kernels.dd_fold(m, size, _address(v.hi), _address(v.lo),
                        at, at + 8 * size, at + 16 * size)
        return DD(buf[:size].reshape(rest), buf[size : 2 * size].reshape(rest))
    hi, lo = v.hi.copy(), v.lo.copy()
    while m > 1:
        half = m // 2
        h, l = _dd_add(hi[:half], lo[:half], hi[half : 2 * half], lo[half : 2 * half])
        if m % 2:
            h0, l0 = _dd_add(h[:1], l[:1], hi[m - 1 : m], lo[m - 1 : m])
            h[:1], l[:1] = h0, l0
        hi, lo = h, l
        m = half
    return DD(hi[0], lo[0])


def dd_to_decimal_strings(v, digits=34):
    """Exact-decimal rendering of a DD vector, rounded to `digits` digits."""
    ctx_prec = getcontext().prec
    getcontext().prec = digits
    try:
        out = [str(+(Decimal(float(h)) + Decimal(float(l)))) for h, l in zip(v.hi, v.lo)]
    finally:
        getcontext().prec = ctx_prec
    return out


def dd_lu_solve(A, b):
    """Dense partial-pivoting LU solve in pair arithmetic."""
    A = A.copy() if isinstance(A, DD) else DD(np.array(A, dtype=np.float64))
    x = b.copy() if isinstance(b, DD) else DD(np.array(b, dtype=np.float64))
    n = A.shape[0]
    for k in range(n):
        col = A[k:, k].abs()
        p = k + int(np.argmax(col.hi + col.lo))
        if (A.hi[p, k] + A.lo[p, k]) == 0.0:
            raise SingularPivotError(f"singular matrix at column {k + 1}")
        if p != k:
            A.hi[[k, p]], A.lo[[k, p]] = A.hi[[p, k]].copy(), A.lo[[p, k]].copy()
            x.hi[[k, p]], x.lo[[k, p]] = x.hi[[p, k]].copy(), x.lo[[p, k]].copy()
        # one rank-1 update of the rows below the pivot
        m = A[k + 1 :, k] / A[k, k]
        A[k + 1 :, k + 1 :] = A[k + 1 :, k + 1 :] - m[:, None] * A[k, k + 1 :]
        x[k + 1 :] = x[k + 1 :] - m * x[k]
    out = DD.zeros(n)
    for k in range(n - 1, -1, -1):
        acc = x[k]
        if k < n - 1:
            acc = acc - A[k, k + 1 :] @ out[k + 1 :]
        out[k] = acc / A[k, k]
    return out


# ---------------------------------------------------------------------------
# Tensor products in pair arithmetic
# ---------------------------------------------------------------------------


def dd_residual(problem, x):
    """a + Bx^2 - x as pairs whose hi part is the correctly rounded value.

    Two-products (Ogita, Rump and Oishi, SISC 2005) split every b_ijk x_j x_k
    into four binary64 terms without error; math.fsum adds each component's
    terms, a_i and -x_i exactly and rounds once, and lo is the remainder
    rounded the same way.  Exact up to those roundings barring underflow in
    the products.  Chained pair arithmetic would not do: its absolute error,
    about 2^-104 times the sum of the terms' magnitudes, exceeds half an ulp
    of the result once the residual falls below about 2^-50.

    On a PageRank problem B's stored entries are fl(alpha p), taken from P's
    stored entries here; B is not kept.
    """
    pagerank = problem.p_tensor is not None
    B = (problem.p_tensor if pagerank else problem.tensor).to_tensor3()
    vals = B.vals * problem.alpha if pagerank else B.vals
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (B.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({B.n},)")
    if B.nnz == B.n ** 3:  # storage runs by (i, k, j): x_j and x_k broadcast
        vals, xj, xk = vals.reshape((B.n,) * 3), x, x[:, None]
    else:
        xj, xk = x[B.cols % B.n], x[B.cols // B.n]
    p, e = _two_prod(vals, xj)
    parts = np.stack(_two_prod(p, xk) + _two_prod(e, xk)).reshape(4, -1)
    hi = np.empty(B.n)
    lo = np.empty(B.n)
    for i in range(B.n):
        terms = [problem.a[i], -x[i]]
        terms += parts[:, B.row_ptr[i]:B.row_ptr[i + 1]].ravel().tolist()
        hi[i] = math.fsum(terms)
        lo[i] = math.fsum(terms + [-hi[i]])
    return DD(hi, lo)


def _dd_column_sums(P):
    """Pair-precision sums of the unfolding columns of a Tensor3."""
    order = np.argsort(P.cols, kind="stable")
    bounds = np.searchsorted(P.cols[order], np.arange(P.n * P.n + 1))
    return _dd_segment_sums(DD(P.vals[order]), bounds)


def _dd_segment_sums(weights, bounds):
    """Sum DD weights in runs: run s is weights[bounds[s]:bounds[s + 1]].

    bounds ascend from 0.  Each run's sum is dd_sum of it, bit for bit, 0
    for an empty run.  The runs fold compiled (mmatrix._pair_kernels'
    dd_fold_runs); the Python path gathers the runs of one length as the
    columns of a (length x runs) matrix, which dd_sum folds along its first
    axis for all of them at once.
    """
    bounds = np.ascontiguousarray(bounds, dtype=np.int64)  # held: the C fold reads it
    runs = len(bounds) - 1
    kernels = mmatrix._pair_kernels
    # a bound past the weights is left to the Python path, which raises
    if kernels is not None and bounds.min() >= 0 and bounds.max() <= len(weights):
        v = _contiguous(weights)
        # the sums' two parts, then room for the longest run's terms
        buf = np.empty(2 * runs + 2 * int((bounds[1:] - bounds[:-1]).max(initial=0)))
        at = _address(buf)
        kernels.dd_fold_runs(runs, _address(bounds), _address(v.hi), _address(v.lo),
                             at, at + 8 * runs, at + 16 * runs)
        return DD(buf[:runs], buf[runs : 2 * runs])
    starts, lengths = bounds[:-1], np.diff(bounds)
    out = DD.zeros(runs)
    for m in np.unique(lengths[lengths > 0]):
        buckets = np.flatnonzero(lengths == m)
        out[buckets] = dd_sum(weights[np.arange(m)[:, None] + starts[buckets]])
    return out


def dd_sym_matrix(B, vals):
    """S = Tensor3.sym_matrix() in pairs, as (data, indices, row_ptr).

    vals are B's values as pairs, in storage order.  An entry of S is the
    pair sum of its one or two stored values (B._sym_pattern), the same in
    either order.  A reference builds it once, from its renormalized values.
    """
    source, bounds, indices, row_ptr = B._sym_pattern()
    return _dd_segment_sums(vals[source], bounds), indices, row_ptr


def dd_contract_sym(S, x):
    """C = Bx: + B:x in pair arithmetic, C_{ij} = sum_k (b_{ijk} + b_{ikj}) x_k.

    S = dd_sym_matrix(B, vals).  Entry (i, j) is one dd_sum of the terms of
    row i*n + j of S, S_{i*n+j, k} x_k with k ascending.  The products and
    their folds run compiled (dd_contract_runs of mmatrix._pair_products)
    with the same bits; the expression below is their specification and the
    fallback, and takes an S the kernel refuses (a row of more than n
    entries, a column index past n, a row pointer out of order).
    """
    data, indices, row_ptr = S
    kernels = mmatrix._pair_products
    n = len(x)
    if kernels is not None and indices.dtype == row_ptr.dtype == np.int64 and n:
        data, x = _contiguous(data), _contiguous(x)
        indices, row_ptr = np.ascontiguousarray(indices), np.ascontiguousarray(row_ptr)
        runs = len(row_ptr) - 1
        # the sums' two parts, then room for the terms of a row of S
        buf = np.empty(2 * runs + 16 * n)
        at = _address(buf)
        if not kernels.dd_contract_runs(runs, _address(row_ptr), len(data.hi), _address(data.hi),
                                        _address(data.lo), _address(indices), n,
                                        _address(x.hi), _address(x.lo),
                                        at, at + 8 * runs, at + 16 * runs, n):
            return DD(buf[:runs].reshape(n, -1), buf[runs : 2 * runs].reshape(n, -1))
    return _dd_segment_sums(data * x[indices], row_ptr).reshape(n, -1)


def dd_slab(vals, n, alpha=None):
    """K[k, i, j] = b_ijk + b_ikj in pairs, for a tensor that stores all n^3
    entries: vals, in storage order, are A[i, k, j] = b_ijk (Tensor3.slab).

    With alpha, a 0-d DD, vals are a PageRank tensor's p_ijk, renormalized
    first: b_ijk = p_ijk (alpha / s), s the dd_sum of p's unfolding column
    (k, j), the fold over i.  The pass runs compiled (dd_slab_build of
    mmatrix._pair_products) with the same bits; the expressions below are
    its specification and the fallback.
    """
    kernels = mmatrix._pair_products
    size = n ** 3
    if kernels is not None and vals.shape == (size,) and n:
        v = _contiguous(vals)
        a = None if alpha is None else np.array([alpha.hi, alpha.lo])
        K = np.empty(2 * size)
        work = np.empty(6 * n * n + 16 * n)
        at = _address(K)
        kernels.dd_slab_build(n, _address(v.hi), _address(v.lo),
                              None if a is None else _address(a),
                              at, at + 8 * size, _address(work))
        return DD(K[:size].reshape(n, n, n), K[size:].reshape(n, n, n))
    if alpha is not None:
        U = vals.reshape(n, -1)
        vals = U * (alpha / dd_sum(U))
    A = vals.reshape(n, n, n)
    return A.transpose(1, 0, 2) + A.transpose(2, 0, 1)


def dd_contract_slab(K, x):
    """dd_contract_sym through the slab K = dd_slab(...): C_ij = sum_k K_kij x_k,
    one dd_sum over k, so n terms per entry where the sparse path sums 2n."""
    return _fold_products(K, x)


def _fold_products(K, x):
    """dd_sum(K * x), x broadcast along K's first axis: each entry the fold
    over r of dd_mul(K[r, ...], x[r]), K's part the first operand.

    The products and the fold run compiled (dd_contract of
    mmatrix._pair_products), 8 entries a lane, with the same bits; the
    expression is their specification and the fallback, which also raises
    where K's first axis is not x's length.
    """
    kernels = mmatrix._pair_products
    m = len(x.hi)
    if kernels is not None and m and K.shape[:1] == (m,):
        K, x = _contiguous(K), _contiguous(x)
        rest = K.shape[1:]
        size = math.prod(rest)
        # the result's two parts, then room for one lane group's products
        buf = np.empty(2 * size + 16 * m)
        at = _address(buf)
        kernels.dd_contract(m, size, _address(K.hi), _address(K.lo), _address(x.hi),
                            _address(x.lo), at, at + 8 * size, at + 16 * size)
        return DD(buf[:size].reshape(rest), buf[size : 2 * size].reshape(rest))
    return dd_sum(K * x.reshape(x.shape + (1,) * (len(K.shape) - 1)))


# ---------------------------------------------------------------------------
# Reference solutions
# ---------------------------------------------------------------------------


class _PairProblem:
    """A problem in pairs, as the solvers' drivers read it.

    It has a, v, alpha, n, one_minus_two_alpha and contract(x), the pair
    C = Bx: + B:x.  A tensor that stores all n^3 entries, by Tensor3's rule
    for its slab path, contracts through a pair slab built once
    (dd_contract_slab); any other through S in pairs, built once
    (dd_contract_sym).  A PageRank problem is renormalized in pairs (see
    reference_solution): each entry times its column's alpha / colsum, one
    pair reciprocal per unfolding column, the sums of a full tensor one fold
    over i, in the pass that builds its slab (dd_slab).  Its 1 - 2 alpha,
    exact in pairs for a binary64 alpha, comes from alpha: the reference is
    defined by alpha, not by Problem.one_minus_two_alpha.
    """

    def __init__(self, problem):
        self.n, self.alpha = problem.n, problem.alpha
        self.v = self.one_minus_two_alpha = None
        B = (problem.p_tensor if problem.is_pagerank else problem.tensor).to_tensor3()
        full = B.nnz == B.n ** 3
        vals, alpha = DD(B.vals), None
        if problem.is_pagerank:
            alpha = DD(problem.alpha)
            self.v = DD(problem.v) / dd_sum(DD(problem.v))
            self.a = (DD(1.0) - alpha) * self.v
            self.one_minus_two_alpha = DD(1.0) - 2.0 * alpha
        else:
            self.a = DD(problem.a)
        if full:  # dd_slab renormalizes a PageRank tensor's values itself
            K = dd_slab(vals, B.n, alpha)
            self.contract = lambda x: dd_contract_slab(K, x)
        else:
            if alpha is not None:
                vals = vals * (alpha / _dd_column_sums(B))[B.cols]
            S = dd_sym_matrix(B, vals)
            self.contract = lambda x: dd_contract_sym(S, x)


@dataclass
class ReferenceSolution:
    x_pair: DD
    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    mode: str

    def decimal_strings(self, digits=34):
        return dd_to_decimal_strings(self.x_pair, digits)


def reference_solution(problem, mode=MINIMAL):
    """Newton in pair arithmetic, the stand-in for an exact solution.

    The solvers' own drivers run on the problem in pairs (_PairProblem), to
    residual REFERENCE_TOL or REFERENCE_MAXIT steps.  The MINIMAL reference
    of a PageRank problem is Newton-GTH (solvers._gth_block_jacobi): GTH
    solves of the column triplet and the z-recurrence, subtraction-free.
    STOCHASTIC starts solvers.newton from v, and the general MINIMAL
    reference starts it from zero; its steps are dense partial-pivoting LU
    solves in pairs (dd_lu_solve).

    On a PageRank problem MINIMAL starts from the binary64 Newton-GTH solution
    (mixed-precision refinement: the start only sets the number of DD steps),
    with one pair contraction for its residual and C and z_0 = 1 - 2 alpha
    1^T x_0.  It starts from zero instead when that binary64 run or the seeded
    pair run does not end TOL_REACHED, as when the seed lies past the
    singular root and z_0 <= 0 ends it SINGULAR_PIVOT.  `iterations` counts
    the pair steps of the run that produced x_pair; the binary64 seed run is
    not counted.  `residual_norm` is that run's last residual in the max
    norm: on the MINIMAL path the carried one, r_{k+1} = Bh^2 (1.3e-46 for
    ex1 at alpha = 0.49999), elsewhere a + Bx^2 - x evaluated in pairs.

    A PageRank problem's data is renormalized in pair precision first
    (1^T v = 1 and unit column sums to ~1e-32: each entry times its column's
    pair reciprocal alpha / colsum), which matches how variable-precision
    references treat the inputs.  Binary64 data is stochastic only to one
    ulp, and near alpha = 1/2 the solution responds to a sum defect delta
    like sqrt(delta): the as-stored float problem can sit ~1e-8 away from
    the mathematical one, or lose its solution entirely.

    A tensor that stores all n^3 entries contracts through a pair slab, any
    other through its slice matrix S in pairs (see _PairProblem).  The GTH
    solves take exactly rounded pivots and substitute by the pivots'
    reciprocals (mmatrix._back_substitute).
    """
    if mode not in (MINIMAL, STOCHASTIC):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == STOCHASTIC and not problem.is_pagerank:
        raise ValueError("stochastic mode needs a PageRank problem")
    from . import solvers  # solvers imports this module

    pairs = _PairProblem(problem)
    opts = partial(solvers.SolverOptions, tol=REFERENCE_TOL, maxit=REFERENCE_MAXIT)
    done = solvers.Termination.TOL_REACHED
    if mode == STOCHASTIC or not problem.is_pagerank:
        start = solvers.Start.V if mode == STOCHASTIC else solvers.Start.ZERO
        rep = solvers.newton(pairs, opts(start=start))
    else:
        def pair_newton_gth(opts):
            return solvers._gth_block_jacobi(pairs, opts, solvers.Method.NEWTON_GTH, None)

        rep = solvers.newton_gth(problem, solvers.SolverOptions())
        if rep.termination is done:
            rep = pair_newton_gth(opts(start=solvers.Start.CUSTOM, x0=rep.x))
        if rep.termination is not done:
            rep = pair_newton_gth(opts())
    return ReferenceSolution(
        x_pair=rep.x,
        x=rep.x.to_float(),
        residual_norm=rep.final_residual,
        iterations=rep.iterations,
        converged=rep.termination is done,
        mode=mode,
    )
