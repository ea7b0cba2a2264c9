"""Compensated-pair (double-double) arithmetic and reference solutions.

A scalar is an unevaluated sum hi + lo of two binary64 values with
|lo| <= ulp(hi)/2, giving roughly 32 significant decimal digits.  The kernels
below are the classical error-free transformations (Dekker split, two-sum,
two-product); vector versions operate on numpy arrays elementwise.

This module stands in for variable-precision arithmetic: it provides the
Newton reference solver that the rest of the package treats as ground truth
(residuals around 1e-28, far beyond binary64).  For the minimal solution of a
PageRank problem that Newton starts from the binary64 Newton-GTH solution,
and from zero when the binary64 run or the seeded pair run fails; its
iteration count is of pair-arithmetic steps only.  Its GTH steps are the
mmatrix kernel's fused solve (gth_col_solve) run on DD arrays, which is why
DD offers the few numpy-style methods that kernel uses: .sum(axis=0),
.item(), .T, and @ between vectors and matrices, each entry of a product a
dd_sum of its terms.  In pair arithmetic the elimination update rounds as
(a b) / d, the order binary64 keeps.  Each reference step makes one tensor
product, dd_contract_sym, whose C = Bx: + B:x gives both the step's matrix
R_x = I - C and the next residual's Bx^2 = C x / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, getcontext

import numpy as np

from .mmatrix import SingularPivotError, gth_col_solve

MINIMAL = "minimal"
STOCHASTIC = "stochastic"

# The reference Newton stops once its pair-precision residual is this small
# in the max norm, or after this many steps.
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
    """Array of compensated pairs; shape follows the hi component."""

    __slots__ = ("hi", "lo")

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

    def to_float(self):
        return self.hi + self.lo

    def item(self):
        """The value of a one-element pair array, rounded to a Python float."""
        return float(self.hi + self.lo)

    @property
    def T(self):
        """The transpose, a view sharing this array's storage."""
        return DD(self.hi.T, self.lo.T)

    def sum(self, axis=0):
        """dd_sum along the first axis, the only axis offered."""
        if axis != 0:
            raise ValueError("DD.sum folds along axis 0 only")
        return dd_sum(self)

    def __matmul__(self, other):
        """Vectors and matrices: each entry a dd_sum of its products in order."""
        lhs = self.T if len(self.shape) == 2 else self  # contracted axis first
        lhs_shape = lhs.shape + (1,) * (len(other.shape) - 1)
        rhs_shape = other.shape[:1] + (1,) * (len(lhs.shape) - 1) + other.shape[1:]
        return dd_sum(DD(lhs.hi.reshape(lhs_shape), lhs.lo.reshape(lhs_shape))
                      * DD(other.hi.reshape(rhs_shape), other.lo.reshape(rhs_shape)))

    def max_abs(self):
        a = self.abs()
        return float(np.max(a.hi + a.lo)) if a.hi.size else 0.0

    def __repr__(self):
        return f"DD(hi={self.hi!r}, lo={self.lo!r})"


def dd_sum(v):
    """Pairwise-fold sum of a DD array along its first axis (deterministic order)."""
    hi, lo = v.hi.copy(), v.lo.copy()
    m = len(hi)
    if m == 0:
        return DD(0.0)
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
    """
    B = problem.tensor.to_tensor3()
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (B.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({B.n},)")
    p, e = _two_prod(B.vals, x[B.cols % B.n])
    xk = x[B.cols // B.n]
    parts = np.stack(_two_prod(p, xk) + _two_prod(e, xk))
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
    return _dd_segment_sums(DD(P.vals[order]), P.cols[order], P.n * P.n)


def _dd_segment_sums(weights, keys, n_keys):
    """Sum DD weights into n_keys buckets; keys must be sorted ascending.

    Each bucket's sum is dd_sum of its run, bit for bit: the runs of one
    length are gathered as the columns of a (length x buckets) matrix, which
    dd_sum folds along its first axis for all of them at once.
    """
    bounds = np.searchsorted(keys, np.arange(n_keys + 1))
    starts, lengths = bounds[:-1], np.diff(bounds)
    out = DD.zeros(n_keys)
    for m in np.unique(lengths[lengths > 0]):
        buckets = np.flatnonzero(lengths == m)
        out[buckets] = dd_sum(weights[np.arange(m)[:, None] + starts[buckets]])
    return out


def dd_sym_terms(B):
    """The 2 nnz terms of dd_contract_sym, in the order it sums them.

    Returns (entry, index, key): term t is vals[entry[t]] x[index[t]], and
    adds into entry key[t] = i*n + l of the flattened n x n result.  Each
    stored b_ijk gives b_ijk x_j at (i, k) and b_ijk x_k at (i, j); the terms
    are stably sorted by key.  This depends on B's pattern only, so a solve
    builds it once.
    """
    n = B.n
    k, j = np.divmod(B.cols, n)
    key = np.concatenate((B.rows * n + k, B.rows * n + j))
    order = np.argsort(key, kind="stable")
    return order % B.nnz, np.concatenate((j, k))[order], key[order]


def dd_contract_sym(B, x, vals, terms):
    """C = Bx: + B:x in pair arithmetic, C_{il} = sum_j (b_{ijl} + b_{ilj}) x_j.

    vals are B's values as pairs and terms = dd_sym_terms(B).  Each entry is
    one dd_sum of its terms in the order of `terms`.
    """
    entry, index, key = terms
    flat = _dd_segment_sums(vals[entry] * x[index], key, B.n * B.n)
    return DD(flat.hi.reshape(B.n, B.n), flat.lo.reshape(B.n, B.n))


# ---------------------------------------------------------------------------
# Reference Newton solver
# ---------------------------------------------------------------------------


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

    MINIMAL solves each step with the fused GTH solve of the column triplet
    in pair arithmetic (subtraction-free); STOCHASTIC starts from v and uses
    an extended partial-pivoting LU.  Residuals are evaluated directly in
    pair arithmetic, so the iteration is self-correcting down to ~1e-30; it
    stops at residual REFERENCE_TOL or after REFERENCE_MAXIT steps.

    On a PageRank problem MINIMAL starts from the binary64 Newton-GTH solution
    (mixed-precision refinement: the start only sets the number of DD steps).
    It starts from zero instead when that binary64 run does not end
    TOL_REACHED, or when the seeded DD run raises SingularPivotError or
    ArithmeticError or ends unconverged.  The general (non-PageRank) MINIMAL
    reference always starts from zero.  `iterations` counts the DD Newton steps
    of the run that produced x_pair; the binary64 seed run is not counted.

    A PageRank problem's data is renormalized in pair precision first
    (1^T v = 1 and unit column sums to ~1e-32), which matches how
    variable-precision references treat the inputs.  Binary64 data is
    stochastic only to one ulp, and near alpha = 1/2 the solution responds to
    a sum defect delta like sqrt(delta): the as-stored float problem can sit
    ~1e-8 away from the mathematical one, or lose its solution entirely.
    """
    if mode not in (MINIMAL, STOCHASTIC):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == STOCHASTIC and not problem.is_pagerank:
        raise ValueError("stochastic mode needs a PageRank problem")
    n = problem.n
    a_dd = DD(problem.a)
    if problem.is_pagerank:
        alpha_dd = DD(problem.alpha)
        v0 = DD(problem.v) / dd_sum(DD(problem.v))
        a_dd = (DD(1.0) - alpha_dd) * v0
        B = problem.p_tensor.to_tensor3()  # structure only; values come from vals_dd
        vals_dd = DD(B.vals) * alpha_dd / _dd_column_sums(B)[B.cols]
    else:
        B = problem.tensor.to_tensor3()
        vals_dd = DD(B.vals)
    terms = dd_sym_terms(B)
    gth = mode == MINIMAL and problem.is_pagerank

    def resid(xx):
        """(a + Bx^2 - x, C) from one contraction C = Bx: + B:x, Bx^2 = C x / 2."""
        C = dd_contract_sym(B, xx, vals_dd, terms)
        return a_dd + 0.5 * (C @ xx) - xx, C

    def newton(x):
        r, C = resid(x)
        iterations = 0
        while r.abs().max_abs() > REFERENCE_TOL and iterations < REFERENCE_MAXIT:
            if gth:
                # the column triplet of R_x: offdiag(C) (GTH ignores the
                # diagonal) and column sums z = 1 - 2 alpha 1^T x, in pairs
                z = 1.0 - (2.0 * problem.alpha) * x.sum()
                if z.item() <= 0.0:
                    raise SingularPivotError("nonpositive column sums in reference run")
                sums = DD(np.full(n, z.hi), np.full(n, z.lo))
                h = gth_col_solve(C, sums, r)
            else:
                R = DD(np.eye(n)) - C
                h = dd_lu_solve(R, r)
            x = x + h
            r, C = resid(x)
            iterations += 1
            if np.abs(x.hi).max() > 1e6:
                raise ArithmeticError("reference iteration diverged")
        res = r.abs().max_abs()
        return ReferenceSolution(
            x_pair=x,
            x=x.to_float(),
            residual_norm=res,
            iterations=iterations,
            converged=bool(res <= REFERENCE_TOL),
            mode=mode,
        )

    if gth:
        from . import solvers  # solvers imports this module

        seed = solvers.newton_gth(problem, solvers.SolverOptions())
        if seed.termination is solvers.Termination.TOL_REACHED:
            try:
                ref = newton(DD(seed.x))
            except (SingularPivotError, ArithmeticError):
                pass
            else:
                if ref.converged:
                    return ref
    return newton(v0.copy() if mode == STOCHASTIC else DD.zeros(n))
