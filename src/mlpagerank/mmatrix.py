"""Triplet representations of M-matrices, GTH elimination, and partial inverses.

An M-matrix M never enters these routines directly.  It is passed as a
*triplet*: the nonnegative off-diagonal magnitudes N (N_ij = -M_ij, zero
diagonal) together with a nonnegative sum vector, either row sums (M 1 = sums)
or column sums (1^T M = sums^T).  The implied diagonal is reconstructed from
nonnegative additions only, which is what makes the factorization accurate
componentwise regardless of how close M is to singularity.

The GTH kernel is written once and runs unchanged on float64 ndarrays and
on precision.DD pair arrays: gth_eliminate (the one elimination), gth_solve
(the one substitution) and gth_partial_inverse, whose null profile comes
from the same elimination.  The binary64 routines that take a TripletMMatrix
validate it and call the kernel; the pair-precision reference and omega
call it on DD data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

ROW = "row"
COL = "col"


class ReducibleMatrixError(ValueError):
    """Off-diagonal sparsity pattern is not strongly connected."""


class SingularPivotError(ArithmeticError):
    """A pivot vanished during elimination."""


@dataclass(frozen=True)
class TripletMMatrix:
    """(offdiag, sums, orientation) encoding of an M-matrix.

    offdiag is the nonnegative matrix of negated off-diagonal entries with a
    zero diagonal; sums holds row sums (orientation=ROW) or column sums
    (orientation=COL).  The diagonal M_ii = sums_i + sum of the other entries
    in row/column i is never materialized by subtraction.
    """

    offdiag: np.ndarray
    sums: np.ndarray
    orientation: str = ROW

    def __post_init__(self):
        off = np.asarray(self.offdiag, dtype=np.float64)
        sums = np.asarray(self.sums, dtype=np.float64)
        n = off.shape[0]
        if off.shape != (n, n):
            raise ValueError("offdiag must be square")
        if sums.shape != (n,):
            raise ValueError("sums length must match offdiag")
        if (np.diag(off) != 0.0).any():
            raise ValueError("offdiag must have a zero diagonal")
        if (off < 0.0).any() or (sums < 0.0).any():
            raise ValueError("offdiag and sums must be nonnegative")
        if self.orientation not in (ROW, COL):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        object.__setattr__(self, "offdiag", off)
        object.__setattr__(self, "sums", sums)

    @property
    def n(self):
        return self.offdiag.shape[0]

    def materialize(self):
        """Dense M with the implied diagonal (for tests and diagnostics)."""
        if self.orientation == ROW:
            diag = self.sums + self.offdiag.sum(axis=1)
        else:
            diag = self.sums + self.offdiag.sum(axis=0)
        return np.diag(diag) - self.offdiag

    def transpose(self):
        flipped = ROW if self.orientation == COL else COL
        return TripletMMatrix(self.offdiag.T.copy(), self.sums.copy(), flipped)


def check_irreducible(offdiag):
    """Raise ReducibleMatrixError naming an unreachable index set."""
    n = offdiag.shape[0]
    if n == 1:
        return
    pattern = scipy.sparse.csr_matrix(offdiag != 0.0)
    ncomp, labels = scipy.sparse.csgraph.connected_components(
        pattern, directed=True, connection="strong"
    )
    if ncomp > 1:
        stranded = [int(i) + 1 for i in np.nonzero(labels == labels[0])[0]]
        raise ReducibleMatrixError(
            f"matrix is reducible; indices {stranded} form a closed component"
        )


@dataclass(frozen=True)
class GTHFactors:
    """LU factors from GTH elimination: unit lower L, upper M-matrix factor U."""

    lower: np.ndarray
    upper: np.ndarray

    @property
    def pivots(self):
        return np.diag(self.upper)

    @property
    def n(self):
        return self.lower.shape[0]


def _zeros(like, shape):
    """Zeros in the arithmetic of `like`: a float64 ndarray or a precision.DD."""
    return getattr(type(like), "zeros", np.zeros)(shape)


def _eye(like, n):
    eye = _zeros(like, (n, n))
    i = np.arange(n)
    eye[i, i] = 1.0
    return eye


def gth_eliminate(offdiag, sums, orientation=ROW):
    """GTH LU factors of the triplet (offdiag, sums), natural pivot order.

    The one elimination of the package.  It runs unchanged on float64
    ndarrays and on precision.DD pair arrays, and adds nonnegative terms
    only: at step k the pivot is the running sum plus the remaining
    off-diagonal entries of row (ROW) or column (COL) k, the trailing entries
    gain (N_ik N_kj) / d_k and the sums gain N_ik (sig_k / d_k).  The
    diagonal of offdiag is never read.  Raises SingularPivotError if a pivot
    vanishes.
    """
    N = offdiag.copy()
    sig = sums.copy()
    n = N.shape[0]
    by_row = orientation == ROW
    L = _eye(N, n)
    U = _zeros(N, (n, n))
    for k in range(n):
        d = sig[k] + (N[k, k + 1 :] if by_row else N[k + 1 :, k]).sum()
        if d.item() <= 0.0:
            raise SingularPivotError(f"zero pivot at step {k + 1}")
        U[k, k] = d
        U[k, k + 1 :] = -N[k, k + 1 :]
        L[k + 1 :, k] = -N[k + 1 :, k] / d
        if k < n - 1:
            N[k + 1 :, k + 1 :] += N[k + 1 :, k : k + 1] * N[k : k + 1, k + 1 :] / d
            sig[k + 1 :] += (N[k + 1 :, k] if by_row else N[k, k + 1 :]) * (sig[k] / d)
    return GTHFactors(lower=L, upper=U)


def gth_factor(T, check=True):
    """GTH factors of a binary64 triplet; ReducibleMatrixError when ``check``
    is set and the sparsity pattern is reducible."""
    if check:
        check_irreducible(T.offdiag)
    return gth_eliminate(T.offdiag, T.sums, T.orientation)


def gth_solve(F, b):
    """Solve LUx = b by substitution, in the arithmetic of the factors.

    The strict parts of L and U are nonpositive, so for b >= 0 both sweeps
    only add nonnegative terms (plus one division by the positive pivot).
    b is a float64 vector or matrix of stacked right-hand sides, or a DD
    vector or matrix for DD factors.
    """
    n = F.n
    if b.shape[0] != n:
        raise ValueError(f"rhs has {b.shape[0]} rows, expected {n}")
    # a binary64 vector runs as one column, which fixes the BLAS calls and the bits
    squeeze = isinstance(b, np.ndarray) and b.ndim == 1
    y = np.array(b, dtype=np.float64, ndmin=2).T if squeeze else b.copy()
    G = -F.lower  # nonnegative below the diagonal
    for k in range(1, n):
        y[k] += G[k, :k] @ y[:k]
    W = -F.upper  # nonnegative above the diagonal
    for k in range(n - 1, -1, -1):
        acc = y[k] if k == n - 1 else y[k] + W[k, k + 1 :] @ y[k + 1 :]
        y[k] = acc / F.upper[k, k]
    return y[:, 0] if squeeze else y


def _null_profile(offdiag):
    """Null profile t of the zero-row-sum triplet (offdiag, 0) and its pivots.

    t_n = 1 and t_k = sum_{i>k} t_i m_ik with the GTH multipliers m = -L.
    The elimination runs with sums e_n: a positive last sum leaves the first
    n - 1 steps of the zero-sum elimination as they are and gives the last
    step a nonzero pivot.  Returns t and the factors, whose first n - 1
    pivots are those of the zero-sum triplet.
    """
    n = offdiag.shape[0]
    t = _zeros(offdiag, n)
    t[n - 1] = 1.0  # t_n = 1; as it stands, also the sums e_n
    F = gth_eliminate(offdiag, t, ROW)
    G = -F.lower
    for k in range(n - 2, -1, -1):
        t[k] = t[k + 1 :] @ G[k + 1 :, k]
    return t, F


def null_vector(T, check=True):
    """Positive t with t^T L1 = 0 for a zero-row-sum triplet (ROW, sums = 0).

    GTH elimination followed by the subtraction-free back-recursion
    t_n = 1, t_k = sum_{i>k} t_i m_ik; normalized so t[n-1] = 1.
    """
    if T.orientation != ROW:
        raise ValueError("null_vector expects a ROW-oriented triplet")
    if (T.sums != 0.0).any():
        raise ValueError("null_vector expects sums identically zero")
    if check:
        check_irreducible(T.offdiag)
    return _null_profile(T.offdiag)[0]


@dataclass(frozen=True)
class PartialInverse:
    """Decomposition M^{-1} = 1 z^T + S.

    The rank-1 part carries the blow-up as M approaches singularity; S stays
    bounded and acts like M^{-1} on zero-sum row vectors.
    """

    z: np.ndarray
    S: np.ndarray

    @property
    def rank_one_part(self):
        return np.ones((len(self.z), 1)) @ self.z[None, :]

    def inverse(self):
        return self.rank_one_part + self.S


def gth_partial_inverse(offdiag, sums):
    """Tree-split partial inverse of the ROW triplet (offdiag, sums), w = sums.

    Runs unchanged on float64 ndarrays and on precision.DD pair arrays.  z is
    assembled subtraction-free: the null profile t of L1 = M - diag(w)
    scaled by det(L1 leading minor) / det(M), both read off GTH pivots.  S is
    then M^{-1} - 1 z^T in the working arithmetic, accurate in binary64 away
    from singularity and in pair arithmetic much closer to it.
    """
    n = offdiag.shape[0]
    if n == 1:
        return PartialInverse(z=1.0 / sums, S=_zeros(sums, (1, 1)))
    t, F1 = _null_profile(offdiag)
    F = gth_eliminate(offdiag, sums, ROW)
    scale = 1.0
    for k in range(n - 1):
        scale *= F1.upper[k, k] / F.upper[k, k]
    scale /= F.upper[n - 1, n - 1]
    z = t * scale
    return PartialInverse(z=z, S=gth_solve(F, _eye(sums, n)) - z[None, :])


def partial_inverse(T, check=True):
    """Tree-split partial inverse of a ROW triplet with sums w >= 0, w != 0.

    See gth_partial_inverse; S only feeds diagnostics.
    """
    if T.orientation != ROW:
        raise ValueError("partial_inverse expects a ROW-oriented triplet")
    if (T.sums == 0.0).all():
        raise ValueError("sums identically zero: M is singular")
    if check:
        check_irreducible(T.offdiag)
    return gth_partial_inverse(T.offdiag, T.sums)


# ---------------------------------------------------------------------------
# Spanning-tree oracles (all-minors matrix tree theorem), for n <= 6.
# ---------------------------------------------------------------------------

TREE_ORACLE_LIMIT = 6


def triplet_weights(T):
    """Weight table W[i-1][j] = w_{i,j} (j = 0..n) from a ROW triplet."""
    if T.orientation != ROW:
        raise ValueError("tree oracles expect ROW orientation")
    n = T.n
    W = np.zeros((n, n + 1))
    W[:, 0] = T.sums
    W[:, 1:] = T.offdiag
    return W


def _forest_sum(W, n, absent, roots, reach_from=None):
    """Sum of weight products over parent maps of {1..n}\\absent.

    Each remaining node picks one outgoing edge; the map must be acyclic with
    every path ending in `roots`, and node `reach_from` (if given) must reach
    the designated root.  Works for float or object (symbolic) weights.
    """
    movers = [i for i in range(1, n + 1) if i not in absent]
    choices = [[j for j in range(0, n + 1) if j != i] for i in movers]
    total = None
    for combo in product(*choices):
        parent = dict(zip(movers, combo))
        ok = True
        for start in movers:
            seen = set()
            cur = start
            while cur in parent:
                if cur in seen:
                    ok = False
                    break
                seen.add(cur)
                cur = parent[cur]
            if not ok or cur not in roots:
                ok = False
                break
        if ok and reach_from is not None:
            src, dst = reach_from
            if src != dst:
                cur = src
                while cur in parent and cur != dst:
                    cur = parent[cur]
                ok = cur == dst
        if not ok:
            continue
        term = None
        for i in movers:
            w = W[i - 1][parent[i]]
            term = w if term is None else term * w
        if term is None:  # n == 0 side of an empty product
            term = 1
        total = term if total is None else total + term
    return 0 if total is None else total


def _check_oracle_size(n):
    if n > TREE_ORACLE_LIMIT:
        raise ValueError(f"tree oracle limited to n <= {TREE_ORACLE_LIMIT}, got {n}")


def tree_oracle_det(W):
    """det M as the sum over spanning trees pointing towards node 0."""
    W = list(W)
    n = len(W)
    _check_oracle_size(n)
    return _forest_sum(W, n, absent=set(), roots={0})


def tree_oracle_adj(W):
    """adj M entrywise: (k,l) sums over the two-tree families of the theorem."""
    W = list(W)
    n = len(W)
    _check_oracle_size(n)
    adj = np.empty((n, n), dtype=object)
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            adj[k - 1, l - 1] = _forest_sum(
                W, n, absent={l}, roots={0, l}, reach_from=(k, l)
            )
    return adj


def tree_oracle_rs(W):
    """PartialInverse from the exact tree-family split.

    The rank-1 numerators are the terms whose tree towards node 0 is trivial,
    i.e. every node reaches l; the remainder forms S.
    """
    W = list(W)
    n = len(W)
    _check_oracle_size(n)
    det = tree_oracle_det(W)
    z = np.array(
        [
            _forest_sum(W, n, absent={l}, roots={l})
            for l in range(1, n + 1)
        ],
        dtype=np.float64,
    )
    z /= det
    adj = tree_oracle_adj(W).astype(np.float64)
    S = adj / det - np.ones((n, 1)) @ z[None, :]
    return PartialInverse(z=z, S=S)


def plain_lu_solve(A, b):
    """Partial-pivoting dense solve used by the non-GTH Newton baseline."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    try:
        # scipy warns of an exactly zero diagonal of U; that is a singular pivot
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(A)
    except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning, ValueError) as exc:
        raise SingularPivotError(str(exc)) from exc
    return scipy.linalg.lu_solve((lu, piv), b)
