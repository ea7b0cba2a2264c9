"""Validated triplet wrappers around the plain-array GTH routines, for tests.

The package passes an M-matrix as two plain arrays, (offdiag, sums), and
checks none of it.  The tests describe their matrices here instead: a
TripletMMatrix carries its orientation, rejects what is not an M-matrix
triplet, and materializes M with its implied diagonal; null_vector,
partial_inverse and inverse_cw_bound_check validate a triplet and its
pattern before they run mlpagerank.mmatrix's kernel on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from mlpagerank.analysis import cw_distance
from mlpagerank.mmatrix import _null_profile, gth_col_solve, gth_partial_inverse

ROW = "row"
COL = "col"


class ReducibleMatrixError(ValueError):
    """Off-diagonal sparsity pattern is not strongly connected."""


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
        for name, values in (("offdiag", off), ("sums", sums)):
            bad = np.argwhere(~np.isfinite(values))
            if len(bad):
                at = tuple(int(i) + 1 for i in bad[0])
                raise ValueError(f"{name} must be finite; entry "
                                 f"{at if len(at) > 1 else at[0]} is {values[tuple(bad[0])]}")
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
        """Dense M with the implied diagonal."""
        if self.orientation == ROW:
            diag = self.sums + self.offdiag.sum(axis=1)
        else:
            diag = self.sums + self.offdiag.sum(axis=0)
        return np.diag(diag) - self.offdiag


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


def null_vector(T):
    """Positive t with t^T L1 = 0 for a zero-row-sum triplet (ROW, sums = 0).

    GTH elimination followed by the subtraction-free back-recursion
    t_n = 1, t_k = sum_{i>k} t_i m_ik; normalized so t[n-1] = 1.  Raises
    ReducibleMatrixError on a reducible pattern.
    """
    if T.orientation != ROW:
        raise ValueError("null_vector expects a ROW-oriented triplet")
    if (T.sums != 0.0).any():
        raise ValueError("null_vector expects sums identically zero")
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


def partial_inverse(T):
    """Tree-split partial inverse of a ROW triplet with sums w >= 0, w != 0.

    See mmatrix.gth_partial_inverse.  Raises ReducibleMatrixError on a
    reducible pattern.
    """
    if T.orientation != ROW:
        raise ValueError("partial_inverse expects a ROW-oriented triplet")
    if (T.sums == 0.0).all():
        raise ValueError("sums identically zero: M is singular")
    check_irreducible(T.offdiag)
    return PartialInverse(*gth_partial_inverse(T.offdiag, T.sums))


@dataclass(frozen=True)
class InverseStabilityReport:
    epsilon: float
    d_offdiag: float
    d_sums: float
    d_inverse: float
    bound: float
    within_bound: bool
    pattern_mismatch: bool


def _col_inverse(T):
    check_irreducible(T.offdiag)
    offdiag = T.offdiag if T.orientation == COL else T.offdiag.T
    return gth_col_solve(offdiag, T.sums, np.eye(T.n))


def inverse_cw_bound_check(T, T_tilde, epsilon):
    """Compare d(M~^-1, M^-1) with the componentwise bound (2n-1) epsilon.

    Each inverse is the fused GTH solve of the triplet's COL form against
    the identity; a ROW triplet's COL form is M^T, whose inverse has the
    same componentwise distance.  Raises ReducibleMatrixError on a
    reducible pattern.
    """
    if T.orientation != T_tilde.orientation or T.n != T_tilde.n:
        raise ValueError("triplets must share shape and orientation")
    d_off = cw_distance(T_tilde.offdiag, T.offdiag).value
    d_sums = cw_distance(T_tilde.sums, T.sums).value
    n = T.n
    minv, minv_t = (_col_inverse(t) for t in (T, T_tilde))
    d_inv = cw_distance(minv_t, minv).value
    bound = (2 * n - 1) * float(epsilon)
    return InverseStabilityReport(
        epsilon=float(epsilon),
        d_offdiag=d_off,
        d_sums=d_sums,
        d_inverse=d_inv,
        bound=bound,
        within_bound=bool(d_inv <= bound * (1.0 + 1e-8) or np.isinf(bound)),
        pattern_mismatch=bool(np.isinf(d_off) or np.isinf(d_sums)),
    )
