"""Problem construction: built-in 4-dimensional instances, graph pipelines,
and Matrix Market reading.

The three built-ins are the published test problems: a 2-dimensional
instance whose minimal solution [1-delta, delta] is known in closed form,
and two 4-dimensional transition tensors with reference solutions quoted to
five digits.  The graph pipeline turns an adjacency matrix into a stochastic
tensor by normalizing directed three-cycles and mixing in a first-order
chain with dangling-node correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solvers import Problem
from .tensor import Tensor3


@dataclass(frozen=True)
class Adjacency:
    """Directed 0/1 adjacency matrix; symmetric input is stored both ways."""

    matrix: np.ndarray

    @property
    def n(self):
        return self.matrix.shape[0]

    @property
    def edge_count(self):
        return int(self.matrix.sum())


def read_matrix_market(path):
    """Read a coordinate-format Matrix Market file into an Adjacency.

    Supports pattern/real/integer fields and general/symmetric symmetry;
    nonzeros are binarized.  Malformed input raises ValueError with the
    offending line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise ValueError(f"{path}:1: empty file")
    header = lines[0].strip().lower().split()
    if len(header) < 4 or header[0] != "%%matrixmarket" or header[1] != "matrix":
        raise ValueError(f"{path}:1: not a MatrixMarket matrix header")
    if header[2] != "coordinate":
        raise ValueError(f"{path}:1: only coordinate format is supported")
    field = header[3]
    symmetry = header[4] if len(header) > 4 else "general"
    if field not in ("pattern", "real", "integer"):
        raise ValueError(f"{path}:1: unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"{path}:1: unsupported symmetry {symmetry!r}")
    idx = 1
    while idx < len(lines) and lines[idx].lstrip().startswith("%"):
        idx += 1
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise ValueError(f"{path}:{len(lines)}: missing size line")
    size = lines[idx].split()
    if len(size) != 3:
        raise ValueError(f"{path}:{idx + 1}: size line must be 'rows cols nnz'")
    nrows, ncols, nnz = (int(s) for s in size)
    if nrows != ncols:
        raise ValueError(f"{path}:{idx + 1}: adjacency must be square")
    A = np.zeros((nrows, nrows), dtype=bool)
    count = 0
    for lineno in range(idx + 1, len(lines)):
        parts = lines[lineno].split()
        if not parts or parts[0].startswith("%"):
            continue
        want = 2 if field == "pattern" else 3
        if len(parts) != want:
            raise ValueError(f"{path}:{lineno + 1}: expected {want} fields")
        i, j = int(parts[0]) - 1, int(parts[1]) - 1
        if not (0 <= i < nrows and 0 <= j < nrows):
            raise ValueError(f"{path}:{lineno + 1}: index out of range")
        value = 1.0 if field == "pattern" else float(parts[2])
        count += 1
        if value == 0.0:
            continue
        A[i, j] = True
        if symmetry == "symmetric":
            A[j, i] = True
    if count != nnz:
        raise ValueError(f"{path}: header says {nnz} entries, found {count}")
    return Adjacency(matrix=A)


def three_cycle_tensor(adj):
    """C_{ijk} = 1 iff the edges (i,j), (j,k), (k,i) are all present.

    For an undirected (symmetrized) graph every triangle therefore
    contributes all index triples whose directed three-cycle exists.
    """
    A = adj.matrix.astype(np.float64)
    n = adj.n
    if n < 3:
        raise ValueError("three_cycle_tensor needs n >= 3")
    # C[i, j, k] = A[i, j] * A[j, k] * A[k, i]
    C = A[:, :, None] * A[None, :, :] * A.T[:, None, :]
    unfolding = C.transpose(0, 2, 1).reshape(n, n * n)
    return Tensor3.from_unfolding(unfolding)


def column_normalize_substochastic(C):
    """Normalize nonzero unfolding columns to sum 1; zero columns stay zero."""
    U = C.unfolding()
    sums = U.sum(axis=0)
    safe = np.where(sums == 0.0, 1.0, sums)
    return U / safe[None, :]


def _dangling(B):
    """The 0/1 row vector marking the all-zero columns of B.

    Every column of B is normalized or zero, so this is the column deficiency
    1^T - 1^T B in exact form; evaluated as 1 - colsum it comes out at -1 ulp
    on some normalized columns, which makes tensor entries negative.
    """
    return (~B.any(axis=0)).astype(np.float64)


def build_pagerank_tensor(adj, v, nu):
    """P_(1) = nu (S + v dangling(S)) + (1-nu) (M + v dangling(M)) kron 1^T.

    S normalizes the three-cycle tensor; M = A^T D+ is the first-order chain
    with the pseudo-inverse of the out-degree diagonal (zero degrees stay
    zero); both terms get the dangling correction before mixing, so the
    result is column-stochastic.
    """
    v = np.asarray(v, dtype=np.float64)
    nu = float(nu)
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu must be in [0, 1], got {nu}")
    n = adj.n
    if v.shape != (n,):
        raise ValueError("v has the wrong length")
    if (v < 0.0).any() or abs(v.sum() - 1.0) > 1e-12:
        raise ValueError("v must be stochastic")
    S = column_normalize_substochastic(three_cycle_tensor(adj))
    A = adj.matrix.astype(np.float64)
    deg = A.sum(axis=1)
    inv_deg = np.where(deg == 0.0, 0.0, 1.0 / np.where(deg == 0.0, 1.0, deg))
    M = A.T * inv_deg[None, :]
    second = S + v[:, None] * _dangling(S)[None, :]
    first = M + v[:, None] * _dangling(M)[None, :]
    P1 = nu * second + (1.0 - nu) * np.kron(first, np.ones((1, n)))
    colsums = P1.sum(axis=0)
    if np.abs(colsums - 1.0).max() > 1e-13:
        raise ArithmeticError("constructed tensor failed the stochasticity check")
    return Tensor3.from_unfolding(P1)


def random_teleport_vector(n, seed):
    """Heavy-tailed stochastic v: uniform times exp(9 normal), normalized."""
    rng = np.random.default_rng(seed)
    v = rng.random(n) * np.exp(9.0 * rng.standard_normal(n))
    return v / v.sum()


# ---------------------------------------------------------------------------
# Built-in instances
# ---------------------------------------------------------------------------

_INTRO_P1 = np.array([
    [1.0, 0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5, 1.0],
])

_EX1_P1 = np.array([
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0.0, 0, 0.5, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.5, 1, 0.0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.5, 0, 0.0, 0, 0],
    [1, 1, 1, 1, 1, 1, 0, 1, 1, 0, 0, 0.0, 0, 0.5, 1, 0],
])

# Published to five digits; sums to ~1.0000024, so it is renormalized below.
_EX1_V_RAW = np.array([1.5462e-2, 1.4317e-12, 3.5898e-7, 9.8454e-1])

_EX2_P1 = np.array([
    [0, 0, 0, 0, 0, 0, 0.5, 0, 1, 0, 0, 0, 0.0, 0.0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0.0, 1, 0, 1, 0, 0, 0.5, 0.0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0.5, 0, 0, 0, 1, 0, 0.5, 0.5, 1, 0],
    [1, 1, 1, 1, 1, 1, 0.0, 0, 0, 0, 0, 1, 0.0, 0.5, 0, 1],
])

# As printed, [1e-4, 0, 0, 9.999e-4]: sums to ~0.0011 and Newton from it
# reaches a mixed-sign root instead of the published stochastic solution.
# With the last entry read as 9.999e-1 the vector sums to 1 in exact decimal
# and Newton reproduces the published solution to all printed digits, so the
# printed exponent is taken to be a typo.
_EX2_V_RAW = np.array([1e-4, 0.0, 0.0, 9.999e-1])

# Reference solutions as published (five digits).
EX1_SOLUTION_0_49999 = np.array([2.4655e-1, 8.2687e-2, 2.1565e-7, 6.7076e-1])
EX2_SOLUTION_0_9951 = np.array([8.6225e-7, 8.5301e-5, 8.5971e-3, 9.9132e-1])


def force_sum_one(v):
    """Nudge the largest entry so the binary64 sum is exactly 1.

    Near alpha = 1/2 the gap to singularity behaves like the square root of
    |1 - 1^T v|, so a one-ulp sum deficiency inflates into a ~1e-8 artifact
    (and a one-ulp excess leaves the equation with no solution at all).
    Stochastic-by-construction data should therefore sum to 1 to the last bit.
    """
    v = np.asarray(v, dtype=np.float64).copy()
    imax = int(np.argmax(v))
    for _ in range(5):
        excess = v.sum() - 1.0
        if excess == 0.0:
            return v
        v[imax] -= excess
    if v.sum() != 1.0:
        raise ArithmeticError("could not normalize v to an exact unit sum")
    return v


def intro(delta, alpha, one_minus_two_alpha=None):
    """The 2-dimensional instance with minimal solution [1-delta, delta]."""
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    v = force_sum_one(np.array([1.0 - delta, delta]))
    return Problem.from_pagerank(
        v, Tensor3.from_unfolding(_INTRO_P1), alpha,
        one_minus_two_alpha=one_minus_two_alpha,
    )


def ex1(alpha, one_minus_two_alpha=None):
    v = force_sum_one(_EX1_V_RAW / _EX1_V_RAW.sum())
    return Problem.from_pagerank(
        v, Tensor3.from_unfolding(_EX1_P1), alpha,
        one_minus_two_alpha=one_minus_two_alpha,
    )


def ex2(alpha, one_minus_two_alpha=None):
    v = force_sum_one(_EX2_V_RAW / _EX2_V_RAW.sum())
    return Problem.from_pagerank(
        v, Tensor3.from_unfolding(_EX2_P1), alpha,
        one_minus_two_alpha=one_minus_two_alpha,
    )


def builtin(name, alpha, delta=1e-6, one_minus_two_alpha=None):
    """Look up a built-in instance by name: 'intro', 'ex1', or 'ex2'."""
    key = name.strip().lower()
    if key == "intro":
        return intro(delta, alpha, one_minus_two_alpha)
    if key == "ex1":
        return ex1(alpha, one_minus_two_alpha)
    if key == "ex2":
        return ex2(alpha, one_minus_two_alpha)
    raise ValueError(f"unknown builtin {name!r}; expected intro, ex1, or ex2")
