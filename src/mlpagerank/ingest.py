"""Problem construction: built-in 4-dimensional instances, graph pipelines,
and Matrix Market reading.

The three built-ins are the published test problems: a 2-dimensional
instance whose minimal solution [1-delta, delta] is known in closed form,
and two 4-dimensional transition tensors with reference solutions quoted to
five digits.  The graph pipeline turns an adjacency matrix into a stochastic
tensor by normalizing directed three-cycles and mixing in a first-order
chain with dangling-node correction.  It keeps that tensor in factored form
(tensor.PageRankTensor) in O(nnz + n^2) memory, and never forms its n^3
entries unless code that reads entries asks for them.

read_matrix_market parses a file's entry lines in one numpy pass.  A
per-line reader, _read_entries, is both its specification and its error
reporter: it takes over wherever the numpy pass cannot vouch for the lines,
and words every error about them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solvers import Problem
from .tensor import PageRankTensor, Tensor3, check_dense_fits, check_stochastic


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


def read_matrix_market(path, power=2):
    """Read a coordinate-format Matrix Market file into an Adjacency.

    Supports pattern/real/integer fields and general/symmetric symmetry;
    nonzeros are binarized.  Malformed input, a weight that is not a finite
    number included, raises ValueError with the offending line number, as
    does a size whose dense float64 array of n**power entries, the largest
    the caller makes of the graph, would not fit in physical memory
    (tensor.check_dense_fits).

    The entry lines are parsed in one numpy pass (_parse_entries).  Where
    that pass cannot take them or finds anything wrong, _read_entries reads
    them line by line: that loop is the reader's specification and the only
    code that words an error, naming the first bad line in file order.
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
    while idx < len(lines) and (not lines[idx].strip() or lines[idx].lstrip().startswith("%")):
        idx += 1
    if idx >= len(lines):
        raise ValueError(f"{path}:{len(lines)}: missing size line")
    try:
        nrows, ncols, nnz = (int(s) for s in lines[idx].split())
    except ValueError:
        raise ValueError(f"{path}:{idx + 1}: size line must be 'rows cols nnz'") from None
    if nrows != ncols:
        raise ValueError(f"{path}:{idx + 1}: adjacency must be square")
    check_dense_fits(nrows, f"{path}:{idx + 1}", power)
    A = np.zeros((nrows, nrows), dtype=bool)
    pattern = field == "pattern"
    ij = _parse_entries(lines[idx + 1 :], pattern, nrows, nnz)
    if ij is None:
        ij = _read_entries(path, lines, idx + 1, pattern, nrows, nnz)
    i, j = ij
    A[i, j] = True
    if symmetry == "symmetric":
        A[j, i] = True
    return Adjacency(matrix=A)


def _parse_entries(body, pattern, n, nnz):
    """The zero-based (i, j) of the nonzero entries in the lines body, in one
    numpy pass; None where _read_entries must read them instead.

    np.loadtxt takes every line at once: a structured dtype of two int64
    indices and, unless pattern, a float64 weight makes it check the field
    count of each line, and no '#' is a comment.  The body is left to
    _read_entries if it holds a '%' (a comment line) or nothing but blanks
    (on which loadtxt would warn), if numpy raises, and if a weight is not
    finite, an index is out of range or the count differs from nnz.
    """
    text = "".join(body)
    if "%" in text or not text.strip():
        return None
    fields = [("i", np.int64), ("j", np.int64)] + ([] if pattern else [("w", np.float64)])
    try:
        i, j, *w = np.loadtxt(body, dtype=fields, comments=None, ndmin=1, unpack=True)
    except ValueError:
        return None
    if not (len(i) == nnz and min(i.min(), j.min()) >= 1 and max(i.max(), j.max()) <= n):
        return None
    if w:
        if not np.isfinite(w[0]).all():
            return None
        nonzero = w[0] != 0.0
        i, j = i[nonzero], j[nonzero]
    return i - 1, j - 1


def _read_entries(path, lines, start, pattern, n, nnz):
    """The zero-based (i, j) of the nonzero entries in lines[start:], read
    line by line; blank lines and lines that start with '%' are skipped.

    Raises ValueError naming the first bad line in file order: a wrong field
    count, an index or weight that is not a number (a weight that is not
    finite included), an index out of range; then a count that differs from
    nnz.
    """
    want = 2 if pattern else 3
    rows, cols = [], []
    count = 0
    for lineno in range(start, len(lines)):
        parts = lines[lineno].split()
        if not parts or parts[0].startswith("%"):
            continue
        if len(parts) != want:
            raise ValueError(f"{path}:{lineno + 1}: expected {want} fields")
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            value = 1.0 if pattern else float(parts[2])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):  # a NaN weight would pass for a nonzero
            raise ValueError(f"{path}:{lineno + 1}: malformed entry {' '.join(parts)!r}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"{path}:{lineno + 1}: index out of range")
        count += 1
        if value != 0.0:
            rows.append(i)
            cols.append(j)
    if count != nnz:
        raise ValueError(f"{path}: header says {nnz} entries, found {count}")
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


def three_cycle_tensor(adj):
    """C_{ijk} = 1 iff the edges (i,j), (j,k), (k,i) are all present.

    For an undirected (symmetrized) graph every triangle therefore
    contributes all index triples whose directed three-cycle exists.  The
    cycles are listed from the edge list, as the paths j -> k -> i closed by
    an edge i -> j, in O(n + sum_k indeg(k) outdeg(k)) time.  The edges
    k -> i are taken by i, then by k, and each is paired with the edges
    j -> k into k by j: the list runs in (i, k, j) order, the tensor's
    storage order, so that Tensor3.from_coordinates need not sort it.
    """
    A = adj.matrix
    n = adj.n
    if n < 3:
        raise ValueError("three_cycle_tensor needs n >= 3")
    dst, src = np.nonzero(A.T)  # the edges src -> dst, sorted by dst, then src
    ptr = np.searchsorted(dst, np.arange(n + 1))
    # pair each edge (k, i) with every edge (j, k) into k
    fan = np.diff(ptr)[src]
    first = np.repeat(np.arange(len(src)), fan)
    second = np.repeat(ptr[src] - np.cumsum(fan) + fan, fan) + np.arange(len(first))
    i, k, j = dst[first], src[first], src[second]
    closed = A.ravel()[i * n + j]
    i, j, k = i[closed], j[closed], k[closed]
    return Tensor3.from_coordinates(n, i, j + k * n, np.ones(len(i)))


def build_pagerank_tensor(adj, v, nu):
    """P_(1) = nu (S + v d_S^T) + (1-nu) (M + v d_M^T) kron 1^T, in factored form.

    S normalizes the three-cycle tensor's nonzero unfolding columns to sum 1;
    M = A^T D+ is the first-order chain with the pseudo-inverse of the
    out-degree diagonal (zero degrees stay zero).  The 0/1 indicators d_S and
    d_M of their empty columns come exactly from the cycle counts and the
    degrees, never as 1 - colsum (which is -1 ulp on some columns), so each
    term is column-stochastic when 1^T v = 1.

    Returns a tensor.PageRankTensor storing S (sparse, nnz(S) entries), d_S
    (n x n), F = M + v d_M^T (dense n x n), v and nu.  Each product the
    solvers take, and the column sums, cost O(nnz(S) + n^2); to_tensor3()
    forms the n^3 entries for code that reads them.
    """
    v = np.array(v, dtype=np.float64)
    nu = float(nu)
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu must be in [0, 1], got {nu}")
    n = adj.n
    if v.shape != (n,):
        raise ValueError("v has the wrong length")
    if (v < 0.0).any() or abs(v.sum() - 1.0) > 1e-12:
        raise ValueError("v must be stochastic")
    C = three_cycle_tensor(adj)
    cycles = np.bincount(C.cols, minlength=n * n)  # per unfolding column j + k*n
    S = C.with_values(1.0 / cycles[C.cols])
    dS = (cycles == 0).astype(np.float64).reshape(n, n)
    A = adj.matrix.astype(np.float64)
    deg = A.sum(axis=1)
    inv_deg = np.where(deg == 0.0, 0.0, 1.0 / np.where(deg == 0.0, 1.0, deg))
    F = A.T * inv_deg[None, :] + v[:, None] * (deg == 0.0)[None, :]
    P = PageRankTensor(S, v, dS, F, nu)
    if not check_stochastic(P, target=1.0, tol=1e-13).ok:
        raise ArithmeticError("constructed tensor failed the stochasticity check")
    return P


def random_teleport_vector(n, seed):
    """Heavy-tailed stochastic v: uniform times exp(9 normal), summing to 1 exactly.

    The v d^T terms of build_pagerank_tensor keep P stochastic only if
    1^T v = 1 exactly, so the rounding the normalization leaves is absorbed
    into the entries in descending order of size until the exact sum is 1;
    only entries with ulps as fine as its lowest bit can take the last of it.
    """
    rng = np.random.default_rng(seed)
    v = rng.random(n) * np.exp(9.0 * rng.standard_normal(n))
    v = v / v.sum()
    # on Python floats: the same IEEE operations, without numpy's per-scalar cost
    entries = v.tolist()
    excess = math.fsum([*entries, -1.0])  # 1^T v - 1, exact or nonzero
    for i in np.argsort(-v, kind="stable").tolist():
        if excess == 0.0:
            break
        kept = entries[i] - excess
        if kept != entries[i]:
            entries[i] = kept
            excess = math.fsum([*entries, -1.0])
    v = np.array(entries)
    if excess != 0.0 or (v < 0.0).any():
        raise ArithmeticError("could not normalize v to an exact unit sum")
    return v


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


_ONE_BITS = int(np.float64(1.0).view(np.int64))


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
    # The nudges can cycle: numpy's pairwise sum can round across 1 and back
    # as v[imax] moves by one ulp.  The sum is nondecreasing in each entry,
    # so bisect on the bits of one entry at a time over [0, 1], from the
    # largest down, until one of them gives the sum 1 exactly.
    if math.isfinite(excess):
        for i in np.argsort(-v, kind="stable"):
            bits = v[i : i + 1].view(np.int64)  # aliases v[i]
            kept = int(bits[0])
            below, above = 0, _ONE_BITS
            while above - below > 1:
                bits[0] = (below + above) // 2
                total = v.sum()
                if total == 1.0:
                    return v
                if total < 1.0:
                    below = int(bits[0])
                else:
                    above = int(bits[0])
            bits[0] = kept
    raise ArithmeticError("could not normalize v to an exact unit sum")


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
