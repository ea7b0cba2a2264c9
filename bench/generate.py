"""Seeded input generators.

Everything the program is given comes from here: dense stochastic
unfoldings, teleport vectors with an exact unit sum, and random symmetric
graphs in MatrixMarket form.  The recipes are copied rather than imported, so
the benchmark does not depend on the test suite or on the program's own
helpers.
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np


def _absorb_excess(col):
    """Let the largest entry absorb the binary64 sum defect, in place.

    Returns True when the sum is then exactly 1.  Near alpha = 1/2 the solvers
    react to a one-ulp sum defect at the square-root level, so stochastic
    inputs are made stochastic to the last bit.
    """
    imax = int(np.argmax(col))
    for _ in range(5):
        excess = col.sum() - 1.0
        if excess == 0.0:
            return True
        col[imax] -= excess
    return col.sum() == 1.0


def stochastic_unfolding(rng, n):
    """Dense n x n^2 unfolding whose columns sum to 1.0 in binary64 exactly."""
    U = rng.random((n, n * n))
    U /= U.sum(axis=0)[None, :]
    for c in range(n * n):
        _absorb_excess(U[:, c])
    return U


def teleport_vector(rng, n):
    """Positive v with 1^T v == 1 exactly in binary64."""
    v = rng.random(n) + 0.05
    v = v / v.sum()
    if not _absorb_excess(v):
        raise ArithmeticError("could not give v an exact unit sum")
    return v


def exact_one_minus_two_alpha(alpha):
    """1 - 2 alpha evaluated in decimal from alpha's decimal string, then rounded once."""
    return float(Decimal(1) - 2 * Decimal(alpha))


def write_symmetric_graph(rng, n, mean_degree, path):
    """Write an Erdos-Renyi graph with the given mean degree as MatrixMarket.

    The file is a symmetric pattern matrix, so only the lower triangle is
    stored, as the format requires.
    """
    upper = np.triu(rng.random((n, n)) < mean_degree / (n - 1), k=1)
    rows, cols = np.nonzero(upper)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"{n} {n} {len(rows)}\n")
        fh.writelines(f"{j + 1} {i + 1}\n" for i, j in zip(rows, cols))
