"""Componentwise error metrics, condition quantities, and perturbation bounds.

Implements the componentwise distance d(x~, x) = max |x~_i - x_i| / |x_i|
(with 0/0 = 0 and b/0 = inf, so it is infinite whenever the zero patterns
disagree), the two condition quantities kappa = max y_i/m_i and
omega = max (S^T m)_i/m_i, the perturbation bounds 2 eps (2 kappa - 1) gamma
and 2 omega gamma eps they enter, and componentwise_zero_sum_perturb, the
one perturbation generator, which probes those bounds inside their
componentwise model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .mmatrix import gth_col_solve, gth_partial_inverse
from .precision import DD
from .solvers import Problem

# The binary64 subtraction S = M^{-1} - 1 z^T carries a relative error of
# about u / w at column sums w, u = 2^-52 the machine epsilon (in omega on
# ex1 at w = 2^-20, 2^-26 and 2^-39: 1.5e-10, 1.2e-8 and 1.4e-5).  omega
# takes the pair-precision partial inverse wherever u / min(w) would exceed
# OMEGA_TARGET, that is at column sums up to u / OMEGA_TARGET, about 2.2e-7.
OMEGA_TARGET = 1e-9
OMEGA_DD_THRESHOLD = np.finfo(np.float64).eps / OMEGA_TARGET


@dataclass(frozen=True)
class CwDistance:
    value: float
    argmax_index: tuple

    def __float__(self):
        return self.value


def _cw_arrays(x_tilde, x):
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x_tilde.shape != x.shape:
        raise ValueError(f"shape mismatch {x_tilde.shape} vs {x.shape}")
    ratios = np.zeros(x.shape)
    nz = x != 0.0
    ratios[nz] = np.abs(x_tilde[nz] - x[nz]) / np.abs(x[nz])
    ratios[(~nz) & (x_tilde != 0.0)] = np.inf
    if ratios.size == 0:
        return CwDistance(0.0, ())
    flat = int(np.argmax(ratios))
    idx = np.unravel_index(flat, ratios.shape)
    return CwDistance(float(ratios[idx]), tuple(int(i) + 1 for i in idx))


def cw_distance(x_tilde, x):
    """d(x~, x); asymmetric, the second argument is the reference.

    Accepts vectors, matrices, or tensor pairs; for tensors the comparison
    runs over the union of the two supports (a value appearing against a
    structural zero makes the distance infinite, a dropped entry gives 1)
    and argmax_index is the 1-based (i, j, k).
    """
    if hasattr(x, "to_tensor3") or hasattr(x_tilde, "to_tensor3"):
        x, x_tilde = x.to_tensor3(), x_tilde.to_tensor3()
        if x.n != x_tilde.n:
            raise ValueError("tensor dimensions disagree")
        n = x.n
        keys = [t.positions() for t in (x_tilde, x)]
        # equal supports, as a perturbation keeps, skip union1d's sort of both
        union = keys[0] if np.array_equal(*keys) else np.union1d(*keys)
        dense = []
        for t, key in zip((x_tilde, x), keys):
            vals = np.zeros(len(union))
            vals[np.searchsorted(union, key)] = t.vals
            dense.append(vals)
        d = _cw_arrays(*dense)
        if not d.argmax_index:
            return d
        i, col = divmod(int(union[d.argmax_index[0] - 1]), n * n)
        return CwDistance(d.value, (i + 1, col % n + 1, col // n + 1))
    return _cw_arrays(x_tilde, x)


def _rm_col_triplet(problem, m):
    """(C, sums), the column triplet of R_m = I - C, C = Bm, as plain arrays:
    C from one contraction, with its diagonal zeroed.

    Its column sums are 1 - 1^T C, and subtraction-free for the PageRank
    view: |1 - 2 alpha|.  Raises ValueError unless R_m is an M-matrix with
    finite entries, as the compiled GTH pass carries a NaN or inf through
    quietly, and where m is not a vector of length n, which the product
    does not check.
    """
    if m.shape != (problem.n,):
        raise ValueError(f"m has shape {m.shape}, expected ({problem.n},)")
    C = problem.contract(m)
    if problem.is_pagerank:
        omt = problem.one_minus_two_alpha
        sums = np.full(problem.n, omt if problem.alpha <= 0.5 else -omt)
    else:
        sums = 1.0 - C.sum(axis=0)
    np.fill_diagonal(C, 0.0)
    if (sums < 0.0).any():
        raise ValueError("R_m is not an M-matrix (negative column sums)")
    if not (np.isfinite(C).all() and np.isfinite(sums).all()):
        raise ValueError("R_m has entries that are not finite")
    if (C < 0.0).any():
        raise ValueError("R_m is not an M-matrix (positive off-diagonal entries)")
    return C, sums


def compute_y(problem, m):
    """y = R_m^{-1} a via the fused GTH solve of the R_m column triplet.

    Checks the conclusions it relies on: y >= m up to roundoff, and y shares
    m's zero pattern.
    """
    m = np.asarray(m, dtype=np.float64)
    C, sums = _rm_col_triplet(problem, m)
    y = gth_col_solve(C, sums, problem.a)
    if (y < m - 1e-14).any():
        raise ValueError("computed y violates y >= m; is m the minimal solution?")
    zero_m = m == 0.0
    if (y[zero_m] > 1e-14).any() or ((y <= 1e-300) & ~zero_m & (m > 1e-300)).any():
        raise ValueError("y and m zero patterns disagree")
    y[zero_m] = 0.0
    return y


def kappa(m, y):
    """kappa = max over m_i != 0 of y_i / m_i; at least 1."""
    m = np.asarray(m, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if ((m == 0.0) != (y == 0.0)).any():
        raise ValueError("y and m zero patterns disagree")
    nz = m != 0.0
    if not nz.any():
        return 1.0
    return max(float(np.max(y[nz] / m[nz])), 1.0)


def omega(problem, m):
    """omega = max (S^T m)_i / m_i for (R_m^T)^{-1} = 1 z^T + S.

    _rm_col_triplet gives R_m's column triplet as plain arrays (C, sums),
    so C^T and sums are the ROW triplet of R_m^T.  Away from the singular
    limit this uses its binary64 partial inverse; once the column sums drop to
    OMEGA_DD_THRESHOLD, below which binary64 would leave S a relative error
    above OMEGA_TARGET, the subtraction defining S is carried out in pair
    precision instead (the partial inverse itself stays bounded there).
    """
    m = np.asarray(m, dtype=np.float64)
    C, sums = _rm_col_triplet(problem, m)
    offdiag_t = C.T.copy()
    if float(sums.min()) > OMEGA_DD_THRESHOLD:
        S = gth_partial_inverse(offdiag_t, sums)[1]
    else:
        S = gth_partial_inverse(DD(offdiag_t), DD(sums))[1].to_float()
    z_vec = S.T @ m
    nz = m != 0.0
    val = float(np.max(z_vec[nz] / m[nz]))
    # S = 0 for n = 1, giving omega = 0; anything negative means S lost all
    # accuracy to the subtraction and must not be used.
    if val < 0.0:
        raise ArithmeticError(f"omega came out negative ({val}); S inaccurate?")
    return val


@dataclass(frozen=True)
class BoundReport:
    """One evaluated perturbation bound with its validity flags."""

    kind: str  # "kappa" or "omega"
    epsilon: float
    quantity: float  # kappa or omega
    gamma: float
    bound: float
    discriminant_ok: bool

    @property
    def applicable(self):
        return self.discriminant_ok


def _gamma(eps, n):
    return (1.0 + eps) ** (n - 1) / (1.0 - eps) ** n


def bound_kappa(epsilon, kappa_value, n):
    """d(m~, m) <= 2 eps (2 kappa - 1) gamma, valid while
    eps + eps^2 < 1 / (4 gamma^2 (2 kappa - 1)(kappa - 1))."""
    eps = float(epsilon)
    if not 0.0 <= eps < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
    g = _gamma(eps, n)
    denom = 4.0 * g * g * (2.0 * kappa_value - 1.0) * (kappa_value - 1.0)
    disc_ok = True if denom <= 0.0 else (eps + eps * eps) < 1.0 / denom
    return BoundReport(
        kind="kappa",
        epsilon=eps,
        quantity=float(kappa_value),
        gamma=g,
        bound=2.0 * eps * (2.0 * kappa_value - 1.0) * g,
        discriminant_ok=bool(disc_ok),
    )


def bound_omega(epsilon, omega_value, n):
    """d(m~, m) <= 2 omega gamma eps, valid while eps + eps^2 < 1/(4 gamma^2 omega^2)."""
    eps = float(epsilon)
    if not 0.0 <= eps < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
    g = _gamma(eps, n)
    denom = 4.0 * g * g * omega_value * omega_value
    disc_ok = True if denom <= 0.0 else (eps + eps * eps) < 1.0 / denom
    return BoundReport(
        kind="omega",
        epsilon=eps,
        quantity=float(omega_value),
        gamma=g,
        bound=2.0 * omega_value * g * eps,
        discriminant_ok=bool(disc_ok),
    )


def componentwise_zero_sum_perturb(problem, epsilon, seed):
    """Seeded perturbation of P inside the componentwise model of the bounds.

    Each entry of the unfolding moves multiplicatively, by a relative amount
    drawn uniformly from [-epsilon, epsilon]; the change is then projected to
    zero column sums inside the support and the columns renormalized.  So
    d(P~, P) <= 2 epsilon, the zero pattern is kept and P~ is stochastic to
    roundoff.  v is not perturbed.  epsilon must lie in [0, 0.25); epsilon = 0
    returns the problem itself.
    """
    if not problem.is_pagerank:
        raise ValueError("componentwise_zero_sum_perturb needs a PageRank problem")
    eps = float(epsilon)
    if eps == 0.0:
        return problem
    if not 0.0 < eps < 0.25:
        raise ValueError("epsilon must be in [0, 0.25) for a multiplicative model")
    rng = np.random.default_rng(seed)
    U = problem.p_tensor.unfolding()
    delta = eps * (2.0 * rng.random(U.shape) - 1.0) * U
    colsum = U.sum(axis=0)
    safe = np.where(colsum == 0.0, 1.0, colsum)
    delta -= U * (delta.sum(axis=0) / safe)[None, :]
    P_tilde = U + delta
    P_tilde /= np.where(colsum == 0.0, 1.0, P_tilde.sum(axis=0))[None, :]
    return Problem.from_pagerank(
        problem.v,
        tz.Tensor3.from_unfolding(P_tilde),
        problem.alpha,
        one_minus_two_alpha=problem.one_minus_two_alpha,
    )


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
