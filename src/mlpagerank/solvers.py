"""Iteration schemes for x = a + Bx^2 and multilinear PageRank.

Five methods share one report format: plain fixed-point, Newton with a
partial-pivoting solve, the subtraction-free Newton-GTH, the GTH block Jacobi
(exact block triplets via the u-recurrence), and the block Jacobi-GTH variant
that reuses Newton's z-recurrence for cheaper, faster, non-monotone steps.

The iterations run in binary64 throughout, stopping tests and right-hand
sides included, since these are the algorithms whose accuracy is analysed.
Only the public residual() evaluates beyond binary64, to check a result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .mmatrix import (
    COL,
    SingularPivotError,
    TripletMMatrix,
    gth_factor,
    gth_solve,
    plain_lu_solve,
)
from .precision import dd_residual

DIVERGENCE_LIMIT = 1e6


class Method(enum.Enum):
    FIXED_POINT = "fixed-point"
    NEWTON = "newton"
    NEWTON_GTH = "newton-gth"
    BLOCK_JACOBI = "block-jacobi"
    BLOCK_JACOBI_GTH_VARIANT = "block-jacobi-gth-variant"


class Start(enum.Enum):
    ZERO = "zero"
    V = "v"
    CUSTOM = "custom"


class Termination(enum.Enum):
    TOL_REACHED = "tol_reached"
    MAXIT = "maxit"
    SINGULAR_PIVOT = "singular_pivot"
    DIVERGED = "diverged"


class Problem:
    """Instance data (a, B) with an optional PageRank view (v, P, alpha)."""

    def __init__(self, a, tensor, v=None, p_tensor=None, alpha=None,
                 one_minus_two_alpha=None, v_raw=None):
        self.a = np.asarray(a, dtype=np.float64)
        self.tensor = tensor
        if self.a.shape != (tensor.n,):
            raise ValueError("a and B dimensions disagree")
        if (self.a < 0.0).any():
            raise ValueError("a must be nonnegative")
        self.v = None if v is None else np.asarray(v, dtype=np.float64)
        self.p_tensor = p_tensor
        self.alpha = None if alpha is None else float(alpha)
        self.v_raw = None if v_raw is None else np.asarray(v_raw, dtype=np.float64)
        if one_minus_two_alpha is not None:
            self.one_minus_two_alpha = float(one_minus_two_alpha)
        elif self.alpha is not None:
            self.one_minus_two_alpha = 1.0 - 2.0 * self.alpha
        else:
            self.one_minus_two_alpha = None

    @classmethod
    def from_pagerank(cls, v, p_tensor, alpha, one_minus_two_alpha=None, v_raw=None):
        """Build a = (1-alpha) v, B = alpha P; validates stochasticity."""
        v = np.asarray(v, dtype=np.float64)
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {alpha}")
        if (v < 0.0).any():
            raise ValueError("v must be nonnegative")
        if abs(v.sum() - 1.0) > 1e-14:
            raise ValueError(f"v must be stochastic, 1^T v - 1 = {v.sum() - 1.0:.3e}")
        rep = tz.check_stochastic(p_tensor, target=1.0, tol=1e-13)
        if not rep.ok:
            raise ValueError(
                f"P unfolding column {rep.worst_column} sums off by {rep.max_deviation:.3e}"
            )
        return cls(
            a=(1.0 - alpha) * v,
            tensor=p_tensor.scale(alpha),
            v=v,
            p_tensor=p_tensor,
            alpha=alpha,
            one_minus_two_alpha=one_minus_two_alpha,
            v_raw=v_raw,
        )

    @classmethod
    def from_general(cls, a, tensor):
        return cls(a=a, tensor=tensor)

    @property
    def n(self):
        return self.tensor.n

    @property
    def is_pagerank(self):
        return self.alpha is not None


@dataclass
class SolverOptions:
    method: Method = Method.NEWTON_GTH
    tol: float = 1e-15
    maxit: int = 500
    block_sizes: tuple[int, ...] | None = None
    start: Start = Start.ZERO
    x0: np.ndarray | None = None
    record_history: bool = False

    def __post_init__(self):
        if self.tol < 0.0:
            raise ValueError("tol must be nonnegative")
        if self.maxit < 0:
            raise ValueError("maxit must be nonnegative")


@dataclass
class SolveReport:
    method: Method
    x: np.ndarray
    iterations: int
    termination: Termination
    residual_history: np.ndarray
    iterate_history: list[np.ndarray] | None = None
    z_history: np.ndarray | None = None
    e_cw_history: np.ndarray | None = None
    e_norm_history: np.ndarray | None = None
    max_overshoot: float | None = None

    @property
    def final_residual(self):
        return float(self.residual_history[-1])


def residual(problem, x):
    """a + Bx^2 - x, correctly rounded in every component.

    The result is the single rounding of precision.dd_residual's pair, so
    each component differs from the exact value for the stored a, B and x
    by at most 2^-53 of that value (barring underflow), even where the terms
    cancel to far below their size, as they do at a solution.  The solvers'
    stopping tests and right-hand sides do not use it: they evaluate in
    binary64, as the analysed algorithms do.
    """
    return dd_residual(problem, x).to_float()


def _residual64(problem, x):
    """a + Bx^2 - x in binary64, the residual the iterations work with."""
    x = np.asarray(x, dtype=np.float64)
    return problem.a + tz.apply_quadratic(problem.tensor, x) - x


def _starting_vector(problem, opts):
    if opts.start is Start.ZERO:
        return np.zeros(problem.n)
    if opts.start is Start.V:
        if problem.v is None:
            raise ValueError("start=V needs a PageRank problem")
        return problem.v.copy()
    if opts.x0 is None:
        raise ValueError("start=CUSTOM needs x0")
    x0 = np.asarray(opts.x0, dtype=np.float64)
    if x0.shape != (problem.n,):
        raise ValueError("x0 has the wrong shape")
    return x0.copy()


class _Run:
    """Shared bookkeeping for all methods."""

    def __init__(self, problem, opts, x0, r0_norm, z0=None):
        self.opts = opts
        self.res_hist = [r0_norm]
        self.iter_hist = [x0.copy()] if opts.record_history else None
        self.z_hist = None if z0 is None else [z0]
        self.iterations = 0

    def record(self, x, r_norm, z=None):
        self.iterations += 1
        self.res_hist.append(r_norm)
        if self.iter_hist is not None:
            self.iter_hist.append(x.copy())
        if self.z_hist is not None:
            self.z_hist.append(z)

    def report(self, method, x, termination):
        return SolveReport(
            method=method,
            x=x,
            iterations=self.iterations,
            termination=termination,
            residual_history=np.array(self.res_hist),
            iterate_history=self.iter_hist,
            z_history=None if self.z_hist is None else np.array(self.z_hist),
        )


def _norm_inf(v):
    return float(np.abs(v).max()) if len(v) else 0.0


def fixed_point(problem, opts):
    """x_{k+1} = a + B x_k^2; monotone to the minimal solution from zero."""
    x = _starting_vector(problem, opts)
    r = _residual64(problem, x)
    run = _Run(problem, opts, x, _norm_inf(r))
    while _norm_inf(r) > opts.tol and run.iterations < opts.maxit:
        x = problem.a + tz.apply_quadratic(problem.tensor, x)
        r = _residual64(problem, x)
        run.record(x, _norm_inf(r))
        if _norm_inf(x) > DIVERGENCE_LIMIT:
            return run.report(Method.FIXED_POINT, x, Termination.DIVERGED)
    term = Termination.TOL_REACHED if _norm_inf(r) <= opts.tol else Termination.MAXIT
    return run.report(Method.FIXED_POINT, x, term)


def _jacobian_parts(problem, x):
    """C = Bx: + B:x; R_x = I - C."""
    B = problem.tensor
    return tz.contract_left(B, x) + tz.contract_right(B, x)


def newton(problem, opts):
    """Plain Newton: solve R_x h = r with partial-pivoting LU, x <- x + h."""
    x = _starting_vector(problem, opts)
    r = _residual64(problem, x)
    run = _Run(problem, opts, x, _norm_inf(r))
    n = problem.n
    while _norm_inf(r) > opts.tol and run.iterations < opts.maxit:
        R = np.eye(n) - _jacobian_parts(problem, x)
        try:
            h = plain_lu_solve(R, r)
        except SingularPivotError:
            return run.report(Method.NEWTON, x, Termination.SINGULAR_PIVOT)
        x = x + h
        r = _residual64(problem, x)
        run.record(x, _norm_inf(r))
        if _norm_inf(x) > DIVERGENCE_LIMIT:
            return run.report(Method.NEWTON, x, Termination.DIVERGED)
    term = Termination.TOL_REACHED if _norm_inf(r) <= opts.tol else Termination.MAXIT
    return run.report(Method.NEWTON, x, term)


def _require_pagerank_from_zero(problem, opts, name):
    if not problem.is_pagerank:
        raise ValueError(f"{name} needs a PageRank problem")
    if opts.start is not Start.ZERO:
        raise ValueError(f"{name} targets the minimal solution; use start=ZERO")


def newton_gth(problem, opts):
    """Subtraction-free Newton: GTH solves plus the z-recurrence.

    State (x, z, r) keeps the invariants z = 1 - 2 alpha (1^T x) and
    r = (1-alpha) v + alpha P x^2 - x without ever subtracting like-signed
    values: the step solves the column triplet (offdiag(Bx: + B:x), z 1),
    the residual updates as alpha P h^2, and z follows
    z <- ((1-2 alpha)^2 + z^2) / (2 z).
    """
    _require_pagerank_from_zero(problem, opts, "newton_gth")
    n = problem.n
    omt = problem.one_minus_two_alpha
    omt_sq = omt * omt
    x = np.zeros(n)
    z = 1.0
    r = problem.a.copy()
    run = _Run(problem, opts, x, _norm_inf(r), z0=z)
    while _norm_inf(r) > opts.tol and run.iterations < opts.maxit:
        C = _jacobian_parts(problem, x)
        np.fill_diagonal(C, 0.0)
        if z <= 0.0:
            return run.report(Method.NEWTON_GTH, x, Termination.SINGULAR_PIVOT)
        T = TripletMMatrix(C, np.full(n, z), COL)
        try:
            h = gth_solve(gth_factor(T, check=False), r)
        except SingularPivotError:
            return run.report(Method.NEWTON_GTH, x, Termination.SINGULAR_PIVOT)
        x = x + h
        z = (omt_sq + z * z) / (2.0 * z)
        r = tz.apply_quadratic(problem.tensor, h)
        run.record(x, _norm_inf(r), z)
    term = Termination.TOL_REACHED if _norm_inf(r) <= opts.tol else Termination.MAXIT
    return run.report(Method.NEWTON_GTH, x, term)


def _block_slices(n, block_sizes):
    if block_sizes is None:
        block_sizes = (n,)
    sizes = tuple(int(b) for b in block_sizes)
    if any(b <= 0 for b in sizes) or sum(sizes) != n:
        raise ValueError(f"block sizes {sizes} are not a partition of {n}")
    out = []
    start = 0
    for b in sizes:
        out.append(slice(start, start + b))
        start += b
    return out


def _offblock(C, slices):
    """N = M - R: the off-diagonal-block part of C, nonnegative."""
    N = C.copy()
    for s in slices:
        N[s, s] = 0.0
    return N


def block_jacobi(problem, opts):
    """GTH block Jacobi with the exact block triplet via the u-recurrence.

    Splits R_x = M - N along the block diagonal, solves M h = F(x) blockwise
    with GTH on the column triplet (offdiag of each block, u + 1^T N), and
    keeps the residual subtraction-free through F(x_next) = B h^2 + N h.
    u is updated after the step, since the recurrence needs the increment.
    """
    _require_pagerank_from_zero(problem, opts, "block_jacobi")
    n = problem.n
    slices = _block_slices(n, opts.block_sizes)
    omt = problem.one_minus_two_alpha
    omt_sq = omt * omt
    alpha = problem.alpha
    x = np.zeros(n)
    u = 1.0
    r = problem.a.copy()
    run = _Run(problem, opts, x, _norm_inf(r), z0=u)
    while _norm_inf(r) > opts.tol and run.iterations < opts.maxit:
        C = _jacobian_parts(problem, x)
        N = _offblock(C, slices)
        col_n = N.sum(axis=0)
        if u <= 0.0:
            return run.report(Method.BLOCK_JACOBI, x, Termination.SINGULAR_PIVOT)
        h = np.empty(n)
        try:
            for s in slices:
                Nb = C[s, s].copy()
                np.fill_diagonal(Nb, 0.0)
                T = TripletMMatrix(Nb, u + col_n[s], COL)
                h[s] = gth_solve(gth_factor(T, check=False), r[s])
        except SingularPivotError:
            return run.report(Method.BLOCK_JACOBI, x, Termination.SINGULAR_PIVOT)
        x = x + h
        u = (u * u + omt_sq + 4.0 * alpha * (col_n @ h)) / (2.0 * u)
        r = tz.apply_quadratic(problem.tensor, h) + N @ h
        run.record(x, _norm_inf(r), u)
    term = Termination.TOL_REACHED if _norm_inf(r) <= opts.tol else Termination.MAXIT
    return run.report(Method.BLOCK_JACOBI, x, term)


def block_jacobi_gth_variant(problem, opts):
    """Block Jacobi-GTH variant: Newton's z-recurrence in the block triplet.

    Each sweep solves T_k w_next = N w + (1-alpha) v - alpha P w^2 where T_k
    has the block off-diagonals and column sums z + 1^T N.  The smaller z
    (z <= u) lengthens the steps towards the minimal solution, trading the
    monotonicity guarantee for near-Newton convergence speed; overshoot is
    recorded by solve() when a reference is available, never raised.

    Known to fail on common inputs.  With several blocks an iterate often
    leaves the nonnegative cone and the run ends DIVERGED: on ex2 with
    blocks (2,2) and (1,3) and on intro with blocks (1,1) at every alpha of
    0.3, 0.49999, 0.5 and 0.6, and on ex1 with (1,3) at 0.49999 and 0.5.
    block_jacobi with blocks (1,1) on intro and (2,2) on ex2 converges at all
    of these but ex2 at 0.5.  With one block the variant ends DIVERGED at
    alpha >= 0.49999 on all three built-ins: the right-hand side
    N x + a - B x^2 carries an absolute error near 1e-16, which T_k^{-1}
    amplifies by 1/z as z -> 0.
    """
    _require_pagerank_from_zero(problem, opts, "block_jacobi_gth_variant")
    n = problem.n
    slices = _block_slices(n, opts.block_sizes)
    omt = problem.one_minus_two_alpha
    omt_sq = omt * omt
    x = np.zeros(n)
    z = 1.0
    r = _residual64(problem, x)
    run = _Run(problem, opts, x, _norm_inf(r), z0=z)
    while _norm_inf(r) > opts.tol and run.iterations < opts.maxit:
        b = problem.a - tz.apply_quadratic(problem.tensor, x)
        C = _jacobian_parts(problem, x)
        N = _offblock(C, slices)
        col_n = N.sum(axis=0)
        rhs = N @ x + b
        if z <= 0.0:
            return run.report(
                Method.BLOCK_JACOBI_GTH_VARIANT, x, Termination.SINGULAR_PIVOT
            )
        x_next = np.empty(n)
        try:
            for s in slices:
                Nb = C[s, s].copy()
                np.fill_diagonal(Nb, 0.0)
                T = TripletMMatrix(Nb, z + col_n[s], COL)
                x_next[s] = gth_solve(gth_factor(T, check=False), rhs[s])
        except SingularPivotError:
            return run.report(
                Method.BLOCK_JACOBI_GTH_VARIANT, x, Termination.SINGULAR_PIVOT
            )
        x = x_next
        z = (omt_sq + z * z) / (2.0 * z)
        r = _residual64(problem, x)
        run.record(x, _norm_inf(r), z)
        # a negative entry means the sweep left the nonnegative cone where
        # the triplet representation exists (possible: steps are non-monotone)
        if _norm_inf(x) > DIVERGENCE_LIMIT or (x < 0.0).any():
            return run.report(
                Method.BLOCK_JACOBI_GTH_VARIANT, x, Termination.DIVERGED
            )
    term = Termination.TOL_REACHED if _norm_inf(r) <= opts.tol else Termination.MAXIT
    return run.report(Method.BLOCK_JACOBI_GTH_VARIANT, x, term)


_DISPATCH = {
    Method.FIXED_POINT: fixed_point,
    Method.NEWTON: newton,
    Method.NEWTON_GTH: newton_gth,
    Method.BLOCK_JACOBI: block_jacobi,
    Method.BLOCK_JACOBI_GTH_VARIANT: block_jacobi_gth_variant,
}


def solve(problem, opts, reference=None):
    """Dispatch on opts.method; attach error histories when a reference is given.

    `reference` is the solution vector the errors are measured against (for
    instance from precision.reference_solution).  Per-iterate componentwise
    and normwise errors need record_history=True; the overshoot of the
    non-monotone variant is recorded as max over iterates of max(x_k - ref).
    """
    fn = _DISPATCH[opts.method]
    report = fn(problem, opts)
    if reference is not None:
        ref = np.asarray(reference, dtype=np.float64)
        if report.iterate_history is not None:
            e_cw = []
            e_norm = []
            nz = ref != 0.0
            for xk in report.iterate_history:
                e_cw.append(float(np.max(np.abs(xk - ref)[nz] / np.abs(ref)[nz])))
                e_norm.append(float(np.linalg.norm(xk - ref) / np.linalg.norm(ref)))
            report.e_cw_history = np.array(e_cw)
            report.e_norm_history = np.array(e_norm)
            report.max_overshoot = float(
                max(np.max(xk - ref) for xk in report.iterate_history)
            )
        else:
            report.max_overshoot = float(np.max(report.x - ref))
    return report
