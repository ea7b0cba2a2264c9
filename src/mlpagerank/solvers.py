"""Iteration schemes for x = a + Bx^2 and multilinear PageRank.

Five methods run as step functions of one iteration loop, which owns the
stopping test, the histories and the singular-pivot and divergence exits:
plain fixed-point, Newton with a partial-pivoting solve, the subtraction-free
Newton-GTH, the GTH block Jacobi (exact block triplets via the u-recurrence;
Newton-GTH is its one-block case), and the block Jacobi-GTH variant that
reuses Newton's z-recurrence for cheaper, faster, non-monotone steps.

Every GTH step solves its column triplets with mmatrix.gth_col_solve: one
elimination pass that carries the right-hand side along, split in blocks
above mmatrix.GTH_BLOCK unknowns, with no L or U formed.

Newton-GTH and block Jacobi never contract B with the iterate.  They carry
the Jacobian part C_k = Bx_k: + B:x_k from step to step, starting from
C_0 = 0 at x_0 = 0, as C_{k+1} = C_k + G with G = alpha (Ph: + P:h), one
tensor.contract_sym of P, and take the next residual's Bh^2 = G h / 2 from
the same G.  Their steps are nonnegative, so these updates add nonnegative
terms only and stay subtraction-free; the halving is exact.

The iterations run in binary64 throughout, stopping tests and right-hand
sides included, since these are the algorithms whose accuracy is analysed.
Only the public residual() evaluates beyond binary64, to check a result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .mmatrix import SingularPivotError, gth_col_solve, plain_lu_solve
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
                 one_minus_two_alpha=None):
        self.a = np.asarray(a, dtype=np.float64)
        self.tensor = tensor
        if self.a.shape != (tensor.n,):
            raise ValueError("a and B dimensions disagree")
        if (self.a < 0.0).any():
            raise ValueError("a must be nonnegative")
        self.v = None if v is None else np.asarray(v, dtype=np.float64)
        self.p_tensor = p_tensor
        self.alpha = None if alpha is None else float(alpha)
        if one_minus_two_alpha is not None:
            self.one_minus_two_alpha = float(one_minus_two_alpha)
        elif self.alpha is not None:
            self.one_minus_two_alpha = 1.0 - 2.0 * self.alpha
        else:
            self.one_minus_two_alpha = None

    @classmethod
    def from_pagerank(cls, v, p_tensor, alpha, one_minus_two_alpha=None):
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


def _norm_inf(v):
    return float(np.abs(v).max()) if len(v) else 0.0


def _too_large(x):
    return _norm_inf(x) > DIVERGENCE_LIMIT


def _iterate(method, opts, x, r, z, step, diverged=_too_large):
    """The iteration loop of every method, with its stopping rules and records.

    step(x, r, z) maps an iterate, its residual and its column-sum level z
    (None for the methods without one) to the next three.  A step raises
    SingularPivotError where it cannot go on, and the run then ends at the
    iterate that step was given.  After each step, diverged(x) decides
    whether the run ends DIVERGED.
    """
    res_hist = [_norm_inf(r)]
    iter_hist = [x.copy()] if opts.record_history else None
    z_hist = None if z is None else [z]
    iterations = 0
    while res_hist[-1] > opts.tol and iterations < opts.maxit:
        try:
            x, r, z = step(x, r, z)
        except SingularPivotError:
            termination = Termination.SINGULAR_PIVOT
            break
        iterations += 1
        res_hist.append(_norm_inf(r))
        if iter_hist is not None:
            iter_hist.append(x.copy())
        if z_hist is not None:
            z_hist.append(z)
        if diverged(x):
            termination = Termination.DIVERGED
            break
    else:
        termination = (Termination.TOL_REACHED if res_hist[-1] <= opts.tol
                       else Termination.MAXIT)
    return SolveReport(
        method=method,
        x=x,
        iterations=iterations,
        termination=termination,
        residual_history=np.array(res_hist),
        iterate_history=iter_hist,
        z_history=None if z_hist is None else np.array(z_hist),
    )


def fixed_point(problem, opts):
    """x_{k+1} = a + B x_k^2; monotone to the minimal solution from zero."""
    def step(x, r, z):
        x = problem.a + tz.apply_quadratic(problem.tensor, x)
        return x, _residual64(problem, x), z

    x = _starting_vector(problem, opts)
    return _iterate(Method.FIXED_POINT, opts, x, _residual64(problem, x), None, step)


def _jacobian_parts(problem, x):
    """C = Bx: + B:x; R_x = I - C."""
    B = problem.tensor
    return tz.contract_left(B, x) + tz.contract_right(B, x)


def newton(problem, opts):
    """Plain Newton: solve R_x h = r with partial-pivoting LU, x <- x + h."""
    def step(x, r, z):
        R = np.eye(problem.n) - _jacobian_parts(problem, x)
        x = x + plain_lu_solve(R, r)
        return x, _residual64(problem, x), z

    x = _starting_vector(problem, opts)
    return _iterate(Method.NEWTON, opts, x, _residual64(problem, x), None, step)


def _require_pagerank_from_zero(problem, opts, name):
    if not problem.is_pagerank:
        raise ValueError(f"{name} needs a PageRank problem")
    if problem.p_tensor is None:
        raise ValueError(f"{name} needs the PageRank tensor P (Problem.from_pagerank)")
    if opts.start is not Start.ZERO:
        raise ValueError(f"{name} targets the minimal solution; use start=ZERO")


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


def _gth_sweep(C, slices, level, col_n, rhs):
    """Solve M y = rhs block by block, each diagonal block of M a column triplet.

    Block s has the off-diagonal entries of C[s, s] and the column sums
    level + col_n[s], where col_n = 1^T N; each block is one fused
    gth_col_solve.  A level <= 0 gives no M-matrix and is reported as a
    singular pivot.
    """
    if level <= 0.0:
        raise SingularPivotError(f"column-sum level {level!r} is not positive")
    y = np.empty(len(rhs))
    for s in slices:
        # gth_col_solve never reads the diagonal of C[s, s]
        y[s] = gth_col_solve(C[s, s], level + col_n[s], rhs[s])
    return y


def newton_gth(problem, opts):
    """Subtraction-free Newton: GTH solves plus the z-recurrence.

    State (x, z, r) keeps the invariants z = 1 - 2 alpha (1^T x) and
    r = (1-alpha) v + alpha P x^2 - x without ever subtracting like-signed
    values: the step solves the column triplet (offdiag(C), z 1) with
    C = Bx: + B:x, the residual updates as alpha P h^2, and z follows
    z <- ((1-2 alpha)^2 + z^2) / (2 z).  C is updated from the step,
    C_{k+1} = C_k + G with G = alpha (Ph: + P:h) from one contract_sym, and
    Bh^2 = G h / 2; h >= 0 keeps both updates subtraction-free.

    This is block_jacobi with a single block, where N = 0 turns the
    u-recurrence into the z-recurrence; opts.block_sizes is ignored.
    """
    _require_pagerank_from_zero(problem, opts, "newton_gth")
    return _gth_block_jacobi(problem, opts, Method.NEWTON_GTH, None)


def block_jacobi(problem, opts):
    """GTH block Jacobi with the exact block triplet via the u-recurrence.

    Splits R_x = M - N along the block diagonal, solves M h = F(x) blockwise
    with GTH on the column triplet (offdiag of each block, u + 1^T N), and
    keeps the residual subtraction-free through F(x_next) = B h^2 + N h.
    u is updated after the step, since the recurrence needs the increment.
    The Jacobian part C = Bx: + B:x of R_x = I - C is updated from the step,
    C_{k+1} = C_k + G with G = alpha (Ph: + P:h) from one contract_sym, and
    Bh^2 = G h / 2; h >= 0 keeps both updates subtraction-free.
    """
    _require_pagerank_from_zero(problem, opts, "block_jacobi")
    return _gth_block_jacobi(problem, opts, Method.BLOCK_JACOBI, opts.block_sizes)


def _gth_block_jacobi(problem, opts, method, block_sizes):
    """The driver of newton_gth and block_jacobi, from x_0 = 0 and C_0 = 0.

    Each step contracts P once, G = alpha (Ph: + P:h); a Tensor3 P keeps the
    slice matrix for that for every alpha problem built from it.
    """
    slices = _block_slices(problem.n, block_sizes)
    omt = problem.one_minus_two_alpha
    omt_sq = omt * omt
    alpha = problem.alpha
    P = problem.p_tensor
    C = np.zeros((problem.n, problem.n))

    def step(x, r, u):
        nonlocal C
        N = _offblock(C, slices)
        col_n = N.sum(axis=0)
        h = _gth_sweep(C, slices, u, col_n, r)
        u_next = (u * u + omt_sq + 4.0 * alpha * (col_n @ h)) / (2.0 * u)
        G = tz.contract_sym(P, alpha * h)
        C += G
        return x + h, 0.5 * (G @ h) + N @ h, u_next

    return _iterate(method, opts, np.zeros(problem.n), problem.a.copy(), 1.0, step)


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
    slices = _block_slices(problem.n, opts.block_sizes)
    omt = problem.one_minus_two_alpha
    omt_sq = omt * omt

    def step(x, r, z):
        b = problem.a - tz.apply_quadratic(problem.tensor, x)
        C = _jacobian_parts(problem, x)
        N = _offblock(C, slices)
        x = _gth_sweep(C, slices, z, N.sum(axis=0), N @ x + b)
        return x, _residual64(problem, x), (omt_sq + z * z) / (2.0 * z)

    def diverged(x):
        # a negative entry means the sweep left the nonnegative cone where
        # the triplet representation exists (possible: steps are non-monotone)
        return _too_large(x) or (x < 0.0).any()

    x = np.zeros(problem.n)
    return _iterate(Method.BLOCK_JACOBI_GTH_VARIANT, opts, x, _residual64(problem, x),
                    1.0, step, diverged)


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
