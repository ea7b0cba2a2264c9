"""Iteration schemes for x = a + Bx^2 and multilinear PageRank.

Four methods run as step functions of one iteration loop, which owns the
stopping test, the histories and the singular-pivot and divergence exits:
plain fixed-point, Newton with a partial-pivoting solve, and two GTH methods
run by one driver, _gth_block_jacobi, which differ only in the column-sum
level of their triplet solves: the subtraction-free Newton-GTH (Newton's z)
and the GTH block Jacobi (the exact block level u; Newton-GTH is its
one-block case).  The block Jacobi-GTH variant is a fifth name for
Newton-GTH: with one block, the only form it takes, it is Newton-GTH.

Every GTH step solves its column triplets with mmatrix.gth_col_solve: one
elimination pass over the matrix with its column sums as the last row and
the right-hand side as a further column, split in blocks above
mmatrix.GTH_BLOCK unknowns, with no L or U formed.  In binary64 each leaf
block's elimination and back-substitution run as one compiled call
(mmatrix._GTH_C), with the bits of their Python statement.

Every method makes one tensor product per step, Problem.contract, which
gives the Jacobian part C = Bx: + B:x; Bx^2 = C x / 2 comes from the same C,
the halving exact.  Fixed-point and Newton contract the new iterate and
carry its C (or a + Bx^2) into the next step.  The GTH methods never
contract the iterate: they carry C_k from C_0 = 0 at x_0 = 0 as
C_{k+1} = C_k + G with G the contraction of the step h, and take the next
residual's Bh^2 = G h / 2 from the same G.  The steps of Newton-GTH and
block Jacobi are nonnegative, so these updates add nonnegative terms only
and stay subtraction-free.

The iterations run in the arithmetic of the problem's a.  On a Problem that
is binary64 throughout, stopping tests and right-hand sides included, since
these are the algorithms whose accuracy is analysed.  The pair-precision
reference (precision.reference_solution) runs the same drivers, newton and
_gth_block_jacobi, on precision.DD arrays: one loop, one stopping test and
one z-recurrence serve both.  Only the public residual() evaluates a binary64
result beyond binary64, to check it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .mmatrix import SingularPivotError, _zeros, gth_col_solve, plain_lu_solve
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


def _require_finite(name, values, total):
    """ValueError naming the first entry of values that is not finite; total
    is values.sum(), which is finite when every entry is."""
    if not math.isfinite(total):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"{name} must be finite; entry {bad[0] + 1} is {values[bad[0]]}")


class Problem:
    """One of two problems, x = a + Bx^2 in both.

    A general problem is (a, B), from from_general: tensor is B, and v,
    p_tensor, alpha and one_minus_two_alpha are None.  A PageRank problem
    is (v, P, alpha, and optionally 1 - 2 alpha), from from_pagerank, with
    a = (1 - alpha) v: tensor is None, and B = alpha P is never formed.
    Any other combination raises ValueError.  The solvers and the analysis
    read the tensor only through contract(); code that reads B's stored
    entries takes them as fl(alpha p) on a PageRank problem.
    """

    def __init__(self, a, tensor=None, v=None, p_tensor=None, alpha=None,
                 one_minus_two_alpha=None):
        self.a = np.asarray(a, dtype=np.float64)
        if tensor is None and p_tensor is None:
            raise ValueError("B is needed unless v, P and alpha are given")
        if self.a.shape != ((p_tensor if tensor is None else tensor).n,):
            raise ValueError("a and B dimensions disagree")
        _require_finite("a", self.a, self.a.sum())
        if (self.a < 0.0).any():
            raise ValueError("a must be nonnegative")
        fields = {"v": v, "P": p_tensor, "alpha": alpha,
                  "one_minus_two_alpha": one_minus_two_alpha}
        if tensor is not None:
            given = [name for name, value in fields.items() if value is not None]
            if given:
                raise ValueError(f"B is given with {', '.join(given)}: a general problem "
                                 "is (a, B) alone, a PageRank problem (v, P, alpha)")
        else:
            missing = [name for name in ("v", "P", "alpha") if fields[name] is None]
            if missing:
                raise ValueError(f"a PageRank problem needs {' and '.join(missing)}")
        self.tensor = tensor
        self.v = None if v is None else np.asarray(v, dtype=np.float64)
        self.p_tensor = p_tensor
        self.alpha = None if alpha is None else float(alpha)
        self.one_minus_two_alpha = None if alpha is None else 1.0 - 2.0 * self.alpha
        if one_minus_two_alpha is not None:
            # an exact 1 - 2 alpha differs from the rounded one by an ulp or two
            omt = float(one_minus_two_alpha)
            if not abs(omt - self.one_minus_two_alpha) <= 2.0 ** -51:
                raise ValueError(f"one_minus_two_alpha {omt!r} is not 1 - 2 alpha "
                                 f"= {self.one_minus_two_alpha!r}")
            self.one_minus_two_alpha = omt

    @classmethod
    def from_pagerank(cls, v, p_tensor, alpha, one_minus_two_alpha=None):
        """Build a = (1-alpha) v and keep P and alpha.

        Checks v's shape against P's n first, then alpha, then that v is
        finite and nonnegative, then the stochasticity of v and P.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (p_tensor.n,):
            raise ValueError(f"v has shape {v.shape}, but P has n = {p_tensor.n}")
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {alpha}")
        total = v.sum()
        _require_finite("v", v, total)
        if (v < 0.0).any():
            raise ValueError("v must be nonnegative")
        if abs(total - 1.0) > 1e-14:
            raise ValueError(f"v must be stochastic, 1^T v - 1 = {total - 1.0:.3e}")
        rep = tz.check_stochastic(p_tensor, target=1.0, tol=1e-13)
        if not rep.ok:
            raise ValueError(
                f"P unfolding column {rep.worst_column} sums off by {rep.max_deviation:.3e}"
            )
        return cls(
            a=(1.0 - alpha) * v,
            v=v,
            p_tensor=p_tensor,
            alpha=alpha,
            one_minus_two_alpha=one_minus_two_alpha,
        )

    @classmethod
    def from_general(cls, a, tensor):
        return cls(a=a, tensor=tensor)

    def contract(self, x):
        """C = Bx: + B:x, on a PageRank problem the product of P with alpha x.

        Every alpha problem of one stored P then shares P's one product
        structure, its slab or its slice matrix.  x is a binary64 vector of
        length n, as the drivers' iterates and steps are, and goes to the
        tensor's product unchecked: tensor.contract_sym is the checked entry.
        """
        if self.p_tensor is not None:
            return self.p_tensor._symmetric(self.alpha * x)
        return self.tensor._symmetric(x)

    @property
    def n(self):
        return len(self.a)

    @property
    def is_pagerank(self):
        return self.alpha is not None


@dataclass
class SolverOptions:
    """What solve() runs: the method, its stopping rule and its start.

    A run stops once the max-norm of its binary64 residual is at most tol,
    or after maxit steps.  block_sizes partitions the unknowns for
    block_jacobi (None is one block); block_jacobi_gth_variant takes one
    block only, and the other methods ignore it.  x0 is the start of
    Start.CUSTOM.  Every run keeps all its iterates (SolveReport.iterate_history):
    a copy of x_0, then each iterate as its step made it, never written
    again.
    """

    method: Method = Method.NEWTON_GTH
    tol: float = 1e-15
    maxit: int = 500
    block_sizes: tuple[int, ...] | None = None
    start: Start = Start.ZERO
    x0: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.tol < np.inf:
            raise ValueError(f"tol must be nonnegative and finite, got {self.tol}")
        if self.maxit < 0:
            raise ValueError("maxit must be nonnegative")


@dataclass
class SolveReport:
    method: Method
    x: np.ndarray
    iterations: int
    termination: Termination
    residual_history: np.ndarray
    iterate_history: list[np.ndarray]
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
    cancel to far below their size, as they do at a solution.  On a PageRank
    problem B's stored entries are fl(alpha p), alpha times each stored
    entry of P rounded once.  The solvers' stopping tests and right-hand
    sides do not use it: they evaluate in binary64, as the analysed
    algorithms do.
    """
    return dd_residual(problem, x).to_float()


def _residual_and_jacobian(problem, x):
    """r = a + Bx^2 - x in binary64 and C = Bx: + B:x, from one contraction."""
    C = problem.contract(x)
    return problem.a + 0.5 * (C @ x) - x, C


def _starting_vector(problem, opts):
    """x_0 in the arithmetic of problem.a; a binary64 x0 is taken exactly."""
    if opts.start is Start.V:
        if problem.v is None:
            raise ValueError("start=V needs a PageRank problem")
        return problem.v.copy()
    x = _zeros(problem.a, problem.n)
    if opts.start is Start.CUSTOM:
        if opts.x0 is None:
            raise ValueError("start=CUSTOM needs x0")
        x0 = np.asarray(opts.x0, dtype=np.float64)
        if x0.shape != (problem.n,):
            raise ValueError("x0 has the wrong shape")
        x[:] = x0
    return x


def _norm_inf(v):
    """max |v_i| as a float, NaN where an entry is NaN, 0.0 for an empty v.

    In binary64 the entry at argmax, which is the first NaN where there is
    one: a ufunc reduction costs twice as much at the drivers' sizes.
    """
    if not len(v):
        return 0.0
    if type(v) is not np.ndarray:  # pairs
        return float(abs(v).max())
    w = np.abs(v)
    return w.item(w.argmax())


def _diverged(x):
    """Whether max |x_i| > DIVERGENCE_LIMIT.

    In binary64 x . x >= DIVERGENCE_LIMIT^2 is asked first, at half the
    cost of the norm: the squares and their sums round monotonically, so it
    holds wherever an entry is past the limit (a NaN fails both tests).
    """
    if type(x) is np.ndarray and not x.dot(x) >= DIVERGENCE_LIMIT * DIVERGENCE_LIMIT:
        return False
    return _norm_inf(x) > DIVERGENCE_LIMIT


def _iterate(method, opts, x, r, z, step):
    """The iteration loop of every method, with its stopping rules and records.

    step(x, r, z) maps an iterate, its residual and its column-sum level z
    (None for the methods without one) to the next three.  A step raises
    SingularPivotError where it cannot go on, and the run then ends at the
    iterate that step was given.  A run ends DIVERGED once an iterate's
    max-norm exceeds DIVERGENCE_LIMIT.  Every iterate is kept, x_0 as a
    copy and the others as the steps return them: a step makes its iterate
    as a new array and writes into no iterate it was given.
    """
    tol, maxit = opts.tol, opts.maxit
    res = _norm_inf(r)
    res_hist = [res]
    iter_hist = [x.copy()]
    z_hist = None if z is None else [float(z)]
    iterations = 0
    while res > tol and iterations < maxit:
        try:
            x, r, z = step(x, r, z)
        except SingularPivotError:
            termination = Termination.SINGULAR_PIVOT
            break
        iterations += 1
        res = _norm_inf(r)
        res_hist.append(res)
        iter_hist.append(x)
        if z_hist is not None:
            z_hist.append(float(z))
        if _diverged(x):
            termination = Termination.DIVERGED
            break
    else:
        termination = Termination.TOL_REACHED if res <= tol else Termination.MAXIT
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
    """x_{k+1} = a + B x_k^2; monotone to the minimal solution from zero.

    The residual a + Bx_k^2 - x_k already holds a + Bx_k^2, so each step
    takes the next iterate from it: one product per iteration.  q is
    a + Bx^2 of the iterate the loop holds.
    """
    a, contract = problem.a, problem.contract
    x = _starting_vector(problem, opts)
    q = a + 0.5 * contract(x).dot(x)

    def step(x, r, z):
        nonlocal q
        x = q
        q = a + 0.5 * contract(x).dot(x)
        return x, q - x, z

    return _iterate(Method.FIXED_POINT, opts, x, q - x, None, step)


def newton(problem, opts):
    """Plain Newton: solve R_x h = r with partial-pivoting LU, x <- x + h.

    R_x = I - C takes the C of the residual's contraction: one product per
    step.  The solve is the arithmetic's own: plain_lu_solve in binary64,
    the lu_solve of precision.DD in pairs.
    """
    x = _starting_vector(problem, opts)
    r, C = _residual_and_jacobian(problem, x)
    lu_solve = getattr(type(C), "lu_solve", plain_lu_solve)
    eye = np.eye(problem.n)

    def step(x, r, z):
        nonlocal C
        x = x + lu_solve(eye - C, r)
        r, C = _residual_and_jacobian(problem, x)
        return x, r, z

    return _iterate(Method.NEWTON, opts, x, r, None, step)


def _check_gth(problem, opts, method):
    """ValueError where a GTH method cannot run, named by its function.

    Every GTH method needs a PageRank problem and start ZERO.  block_jacobi
    needs block sizes that partition n, and the variant one block of them;
    newton_gth ignores them.
    """
    name = method.name.lower()
    if not problem.is_pagerank:
        raise ValueError(f"{name} needs a PageRank problem")
    if opts.start is not Start.ZERO:
        raise ValueError(f"{name} targets the minimal solution; use start=ZERO")
    if method is Method.NEWTON_GTH:
        return
    slices = _block_slices(problem.n, opts.block_sizes)
    if method is Method.BLOCK_JACOBI_GTH_VARIANT and len(slices) > 1:
        raise ValueError("block_jacobi_gth_variant takes one block, got block sizes "
                         f"{tuple(opts.block_sizes)}; block_jacobi takes several")


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


def _off_diagonal_empty(block):
    """Whether a square block, binary64 or pairs, is zero off its diagonal.

    Compares nonzero counts (a NaN counts) of the block and of its diagonal,
    so the diagonal's values do not matter and nothing block-sized is made.
    """
    parts = (block.hi, block.lo) if hasattr(block, "hi") else (block,)
    return all(np.count_nonzero(a) == np.count_nonzero(a.diagonal()) for a in parts)


def _gth_sweep(C, slices, level, col_n, rhs, filled=None):
    """Solve M y = rhs block by block, each diagonal block of M a column triplet.

    Block s has the off-diagonal entries of C[s, s] and the column sums
    level + col_n[s], where col_n = 1^T N; each block is one fused
    gth_col_solve (_gth_block).  A level <= 0 gives no M-matrix and is
    reported as a singular pivot.

    col_n None is the one block of N = 0, as Newton-GTH has: C is the block
    and the level its every column sum, taken as they are, with no slice,
    no sums vector and no y to gather into; the block's solve is y, in its
    own memory.  Several blocks are solved in turn into y.
    """
    if float(level) <= 0.0:
        raise SingularPivotError(f"column-sum level {float(level)!r} is not positive")
    if col_n is None:
        return _gth_block(C, level, rhs, filled, 0)
    y = _zeros(rhs, len(rhs))
    for b, s in enumerate(slices):
        y[s] = _gth_block(C[s, s], level + col_n[s], rhs[s], filled, b)
    return y


def _gth_block(block, sums, rhs, filled, b):
    """Solve block b of a sweep, the column triplet (off-diagonal of block, sums).

    The diagonal of the block is never read.  A block with no off-diagonal
    entries, as every block of a first step from C = 0 is, is diagonal and
    solves by one division, which for rhs >= 0 is what the elimination
    gives bit for bit.  A block of one unknown has no off-diagonal entries
    and is never counted.  filled, where given, marks the blocks known to
    have an off-diagonal entry, one flag a block: a marked block is solved
    without a count, and a block whose count finds an entry is marked.
    Without it every larger block is counted on every step.
    """
    if not (filled and filled[b]):
        if len(rhs) == 1 or _off_diagonal_empty(block):
            return rhs / sums
        if filled is not None:
            filled[b] = True
    return gth_col_solve(block, sums, rhs)


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
    _check_gth(problem, opts, Method.NEWTON_GTH)
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
    _check_gth(problem, opts, Method.BLOCK_JACOBI)
    return _gth_block_jacobi(problem, opts, Method.BLOCK_JACOBI, opts.block_sizes)


def _gth_block_jacobi(problem, opts, method, block_sizes):
    """The driver of the GTH methods, and of the pair reference.

    From start ZERO it takes x_0 = 0, C_0 = 0, r_0 = a and u_0 = 1 with no
    product.  From another start, which only precision.reference_solution
    gives it, one contraction gives r_0 and C_0 and u_0 = 1 - 2 alpha 1^T x_0.
    Each step contracts once, G = alpha (Ph: + P:h).  Values follow the
    arithmetic of problem.a: binary64 ndarrays or precision.DD pairs.

    The level of the triplet solve is block Jacobi's u, which with one
    block, where N = 0, is Newton's z.
    """
    slices = _block_slices(problem.n, block_sizes)
    omt = problem.one_minus_two_alpha
    omt_sq = omt * omt
    alpha = problem.alpha
    x = _starting_vector(problem, opts)
    if opts.start is Start.ZERO:
        r, C, u = problem.a.copy(), _zeros(problem.a, (problem.n, problem.n)), 1.0
    else:
        r, C = _residual_and_jacobian(problem, x)
        u = 1.0 - 2.0 * alpha * x.sum()
    # In binary64 from C_0 = 0, C only adds G >= 0: an off-diagonal entry,
    # once there, stays, and a block that has one needs no count again.  The
    # pair reference's steps may take either sign, so its blocks are counted
    # on every step.
    filled = ([False] * len(slices) if opts.start is Start.ZERO and type(C) is np.ndarray
              else None)

    contract = problem.contract
    several = len(slices) > 1

    def step(x, r, z):
        nonlocal C
        # one block has N = 0, whose terms would add exact zeros: skip them
        N = col_n = None
        if several:
            N = _offblock(C, slices)
            col_n = N.sum(axis=0)
        h = _gth_sweep(C, slices, z, col_n, r, filled)
        top = z * z + omt_sq
        G = contract(h)
        C += G
        r = 0.5 * (G @ h)
        if N is not None:
            r = r + N @ h
            top = top + 4.0 * alpha * (col_n @ h)
        return x + h, r, top / (2.0 * z)

    return _iterate(method, opts, x, r, u, step)


def block_jacobi_gth_variant(problem, opts):
    """Block Jacobi-GTH variant with one block: Newton-GTH under its own name.

    With one block the variant's correction d = u - z to Newton's level is
    0, so it runs _gth_block_jacobi as Newton-GTH, bit for bit, and reports
    Method.BLOCK_JACOBI_GTH_VARIANT.  opts.block_sizes may be None or one
    block; several blocks raise ValueError (block_jacobi takes them).
    """
    _check_gth(problem, opts, Method.BLOCK_JACOBI_GTH_VARIANT)
    return _gth_block_jacobi(problem, opts, Method.BLOCK_JACOBI_GTH_VARIANT, None)


_DISPATCH = {
    Method.FIXED_POINT: fixed_point,
    Method.NEWTON: newton,
    Method.NEWTON_GTH: newton_gth,
    Method.BLOCK_JACOBI: block_jacobi,
    Method.BLOCK_JACOBI_GTH_VARIANT: block_jacobi_gth_variant,
}


def check_options(problem, opts):
    """Raise the ValueError that solve(problem, opts) would raise before its
    first step, from a GTH method's needs (_check_gth) or from the start."""
    if opts.method in (Method.FIXED_POINT, Method.NEWTON):
        _starting_vector(problem, opts)
    else:
        _check_gth(problem, opts, opts.method)


def solve(problem, opts, reference=None):
    """Dispatch on opts.method; attach error histories when a reference is given.

    `reference` is the solution vector the errors are measured against (for
    instance from precision.reference_solution).  Every iterate gets its
    componentwise and normwise error, and max_overshoot is the max over
    iterates of max(x_k - ref).  The iterates are stacked once and the
    errors taken over the stack; each normwise error is sqrt(d . d) / ||ref||,
    what np.linalg.norm computes for the one vector d = x_k - ref.
    """
    report = _DISPATCH[opts.method](problem, opts)
    if reference is not None:
        ref = np.asarray(reference, dtype=np.float64)
        D = np.array(report.iterate_history) - ref
        nz = ref != 0.0
        report.e_cw_history = (np.abs(D)[:, nz] / np.abs(ref)[nz]).max(axis=1)
        ref_norm = math.sqrt(ref.dot(ref))
        report.e_norm_history = np.array([math.sqrt(d.dot(d)) / ref_norm for d in D])
        report.max_overshoot = float(D.max())
    return report
