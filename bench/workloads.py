"""The four workloads, the ops they run, and the checks on every op.

Each workload builds its inputs from the seed, turns them into the program's
Problems in setup(), which runs before every round, and runs one fixed round
of ops per call to round().
Every op goes through Recorder.op, which times it, checks its output against
the generated data and counts it as failed instead of raising.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import time
from collections import Counter, defaultdict

import numpy as np

import generate

# Open defects from the ROADMAP, with the failure text each one produces.  An
# op tagged with a defect still counts as failed when it fails; the tag only
# says the failure is already known, so that a new kind of failure shows up as
# an incorrect run instead of hiding among the known ones.
KNOWN_DEFECTS = {
    "graph-negative-dangling": r"^ValueError: entry \(.*\) has invalid value -",
    "variant-one-block": r"^exit 3 ",
    "perturb-additive-generator": r"^ValueError|all_within_bound is false",
    "bad-flag-exit-code": r"^\w+Error",
}

RESIDUAL_TOL = 1e-13  # |a + Bx^2 - x|_inf of a float solution, all entries <= 1
SUM_TOL = 1e-12  # |1^T x - s| * |1 - 2 alpha|, s the known sum of the solution
EPSILON = 1e-8  # size of the componentwise perturbations


def omt(alpha):
    return generate.exact_one_minus_two_alpha(alpha)


# On a small shared VM the speed of the host drifts by up to 2x over minutes,
# and not alike for all code: work bound by the processor core and work bound
# by memory drift apart.  Every timed op is therefore host-adjusted: its
# measured time is scaled by a calibration loop's nominal time over the loop's
# time measured just before and just after the op, at most CALIBRATION_EVERY_S
# apart, with the loop that is bound by the same resource as the op.  The loops
# are the benchmark's own code, so a change to the program moves the adjusted
# times as it moves the measured ones.
CALIBRATION_EVERY_S = 0.25


class CoreLoop:
    """Interpreted steps on a small array, then vectorised passes over a
    cache-resident one: bound by the processor core, like most ops here."""

    name = "core"
    nominal_s = 1.5e-3

    def __init__(self):
        self.small = np.arange(8.0)
        self.medium = np.linspace(0.0, 1.0, 4096)

    def run(self):
        for _ in range(300):
            s = float((self.small * 1.5 + 2.0).sum())
            s = [s, s + 1.0][0]
        for _ in range(100):
            s = float((self.medium * 1.5 + 2.0).sum())


class GatherLoop:
    """One contraction-like gather and bincount over 864,000 triplets, 14 MB:
    bound by memory, like Newton steps on a dense n = 120 tensor."""

    name = "gather"
    nominal_s = 1.5e-2
    n = 120

    def __init__(self):
        rng = np.random.default_rng(0)
        size = 864_000
        self.rows = rng.integers(self.n, size=size, dtype=np.int32)
        self.cols = rng.integers(self.n * self.n, size=size, dtype=np.int32)
        self.vals = rng.random(size)
        self.x = rng.random(self.n)

    def run(self):
        w = self.vals * self.x[self.cols % self.n]
        np.bincount(self.rows * self.n + self.cols // self.n, weights=w,
                    minlength=self.n * self.n)


def best_of_three(loop):
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        loop.run()
        best = min(best, time.perf_counter() - t0)
    return best


class Recorder:
    """Counts ops, keeps the latencies of the ones that passed, runs self-checks."""

    def __init__(self, calibration):
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()  # "kind [defect]" -> failed ops
        self.examples = {}  # "kind [defect]" -> first failure reason
        self.unexplained = 0  # failures no known defect accounts for
        self.selfcheck = []  # violations of the benchmark's own invariants
        self.latency = defaultdict(lambda: defaultdict(list))  # kind -> group -> adjusted s
        self.raw = defaultdict(list)  # kind -> measured s, before the host adjustment
        self.busy_s = 0.0  # adjusted time of all outermost ops, passed or failed
        self.busy_raw_s = 0.0  # the same, measured
        self.solves = 0  # float solves that passed their checks
        self.computed = defaultdict(dict)  # name -> op key -> value
        self.e_cw = []  # componentwise error of float solves against a reference
        self.calibration = calibration  # op kind -> calibration loop
        self.calibrations = defaultdict(list)  # loop name -> measured seconds
        self._calibrated_at = {}  # loop name -> perf_counter() after its last run
        self._depth = 0  # ops in progress: an op may run others inside it
        self._first = {}

    def _calibrated(self, loop):
        """The loop's latest time, measured again when it is stale."""
        stale = time.perf_counter() - self._calibrated_at.get(loop.name, -math.inf)
        if self._depth == 0 and stale > CALIBRATION_EVERY_S:
            self.calibrations[loop.name].append(best_of_three(loop))
            self._calibrated_at[loop.name] = time.perf_counter()
        return self.calibrations[loop.name][-1]

    def op(self, kinds, group, call, check, defect=None):
        """Run call(), check its result, and return it, or None if the op failed."""
        self.attempted += 1
        loop = self.calibration(kinds[0])
        before = self._calibrated(loop)
        self._depth += 1
        t0 = time.perf_counter()
        try:
            result = call()
            reason = None
        except Exception as exc:  # a raising op is a failed op; the run goes on
            result, reason = None, f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            self._depth -= 1
        taken = elapsed * loop.nominal_s * 2.0 / (before + self._calibrated(loop))
        if self._depth == 0:
            self.busy_s += taken
            self.busy_raw_s += elapsed
        if reason is None:
            try:
                reason = check(result)
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self._fail(kinds[0], reason, defect)
            return None
        for kind in kinds:
            self.sample(kind, group, taken, elapsed)
        return result

    def sample(self, kind, group, taken, elapsed):
        """Keep the time of a passed op, adjusted and measured."""
        self.latency[kind][group].append(taken)
        self.raw[kind].append(elapsed)

    def _fail(self, kind, reason, defect):
        self.failed += 1
        known = defect is not None and re.search(KNOWN_DEFECTS[defect], reason)
        label = f"{kind} [{defect if known else 'unexplained'}]"
        if not known:
            self.unexplained += 1
        self.failures[label] += 1
        self.examples.setdefault(label, reason[:160])

    def repeat(self, key, value):
        """Self-check: the op `key` gives the same output every time it runs."""
        first = self._first.setdefault(key, value)
        if first != value:
            self.selfcheck.append(f"{key}: output differs between repeats")

    def count(self, name, key, value):
        """Record a computed count; it must repeat exactly for the same key."""
        self.repeat((name, key), value)
        self.computed[name][key] = value


def solution_error(x, U, v, alpha, stochastic=False):
    """Why the float solution x of x = (1-alpha) v + alpha P x^2 is wrong, or None.

    Checked against the data alone: nonnegative, small residual, and the sum
    1^T x that column-stochastic P forces, 1 for the stochastic solution and
    min(1, (1-alpha)/alpha) for the minimal one.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != v.shape or not np.isfinite(x).all():
        return "x is not a finite vector of the right length"
    if (x < 0.0).any():
        return f"negative entry {x.min():.3e}"
    a = float(alpha)
    res = np.abs((1.0 - a) * v + a * (U @ np.kron(x, x)) - x).max()
    if res > RESIDUAL_TOL:
        return f"residual {res:.3e}"
    gap = omt(alpha)
    target = 1.0 if stochastic or a <= 0.5 else (1.0 - a) / a
    if gap != 0.0 and abs(x.sum() - target) * abs(gap) > SUM_TOL:
        return f"1^T x = {x.sum()!r}, expected {target!r}"
    return None


def cw_distance(x_tilde, x):
    """max_i |x~_i - x_i| / |x_i|, with 0/0 = 0 and b/0 = inf."""
    x_tilde = np.asarray(x_tilde, dtype=np.float64).ravel()
    x = np.asarray(x, dtype=np.float64).ravel()
    nz = x != 0.0
    if (x_tilde[~nz] != 0.0).any():
        return math.inf
    return float((np.abs(x_tilde[nz] - x[nz]) / np.abs(x[nz])).max(initial=0.0))


def tensor_counts(rec, key, P):
    """Computed sizes of a stored tensor: entries, bytes held, flops of one Bx^2."""
    names = getattr(type(P), "__slots__", None) or vars(P)
    nbytes = sum(getattr(P, name).nbytes for name in names
                 if not name.startswith("_") and isinstance(getattr(P, name, None), np.ndarray))
    rec.count("tensor.nnz", key, P.nnz)
    rec.count("tensor.bytes", key, nbytes)
    rec.count("tensor.flops_per_call", key, 3 * P.nnz)  # b * x_j * x_k, then add


class Workload:
    """Shared pieces: PageRank problems at exact 1 - 2 alpha, checked float solves."""

    headline = "solve"  # op kind whose mean is op_mean_s
    setups = 1  # set-ups before each round
    # Nominal seconds of one round with its set-ups on a 2-vCPU x86-64 VM;
    # with --seconds it fixes how many rounds a run makes.
    round_s = 1.0

    def __init__(self, mlp, seed, workdir):
        self.mlp = mlp
        self.rng = np.random.default_rng(seed)
        self.built = {}  # alpha -> Problem, from the latest set-up
        self.core = CoreLoop()

    def calibration(self, kind):
        """The calibration loop bound by the same resource as ops of this kind."""
        return self.core

    def problems(self, P, v, alphas):
        Problem = self.mlp.solvers.Problem
        return {a: Problem.from_pagerank(v, P, float(a), one_minus_two_alpha=omt(a))
                for a in alphas}

    def setup_op(self, rec, build, defect=None):
        return rec.op(("setup",), None, build, lambda built: None, defect)

    def float_solve(self, rec, key, problem, U, v, alpha):
        solvers = self.mlp.solvers

        def check(rep):
            if rep.termination is not solvers.Termination.TOL_REACHED:
                return f"termination {rep.termination.value}"
            return solution_error(rep.x, U, v, alpha)

        rep = rec.op(("solve",), alpha,
                     lambda: solvers.solve(problem, solvers.SolverOptions()), check)
        if rep is not None:
            rec.solves += 1
            rec.repeat(("x",) + key, rep.x.tobytes())
            rec.count("solvers.iterations", key, rep.iterations)
        return rep


def dense_setup(workload, rec):
    """Build P from the generated unfolding and the Problems at each alpha, repeatedly.

    Returns the last build that succeeded, or the workload's current one.
    """
    Tensor3 = workload.mlp.tensor.Tensor3
    built = workload.built
    for _ in range(workload.setups):
        done = workload.setup_op(rec, lambda: workload.problems(
            Tensor3.from_unfolding(workload.U), workload.v, workload.alphas))
        if done is not None:
            built = done
            tensor_counts(rec, "P", built[workload.alphas[0]].p_tensor)
    return built


class DenseNewton(Workload):
    """Newton-GTH from zero on one dense random column-stochastic P."""

    n = 120
    alphas = ("0.3", "0.49", "0.4999", "0.6")
    round_s = 9.0

    def __init__(self, mlp, seed, workdir):
        super().__init__(mlp, seed, workdir)
        self.U = generate.stochastic_unfolding(self.rng, self.n)
        self.v = generate.teleport_vector(self.rng, self.n)
        self.gather = GatherLoop()

    def calibration(self, kind):
        # A solve streams the 40 MB tensor; the set-up is interpreted code.
        return self.gather if kind == "solve" else self.core

    def setup(self, rec):
        self.built = dense_setup(self, rec)

    def round(self, rec):
        for a, p in self.built.items():
            self.float_solve(rec, (a,), p, self.U, self.v, a)


class GraphPipeline(Workload):
    """MatrixMarket -> three-cycle PageRank tensor -> Newton-GTH, one graph at a time.

    Each graph is set up, solved and dropped before the next one, as a user
    would run the pipeline, so the peak RSS is that of one graph whichever
    graphs the negative-dangling defect hits.
    """

    # One size, so that the defect does not change the mix of sizes behind
    # the means.
    n = 80
    n_graphs = 12
    mean_degree = 8
    nu = 0.1
    alphas = ("0.3", "0.49")
    round_s = 23.0
    # A graph's whole pipeline, set-up and solves, is one op_mean_s sample.
    headline = "pipeline"

    def __init__(self, mlp, seed, workdir):
        super().__init__(mlp, seed, workdir)
        self.graphs = []
        for g in range(self.n_graphs):
            path = os.path.join(workdir, f"graph{g}.mtx")
            generate.write_symmetric_graph(self.rng, self.n, self.mean_degree, path)
            self.graphs.append((path, int(self.rng.integers(2**31))))

    def _build(self, path, v_seed):
        ingest = self.mlp.ingest
        adj = ingest.read_matrix_market(path)
        v = ingest.random_teleport_vector(adj.n, v_seed)
        return self.problems(ingest.build_pagerank_tensor(adj, v, self.nu), v, self.alphas)

    def setup(self, rec):
        """Nothing is held across graphs: round() sets each one up in turn."""

    def round(self, rec):
        for g, (path, v_seed) in enumerate(self.graphs):
            busy, busy_raw = rec.busy_s, rec.busy_raw_s
            built = self.setup_op(rec, lambda: self._build(path, v_seed),
                                  defect="graph-negative-dangling")
            if built is None:
                continue
            P = built[self.alphas[0]].p_tensor
            tensor_counts(rec, g, P)
            U = P.unfolding()
            solved = [self.float_solve(rec, (g, a), p, U, p.v, a) for a, p in built.items()]
            if all(rep is not None for rep in solved):
                rec.sample(self.headline, None, rec.busy_s - busy, rec.busy_raw_s - busy_raw)


class DDReference(Workload):
    """Double-double reference, float accuracy, kappa/omega and perturbation trials."""

    n = 24
    alphas = ("0.3", "0.49999")
    repeats = 3  # float solves after each reference solve, spread over the round
    trials = 2
    setups = 5
    headline = "reference"
    round_s = 11.2

    def __init__(self, mlp, seed, workdir):
        super().__init__(mlp, seed, workdir)
        self.U = generate.stochastic_unfolding(self.rng, self.n)
        self.v = generate.teleport_vector(self.rng, self.n)
        self.trial_seeds = [int(s) for s in self.rng.integers(2**31, size=self.trials)]

    def setup(self, rec):
        self.built = dense_setup(self, rec)

    def _reference(self, rec, key, alpha, problem):
        def check(ref):
            if not ref.converged:
                return f"reference did not converge, residual {ref.residual_norm:.3e}"
            return None if (ref.x >= 0.0).all() else "negative entry in the reference"

        ref = rec.op(("reference",), alpha,
                     lambda: self.mlp.precision.reference_solution(problem), check)
        if ref is not None:
            rec.count("precision.reference_iterations", key, ref.iterations)
        return ref

    def _float_solves(self, rec, alpha, problem, m):
        for _ in range(self.repeats):
            rep = self.float_solve(rec, (alpha,), problem, self.U, self.v, alpha)
            if rep is not None:
                rec.e_cw.append(cw_distance(rep.x, m))

    def _trial(self, rec, alpha, problem, m, omega, seed):
        analysis = self.mlp.analysis
        perturbed = analysis.componentwise_zero_sum_perturb(problem, EPSILON, seed)
        eps = max(cw_distance(perturbed.v, problem.v),
                  cw_distance(perturbed.p_tensor.unfolding(), problem.p_tensor.unfolding()))
        ref = self._reference(rec, (alpha, seed), alpha, perturbed)
        if ref is None:
            return "the reference of the perturbed problem failed"
        bound = analysis.bound_omega(eps, omega, self.n)
        if not bound.applicable:
            return f"omega bound not applicable at epsilon {eps:.3e}"
        observed = cw_distance(ref.x, m)
        if not observed <= bound.bound:
            return f"d_cw {observed:.3e} exceeds the omega bound {bound.bound:.3e}"
        return None

    def round(self, rec):
        analysis = self.mlp.analysis
        for a, p in self.built.items():
            ref = self._reference(rec, (a,), a, p)
            if ref is None:
                continue
            self._float_solves(rec, a, p, ref.x)

            def conditioning():
                y = analysis.compute_y(p, ref.x)
                return analysis.kappa(ref.x, y), analysis.omega(p, ref.x)

            cond = rec.op(("analysis",), a, conditioning,
                          lambda ko: None if min(ko) >= 0.0 else f"negative condition {ko}")
            if cond is None:
                continue
            for seed in self.trial_seeds:
                rec.op(("trial",), a,
                       lambda: self._trial(rec, a, p, ref.x, cond[1], seed),
                       lambda reason: reason)
                self._float_solves(rec, a, p, ref.x)


class BuiltinsCLI(Workload):
    """A fixed script of in-process cli.main calls on the built-in instances."""

    builtins = ("intro", "ex1", "ex2")
    alphas = ("0.3", "0.49999", "0.5", "0.6")
    perturb_alphas = ("0.3", "0.49999", "0.6")  # at 1/2 kappa is infinite
    methods = ("fixed-point", "newton", "newton-gth", "block-jacobi",
               "block-jacobi-gth-variant")
    setups = 2
    headline = "cli"
    round_s = 2.3

    def __init__(self, mlp, seed, workdir):
        super().__init__(mlp, seed, workdir)
        # The script is fixed, perturbation seed included, so which calls pass
        # and so the mix of calls behind the timings is the same for every
        # seed; the seed sets the order of the calls in each round.
        self.perturb_seed = "0"
        self.calls = self._script()

    @staticmethod
    def _expected_exit(method, alpha):
        # fixed-point converges linearly at a rate -> 1 as alpha -> 1/2, so
        # there it runs into the default limit of 500 iterations (exit 2)
        return 2 if method == "fixed-point" and alpha in ("0.49999", "0.5") else 0

    def _script(self):
        """One round: (argv, expected exit code, checker or None, known defect)."""
        calls = []
        for b in self.builtins:
            for a in self.alphas:
                inst = ["--builtin", b, "--alpha", a, "--one-minus-two-alpha", repr(omt(a))]
                for m in self.methods:
                    code = self._expected_exit(m, a)
                    calls.append((["solve", *inst, "--method", m], code,
                                  self._solution_check(b, a) if code == 0 else None,
                                  "variant-one-block" if m == self.methods[-1] else None))
                code = max(self._expected_exit(m, a) for m in self.methods)
                calls.append((["compare", *inst, "--methods", ",".join(self.methods)],
                              code, self._compare_check(a), "variant-one-block"))
                if a in self.perturb_alphas:
                    argv = ["perturb", *inst, "--epsilon", repr(EPSILON), "--trials", "3",
                            "--seed", self.perturb_seed]
                    for extra in ([], ["--reference"]):
                        calls.append((argv + extra, 0, self._perturb_check,
                                      "perturb-additive-generator"))
        # the two published points
        ingest = self.mlp.ingest
        calls.append((["solve", "--builtin", "ex1", "--alpha", "0.49999",
                       "--one-minus-two-alpha", repr(omt("0.49999"))], 0,
                      self._solution_check("ex1", "0.49999", ingest.EX1_SOLUTION_0_49999),
                      None))
        calls.append((["solve", "--builtin", "ex2", "--alpha", "0.9951", "--start", "v",
                       "--method", "newton"], 0,
                      self._solution_check("ex2", "0.9951", ingest.EX2_SOLUTION_0_9951,
                                           stochastic=True), None))
        # bad input, documented to exit 64
        bad = ["--builtin", "ex1", "--alpha", "0.3"]
        for argv in (["perturb", *bad, "--epsilon", "1e-8", "--trials", "0"],
                     ["solve", *bad, "--method", "block-jacobi", "--block-sizes", "a,b"],
                     ["solve", *bad, "--tol", "-1"]):
            calls.append((argv, 64, None, "bad-flag-exit-code"))
        return calls

    def _solution_check(self, builtin, alpha, published=None, stochastic=False):
        def check(stdout):
            U, v = self.data[builtin, alpha]
            x = np.array(json.loads(stdout)["x"])
            reason = solution_error(x, U, v, alpha, stochastic)
            if reason is None and published is not None:
                # within one unit of the last printed digit: the published
                # values are partly rounded and partly truncated
                unit = 10.0 ** (np.floor(np.log10(published)) - 4)
                if (np.abs(x - published) > unit).any():
                    return f"x = {x.tolist()} does not match the published digits"
            return reason
        return check

    def _compare_check(self, alpha):
        def check(stdout):
            for line in stdout.splitlines():
                row = json.loads(line)
                code = self._expected_exit(row["method"], alpha)
                want = "maxit" if code == 2 else "tol_reached"
                if row["termination"] != want:
                    return f"{row['method']} ended with {row['termination']}"
            return None
        return check

    @staticmethod
    def _perturb_check(stdout):
        return None if json.loads(stdout)["all_within_bound"] else "all_within_bound is false"

    def setup(self, rec):
        instances = [(b, a) for b in self.builtins for a in self.alphas] + [("ex2", "0.9951")]
        ingest = self.mlp.ingest
        for _ in range(self.setups):
            built = self.setup_op(rec, lambda: {
                (b, a): ingest.builtin(b, float(a), one_minus_two_alpha=omt(a))
                for b, a in instances})
            if built is not None:
                for key, p in built.items():
                    tensor_counts(rec, key, p.p_tensor)
                self.data = {key: (p.p_tensor.unfolding(), p.v) for key, p in built.items()}

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.mlp.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def round(self, rec):
        for i in self.rng.permutation(len(self.calls)):
            argv, code, check, defect = self.calls[i]

            def verdict(result, code=code, check=check):
                got, stdout = result
                if got != code:
                    return f"exit {got} (expected {code})"
                return check(stdout) if check else None

            # a solve call that must reach the tolerance is also a float solve
            solve = argv[0] == "solve" and code == 0
            result = rec.op(("cli", "solve") if solve else ("cli",), None,
                            lambda: self._cli(argv), verdict, defect)
            if result is None:
                continue
            rec.repeat(tuple(argv), result)
            if solve:
                rec.solves += 1
                rec.count("solvers.iterations", tuple(argv), json.loads(result[1])["iterations"])
            if argv[0] == "compare":
                rec.e_cw.extend(row["e_cw_final"] for row in map(json.loads, result[1].splitlines())
                                if row["termination"] == "tol_reached")


WORKLOADS = {
    "dense-newton": DenseNewton,
    "graph-pipeline": GraphPipeline,
    "dd-reference": DDReference,
    "builtins-cli": BuiltinsCLI,
}
