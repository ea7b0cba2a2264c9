"""Command-line interface: solve, perturb, ingest, compare.

Exit codes: 0 tolerance reached, 2 iteration limit, 3 numerical failure,
64 usage error.  All numeric output is printed with 17 significant digits
and every CSV starts with a schema comment line, so byte-identical reruns
are reproducible from (config, seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import analysis, ingest, precision
from . import tensor as tz
from .mmatrix import SingularPivotError
from .solvers import (Method, Problem, SolverOptions, Start, Termination, check_options,
                      solve)

EXIT_OK = 0
EXIT_MAXIT = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

CSV_SCHEMA = "mlpagerank-csv-v1"
SIZE_HELP = ("its n must leave a dense n x n float64 array (8 n^2 bytes) within "
             "the machine's physical memory")
CUBE_HELP = ("all n^3 entries of P are formed, so its n must leave a dense n x n x n "
             "float64 array (8 n^3 bytes) within the machine's physical memory")
TOL_HELP = ("stop once the max-norm of the binary64 residual a + Bx^2 - x, as the "
            "iteration computes it, is at most TOL (default %(default)s)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _fmt(x):
    return f"{float(x):.17g}"


def _write_csv(path, command, header, rows):
    """The schema line, the header, then one line per row: floats by _fmt,
    None as an empty field, anything else by str."""
    def cell(value):
        return "" if value is None else _fmt(value) if isinstance(value, float) else str(value)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {CSV_SCHEMA} {command}\n{header}\n")
        for row in rows:
            fh.write(",".join(map(cell, row)) + "\n")


def _read_vector(path):
    """One value per line, blank lines skipped; a malformed line is FILE:LINE."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    values.append(float(line))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: expected one value") from None
    return np.array(values)


def _add_instance_args(p, graph_size=SIZE_HELP, tensor_size=SIZE_HELP):
    """The instance flags; graph_size and tensor_size state the size limit
    of --graph and --tensor, as _load_problem checks it."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=["intro", "ex1", "ex2"],
                     help="built-in instance")
    src.add_argument("--tensor", metavar="FILE",
                     help="stochastic tensor in the text format; " + tensor_size)
    src.add_argument("--graph", metavar="FILE",
                     help="MatrixMarket adjacency; tensor built via three-cycles; "
                          + graph_size)
    p.add_argument("--v-file", metavar="FILE",
                   help="teleport vector, one value per line (with --tensor)")
    p.add_argument("--v-seed", type=int, default=0,
                   help="seed for the heavy-tailed v (with --graph)")
    p.add_argument("--nu", type=float, default=0.1,
                   help="three-cycle mixing weight (with --graph)")
    p.add_argument("--delta", type=float, default=1e-6,
                   help="delta for the intro builtin")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--one-minus-two-alpha", type=float, default=None,
                   help="exact 1-2*alpha near 1/2, within 2^-51 of the rounded one")


def _load_problem(args, parser):
    """The problem the flags name.  A --graph or --tensor n is checked first
    for the largest dense array the command makes: n x n, or n x n x n where
    it forms all n^3 entries of P, as compare, perturb and solve --reference
    do for a graph (their reference stores them) and perturb for a tensor
    file (its perturbation does)."""
    graph_power = 2 if args.command == "solve" and not args.reference else 3
    tensor_power = 3 if args.command == "perturb" else 2
    if not 0.0 < args.alpha < 1.0:
        parser.error(f"alpha must be in (0,1), got {args.alpha}")
    try:
        if args.builtin:
            return ingest.builtin(args.builtin, args.alpha, delta=args.delta,
                                  one_minus_two_alpha=args.one_minus_two_alpha)
        if args.tensor:
            P = tz.read_tensor_text(args.tensor, tensor_power)
            v = _read_vector(args.v_file) if args.v_file else np.full(P.n, 1.0 / P.n)
            return Problem.from_pagerank(v, P, args.alpha,
                                         one_minus_two_alpha=args.one_minus_two_alpha)
        _, v, P = _graph_tensor(args, graph_power)
        return Problem.from_pagerank(v, P, args.alpha,
                                     one_minus_two_alpha=args.one_minus_two_alpha)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


def _graph_tensor(args, power=2):
    """The adjacency, teleport vector and PageRank tensor of --graph, read
    for dense arrays of n**power entries (ingest.read_matrix_market); a
    negative --v-seed raises ValueError before the graph is read, and a
    graph too small for three-cycles before v is drawn."""
    if args.v_seed < 0:
        raise ValueError(f"--v-seed must be nonnegative, got {args.v_seed}")
    adj = ingest.read_matrix_market(args.graph, power)
    if adj.n < 3:
        raise ValueError(f"{args.graph}: the three-cycle tensor needs n >= 3, got n = {adj.n}")
    v = ingest.random_teleport_vector(adj.n, args.v_seed)
    return adj, v, ingest.build_pagerank_tensor(adj, v, args.nu)


_METHODS = {m.value: m for m in Method}


def _parse_method(name, parser):
    try:
        return _METHODS[name]
    except KeyError:
        parser.error(f"unknown method {name!r}; choose from {sorted(_METHODS)}")


def _options(args, parser, **kwargs):
    """SolverOptions from the shared flags; bad values are usage errors."""
    blocks = None
    if args.block_sizes is not None:
        try:
            blocks = tuple(int(t) for t in args.block_sizes.split(","))
        except ValueError:
            parser.error("--block-sizes must be comma-separated integers, "
                         f"got {args.block_sizes!r}")
    try:
        return SolverOptions(tol=args.tol, maxit=args.maxit, block_sizes=blocks, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _check_options(problem, options, parser):
    """Each run's usage errors, before a reference is computed or a line printed."""
    for opts in options:
        try:
            check_options(problem, opts)
        except ValueError as exc:
            parser.error(str(exc))


def _fail(code, message):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(code)


def _reference(problem, stochastic=False, what=None):
    """The pair-precision reference of problem, named `what` in the message
    if given; exit 3 if it does not converge."""
    ref = precision.reference_solution(
        problem, precision.STOCHASTIC if stochastic else precision.MINIMAL)
    if not ref.converged:
        of = "" if what is None else f" of {what}"
        _fail(EXIT_NUMERICAL, f"extended-precision reference{of} did not converge")
    return ref


def _termination_exit(termination):
    if termination is Termination.TOL_REACHED:
        return EXIT_OK
    if termination is Termination.MAXIT:
        return EXIT_MAXIT
    return EXIT_NUMERICAL


def _report_dict(report, problem):
    out = {
        "method": report.method.value,
        "iterations": report.iterations,
        "termination": report.termination.value,
        "final_residual": report.final_residual,
        "x": [float(t) for t in report.x],
        "residual_history": [float(t) for t in report.residual_history],
    }
    if report.z_history is not None:
        out["z_history"] = [float(t) for t in report.z_history]
    if report.e_cw_history is not None:
        out["e_cw_final"] = float(report.e_cw_history[-1])
        out["e_norm_final"] = float(report.e_norm_history[-1])
        out["max_overshoot"] = report.max_overshoot
    if problem.is_pagerank:
        out["alpha"] = problem.alpha
    return out


def cmd_solve(args, parser):
    problem = _load_problem(args, parser)
    method = _parse_method(args.method, parser)
    opts = _options(args, parser, method=method,
                    start=Start.V if args.start == "v" else Start.ZERO)
    _check_options(problem, [opts], parser)
    reference = None
    ref_info = None
    if args.reference:
        ref = _reference(problem, stochastic=args.start == "v")
        reference = ref.x
        ref_info = {
            "reference_residual": ref.residual_norm,
            "reference_iterations": ref.iterations,
            "reference_decimal": ref.decimal_strings(),
        }
    report = solve(problem, opts, reference=reference)
    payload = _report_dict(report, problem)
    if ref_info:
        payload.update(ref_info)
    if args.out_json:
        analysis.dump_json(payload, args.out_json)
    if args.out_csv:
        res = report.residual_history
        errors = ([None] * len(res) if h is None else h
                  for h in (report.e_cw_history, report.e_norm_history))
        _write_csv(args.out_csv, "solve", "k,residual_inf,e_cw,e_norm",
                   zip(range(len(res)), res, *errors))
    print(json.dumps({k: payload[k] for k in
                      ("method", "iterations", "termination", "final_residual", "x")}))
    return _termination_exit(report.termination)


def cmd_perturb(args, parser):
    problem = _load_problem(args, parser)
    method = _parse_method(args.method, parser)
    opts = _options(args, parser, method=method)
    # checked even with --reference, which never runs the method; a
    # perturbation keeps n and v, so every solve below passes this check too
    _check_options(problem, [opts], parser)
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    if not 0.0 <= args.epsilon < 0.25:
        parser.error(f"--epsilon must be in [0, 0.25), got {args.epsilon}")
    if args.seed < 0:
        parser.error(f"--seed must be nonnegative, got {args.seed}")

    def minimal_solution(p, what):
        if args.reference:
            return _reference(p, what=what).x
        report = solve(p, opts)
        if report.termination is not Termination.TOL_REACHED:
            _fail(_termination_exit(report.termination),
                  f"{method.value} on {what} ended {report.termination.value} "
                  f"after {report.iterations} iterations")
        return report.x

    m = minimal_solution(problem, "the unperturbed problem")
    try:
        y = analysis.compute_y(problem, m)
        kap = analysis.kappa(m, y)
        ome = analysis.omega(problem, m)
    except SingularPivotError:
        _fail(EXIT_NUMERICAL, "R_m is singular at the minimal solution, "
                              "so kappa is unbounded there")
    except (ValueError, ArithmeticError) as exc:
        _fail(EXIT_NUMERICAL, f"kappa and omega could not be computed: {exc}")
    n = problem.n
    rows = []
    ratios = []  # d_obs / bound of the trials whose omega bound applies
    for trial in range(args.trials):
        pert = analysis.componentwise_zero_sum_perturb(problem, args.epsilon,
                                                       args.seed + trial)
        # v is not perturbed, so the realized epsilon is d(P~, P)
        eps_real = analysis.cw_distance(pert.p_tensor, problem.p_tensor).value
        d_obs = analysis.cw_distance(minimal_solution(pert, f"trial {trial}"), m).value
        rk = analysis.bound_kappa(eps_real, kap, n)
        ro = analysis.bound_omega(eps_real, ome, n)
        if ro.applicable and ro.bound > 0.0:
            ratios.append(d_obs / ro.bound)
        rows.append((trial, eps_real, d_obs, ro, rk))
    if args.out_csv:
        _write_csv(args.out_csv, "perturb",
                   "trial,epsilon_realized,d_cw_observed,bound_omega,"
                   "bound_kappa,applicable_omega,applicable_kappa",
                   ((trial, eps_real, d_obs, ro.bound, rk.bound,
                     int(ro.applicable), int(rk.applicable))
                    for trial, eps_real, d_obs, ro, rk in rows))
    _, eps_real, d_obs, ro, rk = rows[-1]
    # with no trial checked against its bound, the bound says nothing
    max_ratio = max(ratios) if ratios else None
    summary = {
        "epsilon_realized": eps_real,
        "kappa": rk.quantity,
        "omega": ro.quantity,
        "gamma": ro.gamma,
        "bound": ro.bound,
        "observed_dcw": d_obs,
        "applicable": all(ro.applicable for _, _, _, ro, _ in rows),
        "trials": args.trials,
        "trials_checked": len(ratios),
        "epsilon_input": args.epsilon,
        "max_observed_over_bound": max_ratio,
        "all_within_bound": None if max_ratio is None else max_ratio <= 1.0,
    }
    if args.out_json:
        analysis.dump_json(summary, args.out_json)
    print(json.dumps(summary))
    return EXIT_OK


def cmd_ingest(args, parser):
    try:
        adj, v, P = _graph_tensor(args, power=3)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    if P.S.nnz == 0:
        sys.stderr.write("warning: graph has no directed three-cycles\n")
    stored = P.to_tensor3()
    tz.write_tensor_text(stored, args.out_tensor)
    if args.out_v:
        with open(args.out_v, "w", encoding="utf-8") as fh:
            for value in v:
                fh.write(f"{value!r}\n")
    rep = tz.check_stochastic(stored, target=1.0, tol=1e-13)
    payload = {
        "n": adj.n,
        "edges": adj.edge_count,
        "three_cycle_entries": P.S.nnz,
        "tensor_entries": stored.nnz,
        "stochastic_ok": rep.ok,
        "max_column_deviation": rep.max_deviation,
    }
    if args.out_report:
        analysis.dump_json(payload, args.out_report)
    print(json.dumps(payload))
    return EXIT_OK


def cmd_compare(args, parser):
    problem = _load_problem(args, parser)
    methods = [_parse_method(name.strip(), parser)
               for name in args.methods.split(",")]
    stochastic = args.stochastic
    start = Start.V if stochastic else Start.ZERO
    options = [_options(args, parser, method=m, start=start) for m in methods]
    _check_options(problem, options, parser)
    ref = _reference(problem, stochastic)
    rows = []
    worst = EXIT_OK
    for method, opts in zip(methods, options):
        report = solve(problem, opts, reference=ref.x)
        worst = max(worst, _termination_exit(report.termination))
        for k in range(len(report.residual_history)):
            rows.append((
                method.value, k,
                report.e_cw_history[k], report.e_norm_history[k],
                report.residual_history[k],
            ))
        print(json.dumps({
            "method": method.value,
            "iterations": report.iterations,
            "termination": report.termination.value,
            "e_cw_final": float(report.e_cw_history[-1]),
            "e_norm_final": float(report.e_norm_history[-1]),
        }))
    if args.out_csv:
        _write_csv(args.out_csv, "compare", "method,k,e_cw,e_norm,residual_inf", rows)
    return worst


def _add_solver_args(p, several=False):
    """The solver flags: --method (--methods if several), --tol, --maxit, --block-sizes."""
    if several:
        p.add_argument("--methods", required=True, help="comma-separated method names")
    else:
        p.add_argument("--method", default="newton-gth")
    p.add_argument("--tol", type=float, default=1e-15, help=TOL_HELP)
    p.add_argument("--maxit", type=int, default=500)
    p.add_argument("--block-sizes", default=None,
                   help="comma-separated block sizes for block-jacobi; "
                        "block-jacobi-gth-variant takes one block")


@functools.cache
def build_parser():
    """The argparse tree, built once per process: parse_args leaves it as it
    was, so every main() call shares it."""
    parser = _Parser(prog="mlpagerank",
                     description="Componentwise-accurate multilinear PageRank solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one method on one instance")
    _add_instance_args(p_solve, graph_size=f"{SIZE_HELP}; with --reference {CUBE_HELP}")
    _add_solver_args(p_solve)
    p_solve.add_argument("--start", choices=["zero", "v"], default="zero")
    p_solve.add_argument("--reference", action="store_true",
                         help="attach extended-precision error columns; "
                              "reference_iterations counts the pair-arithmetic "
                              "Newton steps, started from the binary64 "
                              "Newton-GTH solution (from zero if that run fails)")
    p_solve.add_argument("--out-json", default=None)
    p_solve.add_argument("--out-csv", default=None)
    p_solve.set_defaults(fn=cmd_solve)

    p_pert = sub.add_parser(
        "perturb", help="componentwise perturbation experiment",
        description="Perturb P by seeded multiplicative noise, every entry by a "
                    "relative amount of at most epsilon before a zero-sum "
                    "projection (v stays), and compare d(m~, m) with the omega "
                    "and kappa bounds.  epsilon_realized is d(P~, P).  "
                    "trials_checked counts the trials whose omega bound "
                    "applies; all_within_bound is null when there are none.  "
                    "Exits 0 "
                    "when done, 2 when a solve hits the iteration limit, 3 when "
                    "a solve fails otherwise, a reference does not converge or "
                    "R_m is singular, 64 on a usage error.")
    _add_instance_args(p_pert, graph_size=CUBE_HELP, tensor_size=CUBE_HELP)
    p_pert.add_argument("--epsilon", type=float, required=True,
                        help="relative size of the perturbation, in [0, 0.25)")
    p_pert.add_argument("--trials", type=int, default=100)
    p_pert.add_argument("--seed", type=int, default=0,
                        help="nonnegative; trial t draws its noise from seed + t")
    _add_solver_args(p_pert)
    p_pert.add_argument("--reference", action="store_true",
                        help="solve perturbed instances in extended precision")
    p_pert.add_argument("--out-json", default=None)
    p_pert.add_argument("--out-csv", default=None)
    p_pert.set_defaults(fn=cmd_perturb)

    p_ing = sub.add_parser("ingest", help="graph -> stochastic tensor pipeline")
    p_ing.add_argument("--graph", required=True, help="MatrixMarket adjacency; " + CUBE_HELP)
    p_ing.add_argument("--nu", type=float, default=0.1)
    p_ing.add_argument("--v-seed", type=int, default=0)
    p_ing.add_argument("--out-tensor", required=True)
    p_ing.add_argument("--out-v", default=None)
    p_ing.add_argument("--out-report", default=None)
    p_ing.set_defaults(fn=cmd_ingest)

    p_cmp = sub.add_parser("compare", help="methods vs extended reference")
    _add_instance_args(p_cmp, graph_size=CUBE_HELP)
    _add_solver_args(p_cmp, several=True)
    p_cmp.add_argument("--stochastic", action="store_true",
                       help="start from v, reference the stochastic solution")
    p_cmp.add_argument("--out-csv", default=None)
    p_cmp.set_defaults(fn=cmd_compare)
    return parser


def _check_outputs(args):
    """Open every --out-* path for appending, before any work, so that one
    that cannot be written fails at once; a file made here is removed."""
    for name, path in vars(args).items():
        if name.startswith("out_") and path is not None:
            existed = os.path.exists(path)
            with open(path, "a", encoding="utf-8"):
                pass
            if not existed:
                os.remove(path)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.fn(args, parser)
    except OSError as exc:
        # input files are read inside the commands, which report their
        # errors; what reaches here is an output file that cannot be written
        _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
