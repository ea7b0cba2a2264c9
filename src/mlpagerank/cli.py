"""Command-line interface: solve, perturb, ingest, compare.

Exit codes: 0 tolerance reached, 2 iteration limit, 3 numerical failure,
64 usage error.  All numeric output is printed with 17 significant digits
and every CSV starts with a schema comment line, so byte-identical reruns
are reproducible from (config, seed).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, ingest, precision
from . import tensor as tz
from .mmatrix import SingularPivotError
from .solvers import Method, Problem, SolverOptions, Start, Termination, solve

EXIT_OK = 0
EXIT_MAXIT = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

CSV_SCHEMA = "mlpagerank-csv-v1"
TOL_HELP = ("stop once the max-norm of the binary64 residual a + Bx^2 - x, as the "
            "iteration computes it, is at most TOL (default %(default)s)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _fmt(x):
    return f"{float(x):.17g}"


def _add_instance_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=["intro", "ex1", "ex2"],
                     help="built-in instance")
    src.add_argument("--tensor", metavar="FILE",
                     help="stochastic tensor in the text format")
    src.add_argument("--graph", metavar="FILE",
                     help="MatrixMarket adjacency; tensor built via three-cycles")
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
                   help="exact 1-2*alpha for alpha near 1/2")


def _load_problem(args, parser):
    if not 0.0 < args.alpha < 1.0:
        parser.error(f"alpha must be in (0,1), got {args.alpha}")
    try:
        if args.builtin:
            return ingest.builtin(args.builtin, args.alpha, delta=args.delta,
                                  one_minus_two_alpha=args.one_minus_two_alpha)
        if args.tensor:
            P = tz.read_tensor_text(args.tensor)
            if args.v_file:
                with open(args.v_file, "r", encoding="utf-8") as fh:
                    v = np.array([float(line) for line in fh if line.strip()])
            else:
                v = np.full(P.n, 1.0 / P.n)
            return Problem.from_pagerank(v, P, args.alpha,
                                         one_minus_two_alpha=args.one_minus_two_alpha)
        adj = ingest.read_matrix_market(args.graph)
        v = ingest.random_teleport_vector(adj.n, args.v_seed)
        P = ingest.build_pagerank_tensor(adj, v, args.nu)
        return Problem.from_pagerank(v, P, args.alpha,
                                     one_minus_two_alpha=args.one_minus_two_alpha)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


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
    if report.max_overshoot is not None:
        out["max_overshoot"] = report.max_overshoot
    if problem.is_pagerank:
        out["alpha"] = problem.alpha
    return out


def _write_iteration_csv(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {CSV_SCHEMA} solve\n")
        fh.write("k,residual_inf,e_cw,e_norm\n")
        n_rows = len(report.residual_history)
        for k in range(n_rows):
            e_cw = (
                _fmt(report.e_cw_history[k])
                if report.e_cw_history is not None
                else ""
            )
            e_norm = (
                _fmt(report.e_norm_history[k])
                if report.e_norm_history is not None
                else ""
            )
            fh.write(f"{k},{_fmt(report.residual_history[k])},{e_cw},{e_norm}\n")


def cmd_solve(args, parser):
    problem = _load_problem(args, parser)
    method = _parse_method(args.method, parser)
    opts = _options(args, parser, method=method,
                    start=Start.V if args.start == "v" else Start.ZERO,
                    record_history=True)
    reference = None
    ref_info = None
    if args.reference:
        mode = precision.STOCHASTIC if args.start == "v" else precision.MINIMAL
        ref = precision.reference_solution(problem, mode)
        if not ref.converged:
            sys.stderr.write("error: extended-precision reference did not converge\n")
            return EXIT_NUMERICAL
        reference = ref.x
        ref_info = {
            "reference_residual": ref.residual_norm,
            "reference_iterations": ref.iterations,
            "reference_decimal": ref.decimal_strings(),
        }
    try:
        report = solve(problem, opts, reference=reference)
    except ValueError as exc:
        parser.error(str(exc))
    payload = _report_dict(report, problem)
    if ref_info:
        payload.update(ref_info)
    if args.out_json:
        analysis.dump_json(payload, args.out_json)
    if args.out_csv:
        _write_iteration_csv(args.out_csv, report)
    print(json.dumps({k: payload[k] for k in
                      ("method", "iterations", "termination", "final_residual", "x")}))
    return _termination_exit(report.termination)


def _fail(code, message):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(code)


def cmd_perturb(args, parser):
    problem = _load_problem(args, parser)
    method = _parse_method(args.method, parser)
    opts = _options(args, parser, method=method)
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    if not 0.0 <= args.epsilon < 0.25:
        parser.error(f"--epsilon must be in [0, 0.25), got {args.epsilon}")

    def minimal_solution(p, what):
        if args.reference:
            ref = precision.reference_solution(p, precision.MINIMAL)
            if not ref.converged:
                _fail(EXIT_NUMERICAL, f"extended-precision reference of {what} "
                                      "did not converge")
            return ref.x
        try:
            report = solve(p, opts)
        except ValueError as exc:
            parser.error(str(exc))
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
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(f"# {CSV_SCHEMA} perturb\n")
            fh.write("trial,epsilon_realized,d_cw_observed,bound_omega,"
                     "bound_kappa,applicable_omega,applicable_kappa\n")
            for trial, eps_real, d_obs, ro, rk in rows:
                fh.write(
                    f"{trial},{_fmt(eps_real)},{_fmt(d_obs)},{_fmt(ro.bound)},"
                    f"{_fmt(rk.bound)},{int(ro.applicable)},{int(rk.applicable)}\n"
                )
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
        adj = ingest.read_matrix_market(args.graph)
        v = ingest.random_teleport_vector(adj.n, args.v_seed)
        if not 0.0 <= args.nu <= 1.0:
            parser.error(f"nu must be in [0, 1], got {args.nu}")
        cycles = ingest.three_cycle_tensor(adj)
        P = ingest.build_pagerank_tensor(adj, v, args.nu)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    if cycles.nnz == 0:
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
        "three_cycle_entries": cycles.nnz,
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
    options = [_options(args, parser, method=m, start=start, record_history=True)
               for m in methods]
    mode = precision.STOCHASTIC if stochastic else precision.MINIMAL
    ref = precision.reference_solution(problem, mode)
    if not ref.converged:
        sys.stderr.write("error: extended-precision reference did not converge\n")
        return EXIT_NUMERICAL
    rows = []
    worst = EXIT_OK
    for method, opts in zip(methods, options):
        try:
            report = solve(problem, opts, reference=ref.x)
        except ValueError as exc:
            parser.error(str(exc))
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
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(f"# {CSV_SCHEMA} compare\n")
            fh.write("method,k,e_cw,e_norm,residual_inf\n")
            for method, k, e_cw, e_norm, res in rows:
                fh.write(f"{method},{k},{_fmt(e_cw)},{_fmt(e_norm)},{_fmt(res)}\n")
    return worst


def build_parser():
    parser = _Parser(prog="mlpagerank",
                     description="Componentwise-accurate multilinear PageRank solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one method on one instance")
    _add_instance_args(p_solve)
    p_solve.add_argument("--method", default="newton-gth")
    p_solve.add_argument("--tol", type=float, default=1e-15, help=TOL_HELP)
    p_solve.add_argument("--maxit", type=int, default=500)
    p_solve.add_argument("--block-sizes", default=None,
                         help="comma-separated block sizes for Jacobi methods")
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
    _add_instance_args(p_pert)
    p_pert.add_argument("--epsilon", type=float, required=True,
                        help="relative size of the perturbation, in [0, 0.25)")
    p_pert.add_argument("--trials", type=int, default=100)
    p_pert.add_argument("--seed", type=int, default=0)
    p_pert.add_argument("--method", default="newton-gth")
    p_pert.add_argument("--tol", type=float, default=1e-15, help=TOL_HELP)
    p_pert.add_argument("--maxit", type=int, default=500)
    p_pert.add_argument("--block-sizes", default=None)
    p_pert.add_argument("--reference", action="store_true",
                        help="solve perturbed instances in extended precision")
    p_pert.add_argument("--out-json", default=None)
    p_pert.add_argument("--out-csv", default=None)
    p_pert.set_defaults(fn=cmd_perturb)

    p_ing = sub.add_parser("ingest", help="graph -> stochastic tensor pipeline")
    p_ing.add_argument("--graph", required=True)
    p_ing.add_argument("--nu", type=float, default=0.1)
    p_ing.add_argument("--v-seed", type=int, default=0)
    p_ing.add_argument("--out-tensor", required=True)
    p_ing.add_argument("--out-v", default=None)
    p_ing.add_argument("--out-report", default=None)
    p_ing.set_defaults(fn=cmd_ingest)

    p_cmp = sub.add_parser("compare", help="methods vs extended reference")
    _add_instance_args(p_cmp)
    p_cmp.add_argument("--methods", required=True,
                       help="comma-separated method names")
    p_cmp.add_argument("--tol", type=float, default=1e-15, help=TOL_HELP)
    p_cmp.add_argument("--maxit", type=int, default=500)
    p_cmp.add_argument("--block-sizes", default=None)
    p_cmp.add_argument("--stochastic", action="store_true",
                       help="start from v, reference the stochastic solution")
    p_cmp.add_argument("--out-csv", default=None)
    p_cmp.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args, parser)


if __name__ == "__main__":
    sys.exit(main())
