"""Per-layer metrics, derived from the spans of a traced run.

Layers are the program's modules.  For every traced callable the run reports
its self time per call and its call count; a few counts are computed from the
inputs and outputs instead of measured, and are labelled so.
"""

from __future__ import annotations

from collections import defaultdict

from spans import inside, self_times

# span name -> (metric name of its self time per call, seconds per unit)
SELF_TIME = {
    "tensor.from_unfolding": ("tensor.from_unfolding_s", 1.0),
    "tensor.check_stochastic": ("tensor.check_stochastic_ms", 1e-3),
    "tensor.apply_quadratic": ("tensor.apply_quadratic_ms", 1e-3),
    "tensor.contract_left": ("tensor.contract_left_ms", 1e-3),
    "tensor.contract_right": ("tensor.contract_right_ms", 1e-3),
    "mmatrix.gth_factor": ("mmatrix.gth_factor_ms", 1e-3),
    "mmatrix.gth_solve": ("mmatrix.gth_solve_ms", 1e-3),
    "mmatrix.plain_lu_solve": ("mmatrix.plain_lu_solve_ms", 1e-3),
    "solvers.solve": ("solvers.self_ms", 1e-3),
    "ingest.read_matrix_market": ("ingest.read_matrix_market_ms", 1e-3),
    "ingest.three_cycle_tensor": ("ingest.three_cycle_tensor_s", 1.0),
    "ingest.build_pagerank_tensor": ("ingest.build_pagerank_tensor_s", 1.0),
    "precision.reference_solution": ("precision.self_ms", 1e-3),
    "precision.dd_apply_quadratic": ("precision.dd_apply_quadratic_ms", 1e-3),
    "precision.dd_contract_left": ("precision.dd_contract_left_ms", 1e-3),
    "precision.dd_contract_right": ("precision.dd_contract_right_ms", 1e-3),
    "precision.dd_gth_factor": ("precision.dd_gth_factor_ms", 1e-3),
    "precision.dd_gth_solve": ("precision.dd_gth_solve_ms", 1e-3),
    "precision.dd_lu_solve": ("precision.dd_lu_solve_ms", 1e-3),
    "analysis.compute_y": ("analysis.compute_y_ms", 1e-3),
    "analysis.omega": ("analysis.omega_ms", 1e-3),
    "analysis.perturb": ("analysis.perturb_ms", 1e-3),
}
CLI_COMMANDS = ("solve", "compare", "perturb")

# Which end-to-end figure each layer should move, on which workload, written
# down before any optimisation is measured.  "still" lists pairings where a
# change to the layer must show no effect.
LAYER_MAP = {
    "tensor": {"moves": {"op_mean_s": ["dense-newton (a solve)", "graph-pipeline (a graph)"],
                         "solves_per_s": ["dense-newton", "graph-pipeline"],
                         "setup_s": ["dense-newton", "graph-pipeline"]},
               "still": {"op_mean_s": ["builtins-cli (beyond per-call overhead)"]}},
    "mmatrix": {"moves": {"op_mean_s": ["dense-newton (a solve)",
                                        "builtins-cli (per-call overhead)"]}},
    "solvers": {"moves": {"solves_per_s": ["all"], "fail_frac": ["builtins-cli"]}},
    "ingest": {"moves": {"setup_s": ["graph-pipeline"], "op_mean_s": ["graph-pipeline"],
                         "peak_rss_mb": ["graph-pipeline"]},
               "still": {"setup_s": ["dense-newton", "dd-reference", "builtins-cli"]}},
    "precision": {"moves": {"op_mean_s": ["dd-reference (a reference solve)",
                                          "builtins-cli (compare, perturb --reference)"],
                            "trial_p50_s": ["dd-reference"]},
                  "still": {"op_mean_s": ["dense-newton"], "solves_per_s": ["dense-newton"]}},
    "analysis": {"moves": {"trial_p50_s": ["dd-reference"]}},
    "cli": {"moves": {"op_mean_s": ["builtins-cli (a call)"]}},
}

# Counts computed from inputs and outputs rather than timed; a run checks
# that each repeats exactly for the same op.
COMPUTED = ("tensor.nnz", "tensor.bytes", "tensor.flops_per_call",
            "solvers.iterations", "precision.reference_iterations")


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def derive(spans, rec, overhead_s, untraced_s):
    """All per-layer metrics, by name, from the spans and the recorder."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_total = defaultdict(float)
    wall_total = defaultdict(float)
    for (name, start, end, _), s in zip(spans, own):
        calls[name] += 1
        self_total[name] += s
        wall_total[name] += end - start
    out = {}
    for span, (metric, unit) in SELF_TIME.items():
        out[metric] = self_total[span] / calls[span] / unit if calls[span] else 0.0
        out[f"{span}.calls"] = calls[span]
    cli_calls = 0
    for cmd in CLI_COMMANDS:
        span = f"cli.main.{cmd}"
        out[f"{span}_ms"] = wall_total[span] / calls[span] * 1e3 if calls[span] else 0.0
        out[f"{span}.calls"] = calls[span]
        cli_calls += calls[span]
    cli_self = sum(v for k, v in self_total.items() if k.startswith("cli.main"))
    out["cli.self_ms"] = cli_self / cli_calls * 1e3 if cli_calls else 0.0
    for name in COMPUTED:
        out[name] = mean(rec.computed[name].values())
    out["solvers.e_cw_max"] = max(rec.e_cw, default=0.0)
    in_solve = inside(spans, "solvers.solve")
    tensor_in_solve = sum(s for (name, *_), s, flag in zip(spans, own, in_solve)
                          if flag and name.startswith("tensor."))
    solve_wall = wall_total["solvers.solve"]
    out["tensor.share_of_solve"] = tensor_in_solve / solve_wall if solve_wall else 0.0
    out["trace.overhead_ms"] = overhead_s * 1e3
    out["trace.overhead_frac"] = overhead_s / untraced_s if untraced_s else 0.0
    return out
