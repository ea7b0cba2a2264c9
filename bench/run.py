"""Benchmark of the mlpagerank program, measured from outside the program.

Run from the root of a checkout:

    python3 bench/run.py --workload dense-newton --seed 1 --seconds 25 --trace 0

One process runs one workload as a closed loop with a single caller: the
next op starts only when the previous one returned.  The inputs come from
--seed; the program under test is imported from ./src of the checkout.
With --trace 0 the last line of standard output is the end-to-end result,
with --trace 1 the per-layer one from a traced run.  Lines before it are a
human-readable table and one JSON report with the environment, the seeds,
failures and the layer map.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, and recorded in the report.  One thread:
# the kernels here are too small to gain from more, and on a small shared
# machine extra BLAS threads only make the timings less steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("tensor", "mmatrix", "solvers", "precision", "analysis", "ingest", "cli")

# Figures printed for a workload besides the gated ones in BENCHMARK.json:
# name -> (unit, better, workloads it applies to).  The gated latencies are
# means over the run and these medians are not gated: the speed of a shared
# host moves between levels far apart within seconds, and a median over a run
# follows whichever level held for more than half of it, while a mean moves
# in proportion.  The means as measured, before the host adjustment
# (workloads.Recorder.op), are printed too.
EXTRA = {
    "solve_mean_s": ("s", "lower", tuple(workloads.WORKLOADS)),
    "solve_p50_s": ("s", "lower", tuple(workloads.WORKLOADS)),
    "reference_p50_s": ("s", "lower", ("dd-reference",)),
    "trial_p50_s": ("s", "lower", ("dd-reference",)),
    "cli_p50_ms": ("ms", "lower", ("builtins-cli",)),
    "cli_p90_ms": ("ms", "lower", ("builtins-cli",)),
    "solve_mean_raw_s": ("s", "lower", tuple(workloads.WORKLOADS)),
    "op_mean_raw_s": ("s", "lower", tuple(workloads.WORKLOADS)),
    "fail_frac": ("ratio", "lower", tuple(workloads.WORKLOADS)),
}


def import_program():
    """Import mlpagerank from ./src of this checkout and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("mlpagerank")
        for name in MODULES:
            importlib.import_module(f"mlpagerank.{name}")
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import the program from {src}: {exc}")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench: mlpagerank was found outside {src}")
    return package


def source_state():
    """The commit, when the checkout is a git tree, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        **source_state(),
    }


def measure(workload, rec, seconds, tracer):
    """Run a fixed number of rounds, each after the workload's set-ups.

    The number of rounds is `seconds` over the workload's nominal cost of one
    round with its set-ups, so a run measures about `seconds` of work, and
    which ops it attempts depends on the seed and `seconds` only, never on how
    fast the machine ran.  Set-ups are spread over the run like the rounds, so
    both see the same mix of fast and slow spells of a shared host.  With a
    tracer, at least four rounds run, traced with their set-ups in the order
    untraced, traced, traced, untraced and so on, so that traced and untraced
    rounds can be compared for the tracing overhead with the drift of the
    host and the first round's warm-up falling on both sides.

    Returns the time the ops of each round took, host-adjusted where the
    workload is, by whether the round was traced, and the measured duration
    of all rounds.
    """
    n_rounds = max(4 if tracer else 1, round(seconds / workload.round_s))
    rounds = {False: [], True: []}
    start = time.perf_counter()
    for i in range(n_rounds):
        traced = tracer is not None and i % 4 in (1, 2)
        if traced:
            tracer.install()
        try:
            workload.setup(rec)
            busy = rec.busy_s
            workload.round(rec)
        finally:
            if traced:
                tracer.uninstall()
        rounds[traced].append(rec.busy_s - busy)
    return rounds, time.perf_counter() - start


def grouped_median(groups):
    """Median over groups (for example alpha) of each group's median."""
    medians = [statistics.median(s) for s in groups.values() if s]
    if not medians:
        return None
    return statistics.median(medians)


def pooled_mean(groups):
    """(mean, sample count) over the samples of every group; mean None without samples."""
    samples = [t for s in groups.values() for t in s]
    return (statistics.fmean(samples) if samples else None), len(samples)


def end_to_end(name, workload, rec, loop_s):
    """(value, sample count) of one end-to-end figure; value None without samples."""
    lat = rec.latency
    if name == "setup_s":
        s = lat["setup"][None]
        return (statistics.median(s) if s else None), len(s)
    if name == "solve_mean_s":
        return pooled_mean(lat["solve"])
    if name == "solve_p50_s":
        return grouped_median(lat["solve"]), sum(map(len, lat["solve"].values()))
    if name == "solves_per_s":
        return (rec.solves / loop_s if rec.solves else None), rec.solves
    if name == "op_mean_s":
        return pooled_mean(lat[workload.headline])
    if name in ("solve_mean_raw_s", "op_mean_raw_s"):
        s = rec.raw["solve" if name == "solve_mean_raw_s" else workload.headline]
        return (statistics.fmean(s) if s else None), len(s)
    if name == "peak_rss_mb":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
    if name == "reference_p50_s":
        return grouped_median(lat["reference"]), sum(map(len, lat["reference"].values()))
    if name == "trial_p50_s":
        return grouped_median(lat["trial"]), sum(map(len, lat["trial"].values()))
    if name in ("cli_p50_ms", "cli_p90_ms"):
        s = lat["cli"][None]
        q = 50 if name == "cli_p50_ms" else 90
        return (float(np.percentile(s, q)) * 1e3 if s else None), len(s)
    if name == "fail_frac":
        return rec.failed / rec.attempted, rec.attempted
    raise KeyError(name)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mlp = import_program()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer(mlp) if args.trace else None
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        wl = workloads.WORKLOADS[args.workload](mlp, args.seed, tmp)
        rec = workloads.Recorder(wl.calibration)
        rounds, wall_s = measure(wl, rec, args.seconds, tracer)
    loop_s = sum(rounds[False]) + sum(rounds[True])

    table = []
    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    missing = []
    if args.trace:
        untraced = statistics.median(rounds[False])
        overhead = statistics.median(rounds[True]) - untraced
        derived = layers.derive(tracer.spans, rec, overhead, untraced)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        for m in gated:
            metrics[m["name"]] = {"value": derived[m["name"]], "unit": m["unit"]}
            label = "computed" if m["name"] in layers.COMPUTED else ""
            table.append((m["name"], derived[m["name"]], m["unit"], m["better"], label))
    else:
        for m in gated:
            value, n = end_to_end(m["name"], wl, rec, loop_s)
            if value is None or not value > 0.0:
                missing.append(m["name"])
                continue
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            table.append((m["name"], value, m["unit"], m["better"], n))
        for name, (unit, better, applies) in EXTRA.items():
            if args.workload in applies:
                value, n = end_to_end(name, wl, rec, loop_s)
                table.append((name, value, unit, better, n))

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"bench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds: {len(rounds[False])} untraced, {len(rounds[True])} traced in "
          f"{wall_s:.3f} s with set-ups; their ops took {loop_s:.3f} s host-adjusted")
    print(f"why: {why.get(args.workload, '')}")
    print(f"{'metric':34s} {'value':>14s} {'unit':6s} {'better':7s} n")
    for name, value, unit, better, n in table:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>14s} {unit:6s} {better:7s} {n}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": environment(),
        "round_ops_s": {"untraced": rounds[False], "traced": rounds[True]},
        "calibration_s": {name: {"n": len(s), "median": statistics.median(s),
                                 "min": min(s), "max": max(s)}
                          for name, s in rec.calibrations.items()},
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": dict(rec.failures),
        "failure_examples": rec.examples,
        "selfcheck": rec.selfcheck[:10],
        "computed_counts": {k: layers.mean(rec.computed[k].values()) for k in layers.COMPUTED},
        "layer_map": layers.LAYER_MAP,
    }
    print("report " + json.dumps(report, sort_keys=True))
    if missing:
        print(f"bench: no successful samples for {', '.join(missing)}", file=sys.stderr)
        return 1
    correct = not rec.selfcheck and rec.unexplained == 0
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
