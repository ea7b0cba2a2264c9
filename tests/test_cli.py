"""Command-line exit codes."""

import contextlib
import io
import json
import os
import tempfile
import tracemalloc
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlpagerank import (
    Method,
    PageRankTensor,
    Tensor3,
    Termination,
    build_pagerank_tensor,
    cli,
    ingest,
    precision,
    random_teleport_vector,
    read_matrix_market,
    read_tensor_text,
    write_tensor_text,
)
from mlpagerank.cli import EXIT_MAXIT, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main

from conftest import count_product_builds, exact_stochastic_unfolding, full_structure

EX1 = ["--builtin", "ex1", "--alpha", "0.3"]


@pytest.mark.parametrize("argv,message", [
    (["perturb", *EX1, "--epsilon", "1e-8", "--trials", "0"], "--trials must be at least 1"),
    (["solve", *EX1, "--method", "block-jacobi", "--block-sizes", "a,b"],
     "--block-sizes must be comma-separated integers"),
    (["solve", *EX1, "--tol", "-1"], "tol must be nonnegative"),
    (["solve", *EX1, "--tol", "nan"], "tol must be nonnegative"),
    (["solve", *EX1, "--tol", "inf"], "tol must be nonnegative"),
    (["perturb", *EX1, "--epsilon", "1e-8", "--tol", "nan"], "tol must be nonnegative"),
    (["solve", *EX1, "--one-minus-two-alpha", "0.9"], "one_minus_two_alpha 0.9 is not"),
    (["solve", *EX1, "--one-minus-two-alpha", "nan"], "one_minus_two_alpha nan is not"),
    (["solve", *EX1, "--one-minus-two-alpha", "inf"], "one_minus_two_alpha inf is not"),
    (["solve", "--builtin", "ex1", "--alpha", "nan"], "alpha must be in (0,1)"),
    (["solve", "--builtin", "intro", "--alpha", "0.3", "--delta", "nan"],
     "delta must be in (0, 1)"),
    (["perturb", *EX1, "--epsilon", "nan"], "--epsilon must be in"),
    (["perturb", *EX1, "--epsilon", "1e-8", "--seed", "-1"], "--seed must be nonnegative"),
    (["perturb", *EX1, "--epsilon", "1e-8", "--seed", "-5"], "--seed must be nonnegative"),
])
def test_bad_flags_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_solve_exits_zero(capsys):
    assert main(["solve", *EX1]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["termination"] == "tol_reached"
    assert abs(sum(out["x"]) - 1.0) <= 1e-15


def exit_code(argv):
    """The exit code of main(argv), whether returned or raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def builtin_args(name, alpha):
    omt = float(1 - 2 * Decimal(alpha))
    return ["--builtin", name, "--alpha", alpha, "--one-minus-two-alpha", repr(omt)]


@pytest.mark.parametrize("alpha", ["0.49999", "0.5", "0.6"])
@pytest.mark.parametrize("name", ["intro", "ex1", "ex2"])
def test_variant_with_one_block_solves_as_newton_gth(name, alpha, capsys):
    xs = []
    for method in ("block-jacobi-gth-variant", "newton-gth"):
        assert main(["solve", *builtin_args(name, alpha), "--method", method]) == EXIT_OK
        xs.append(json.loads(capsys.readouterr().out)["x"])
    assert xs[0] == xs[1]


@pytest.mark.parametrize("argv", [
    ["solve", *EX1, "--method", "block-jacobi-gth-variant"],
    ["compare", *EX1, "--methods", "newton-gth,block-jacobi-gth-variant"],
    ["perturb", *EX1, "--epsilon", "1e-8", "--trials", "2",
     "--method", "block-jacobi-gth-variant"],
], ids=["solve", "compare", "perturb"])
def test_the_variant_takes_one_block(argv, capsys):
    assert exit_code([*argv, "--block-sizes", "4"]) == EXIT_OK
    capsys.readouterr()
    assert exit_code([*argv, "--block-sizes", "2,2"]) == EXIT_USAGE
    assert capsys.readouterr().err.endswith(
        "error: block_jacobi_gth_variant takes one block, got block sizes (2, 2); "
        "block_jacobi takes several\n")


@pytest.mark.parametrize("methods,extra,message", [
    ("newton-gth,block-jacobi", ["--block-sizes", "2,3"],
     "block sizes (2, 3) are not a partition of 4"),
    ("newton-gth,block-jacobi-gth-variant", ["--block-sizes", "2,2"],
     "block_jacobi_gth_variant takes one block, got block sizes (2, 2)"),
    ("fixed-point,newton-gth", ["--stochastic"],
     "newton_gth targets the minimal solution; use start=ZERO"),
], ids=["partition", "variant-one-block", "stochastic-gth"])
def test_compare_checks_every_method_before_any_runs(methods, extra, message, capsys,
                                                     monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("the reference ran before the options were checked")

    monkeypatch.setattr(precision, "reference_solution", no_reference)
    assert exit_code(["compare", *EX1, "--methods", methods, *extra]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err



@pytest.mark.parametrize("method,blocks,message", [
    ("block-jacobi", "2,3", "block sizes (2, 3) are not a partition of 4"),
    ("block-jacobi-gth-variant", "2,2",
     "block_jacobi_gth_variant takes one block, got block sizes (2, 2)"),
], ids=["partition", "variant-one-block"])
def test_perturb_reference_checks_the_method_flags_before_anything_runs(
        method, blocks, message, capsys, monkeypatch):
    # --reference never runs the method; its flags are usage errors all the same
    def no_reference(*args, **kwargs):
        raise AssertionError("the reference ran before the options were checked")

    monkeypatch.setattr(precision, "reference_solution", no_reference)
    argv = ["perturb", *EX1, "--epsilon", "1e-8", "--trials", "2", "--reference",
            "--method", method, "--block-sizes", blocks]
    assert exit_code(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err

def test_every_termination_has_its_exit_code():
    # no CLI input reaches DIVERGED, so its exit code is checked here
    assert {t: cli._termination_exit(t) for t in Termination} == {
        Termination.TOL_REACHED: EXIT_OK,
        Termination.MAXIT: EXIT_MAXIT,
        Termination.SINGULAR_PIVOT: EXIT_NUMERICAL,
        Termination.DIVERGED: EXIT_NUMERICAL,
    }


def test_the_parser_is_built_once_and_keeps_no_flags():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["solve", *EX1, "--method", "newton", "--tol", "0",
                               "--reference", "--start", "v"])
    second = parser.parse_args(["compare", "--builtin", "ex2", "--alpha", "0.6",
                                "--methods", "newton-gth"])
    third = parser.parse_args(["solve", *EX1])
    assert (first.method, first.tol, first.reference, first.start) == ("newton", 0.0, True, "v")
    assert second.command == "compare" and second.builtin == "ex2"
    assert not hasattr(second, "method") and not hasattr(second, "reference")
    assert (third.method, third.tol, third.reference, third.start) == (
        "newton-gth", 1e-15, False, "zero")
    assert third.fn is cli.cmd_solve and second.fn is cli.cmd_compare


def perturb_args(name, alpha, *extra, epsilon="1e-8"):
    return ["perturb", *builtin_args(name, alpha), f"--epsilon={epsilon}",
            "--trials", "3", "--seed", "0", *extra]


@pytest.mark.parametrize("argv,code,message,reference_maxit", [
    (perturb_args("ex1", "0.3", epsilon="0.5"), EXIT_USAGE, "--epsilon must be in", None),
    (perturb_args("ex1", "0.3", epsilon="-1e-8"), EXIT_USAGE, "--epsilon must be in", None),
    (perturb_args("ex1", "0.3", epsilon="nan"), EXIT_USAGE, "--epsilon must be in", None),
    (perturb_args("ex1", "0.49999", "--method", "fixed-point"), EXIT_MAXIT,
     "fixed-point on the unperturbed problem ended maxit", None),
    (perturb_args("ex2", "0.6", "--method", "newton", "--maxit", "1"), EXIT_MAXIT,
     "newton on the unperturbed problem ended maxit", None),
    (perturb_args("intro", "0.3", "--method", "block-jacobi-gth-variant",
                  "--block-sizes", "1,1"), EXIT_USAGE,
     "block_jacobi_gth_variant takes one block, got block sizes (1, 1)", None),
    (perturb_args("ex1", "0.3", "--reference"), EXIT_NUMERICAL,
     "extended-precision reference of the unperturbed problem did not converge", 0),
    (perturb_args("ex1", "0.5"), EXIT_NUMERICAL, "R_m is singular", None),
    (perturb_args("ex1", "0.5", "--reference"), EXIT_NUMERICAL, "R_m is singular", None),
], ids=["epsilon-large", "epsilon-negative", "epsilon-nan", "fixed-point-maxit",
        "newton-maxit", "variant-two-blocks", "reference-unconverged", "singular-rm",
        "singular-rm-reference"])
def test_perturb_failures_exit_with_a_message(argv, code, message, reference_maxit,
                                              capsys, monkeypatch):
    if reference_maxit is not None:
        monkeypatch.setattr(precision, "REFERENCE_MAXIT", reference_maxit)
    assert exit_code(argv) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("alpha", ["0.3", "0.49999", "0.6"])
@pytest.mark.parametrize("name", ["intro", "ex1", "ex2"])
def test_perturb_stays_within_the_omega_bound(name, alpha, reference, capsys):
    argv = perturb_args(name, alpha, *(["--reference"] if reference else []))
    assert main(argv) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"epsilon_realized", "kappa", "omega", "gamma", "bound",
                        "observed_dcw", "applicable", "trials", "trials_checked",
                        "epsilon_input", "max_observed_over_bound", "all_within_bound"}
    assert 0.0 < out["epsilon_realized"] <= 2e-8
    assert out["applicable"] is True
    assert out["trials_checked"] == 3
    assert out["all_within_bound"] is True
    assert out["max_observed_over_bound"] <= 0.5


@pytest.mark.parametrize("name,epsilon,checked,within", [
    ("ex2", "0.1", 0, None),  # the omega bound applies in no trial
    ("ex1", "0.02", 1, True),  # it applies in the last trial only
])
def test_perturb_summarizes_only_the_trials_whose_bound_applies(name, epsilon, checked,
                                                                within, capsys):
    argv = ["perturb", "--builtin", name, "--alpha", "0.3", "--epsilon", epsilon,
            "--trials", "3"]
    assert main(argv) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["applicable"] is False
    assert out["trials_checked"] == checked
    assert out["all_within_bound"] is within
    assert (out["max_observed_over_bound"] is None) is (checked == 0)


@pytest.fixture
def graph_file(tmp_path):
    """A symmetric pattern MatrixMarket graph on 9 vertices, with triangles."""
    rng = np.random.default_rng(9)
    upper = np.triu(rng.random((9, 9)) < 0.5, k=1)
    rows, cols = np.nonzero(upper)
    path = tmp_path / "graph.mtx"
    lines = [f"{j + 1} {i + 1}" for i, j in zip(rows, cols)]
    path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                    f"9 9 {len(lines)}\n" + "\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "0.49"],
    ["solve", "--alpha", "0.3", "--reference"],
    ["compare", "--alpha", "0.49", "--methods", "newton-gth,newton"],
    ["perturb", "--alpha", "0.3", "--epsilon", "1e-8", "--trials", "2", "--reference"],
])
def test_graph_commands_exit_zero(graph_file, argv, capsys):
    assert exit_code([*argv, "--graph", graph_file, "--v-seed", "3"]) == EXIT_OK
    assert capsys.readouterr().out


def test_ingest_writes_the_unfolding_bit_for_bit(graph_file, tmp_path, capsys):
    out = tmp_path / "tensor.txt"
    argv = ["ingest", "--graph", graph_file, "--v-seed", "3", "--nu", "0.2",
            "--out-tensor", str(out)]
    assert exit_code(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    adj = read_matrix_market(graph_file)
    P = build_pagerank_tensor(adj, random_teleport_vector(adj.n, 3), 0.2)
    U = P.unfolding()
    assert read_tensor_text(out).unfolding().tobytes() == U.tobytes()
    assert report["tensor_entries"] == np.count_nonzero(U)
    assert report["three_cycle_entries"] > 0 and report["stochastic_ok"]


def test_ingest_builds_the_three_cycle_tensor_once(graph_file, tmp_path, monkeypatch, capsys):
    calls = []
    build = cli.ingest.three_cycle_tensor

    def counting(adj):
        calls.append(adj)
        return build(adj)

    monkeypatch.setattr(cli.ingest, "three_cycle_tensor", counting)
    argv = ["ingest", "--graph", graph_file, "--out-tensor", str(tmp_path / "t.txt")]
    assert main(argv) == EXIT_OK
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["three_cycle_entries"] > 0


@pytest.mark.parametrize("argv,flag", [
    (["solve", *EX1], "--out-json"),
    (["solve", *EX1, "--reference"], "--out-json"),
    (["solve", *EX1], "--out-csv"),
    (["perturb", *EX1, "--epsilon", "1e-8", "--trials", "1"], "--out-csv"),
    (["perturb", *EX1, "--epsilon", "1e-8", "--trials", "1"], "--out-json"),
    (["compare", *EX1, "--methods", "newton-gth"], "--out-csv"),
    (["ingest"], "--out-tensor"),
    (["ingest", "--out-tensor", "{tmp}/t.txt"], "--out-v"),
    (["ingest", "--out-tensor", "{tmp}/t.txt"], "--out-report"),
], ids=["solve-json", "solve-reference-json", "solve-csv", "perturb-csv", "perturb-json",
        "compare-csv", "ingest-tensor", "ingest-v", "ingest-report"])
def test_an_output_path_that_cannot_be_written_is_a_usage_error(argv, flag, graph_file,
                                                                tmp_path, capsys,
                                                                monkeypatch):
    # the path is checked before any work: no reference, no row, no other file
    references = []
    reference_solution = precision.reference_solution

    def counting(*args, **kwargs):
        references.append(args)
        return reference_solution(*args, **kwargs)

    monkeypatch.setattr(precision, "reference_solution", counting)
    missing = tmp_path / "no-such-directory" / "out"
    argv = [arg.format(tmp=tmp_path) for arg in argv] + [flag, str(missing)]
    if argv[0] == "ingest":
        argv += ["--graph", graph_file]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and str(missing) in err
    assert out == ""
    assert references == []
    assert not (tmp_path / "t.txt").exists()


def test_checking_an_output_path_leaves_what_was_there(tmp_path, capsys):
    # a path that can be written is opened for appending, and a file made by
    # the check alone is gone if the command fails before it writes
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    argv = ["solve", *EX1, "--maxit", "0", "--out-csv", str(tmp_path / "new.csv")]
    assert main(argv + ["--out-json", str(kept)]) == EXIT_MAXIT
    assert kept.read_text() != "old\n" and (tmp_path / "new.csv").exists()
    kept.write_text("old\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--builtin", "ex1", "--alpha", "2", "--out-json", str(kept),
              "--out-csv", str(tmp_path / "other.csv")])
    assert exc.value.code == EXIT_USAGE
    assert kept.read_text() == "old\n" and not (tmp_path / "other.csv").exists()


def test_compare_contracts_one_stored_p_for_every_method(tmp_path, monkeypatch, capsys):
    # all five methods reach the tensor through P's one slab or half slab,
    # as its n selects, built once: a full P never builds S, and none of
    # them forms B = alpha P
    path = tmp_path / "p.txt"
    write_tensor_text(Tensor3.from_unfolding(
        exact_stochastic_unfolding(np.random.default_rng(30), 30)), path)
    loaded = []
    load = cli._load_problem

    def loading(args, parser):
        loaded.append(load(args, parser))
        return loaded[-1]

    monkeypatch.setattr(cli, "_load_problem", loading)
    builds = count_product_builds(monkeypatch)
    methods = [m.value for m in Method]
    argv = ["compare", "--tensor", str(path), "--alpha", "0.3", "--methods", ",".join(methods)]
    assert main(argv) == EXIT_OK
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["method"] for row in rows] == methods
    [problem] = loaded
    assert builds == [(full_structure(30), problem.p_tensor)]
    assert problem.tensor is None


@pytest.mark.parametrize("tensor,v,message", [
    ("2 1\n1 1 x 0.5\n", None, "{tensor}:2: expected 'i j k value'"),
    ("2 1\n\n1 1 1 half\n", None, "{tensor}:3: expected 'i j k value'"),
    ("2 1\n1 1 1 0.5 7\n", None, "{tensor}:2: expected 'i j k value'"),
    ("2 one\n1 1 1 0.5\n", None, "{tensor}:1: expected header 'n nnz'"),
    (None, "0.5\n0.5\n", "v has shape (2,), but P has n = 3"),
    (None, "0.5\n0.25\n", "v has shape (2,), but P has n = 3"),
    (None, "nan\n0.5\n0.5\n", "v must be finite; entry 1 is nan"),
    (None, "0.5\ninf\n0.5\n", "v must be finite; entry 2 is inf"),
], ids=["index", "value", "extra-field", "header", "v-length", "v-length-not-stochastic",
        "v-nan", "v-inf"])
def test_malformed_tensor_and_v_files_name_the_fault(tensor, v, message, tmp_path, capsys):
    path = tmp_path / "t.txt"
    if tensor is None:
        write_tensor_text(Tensor3.from_unfolding(
            exact_stochastic_unfolding(np.random.default_rng(3), 3)), path)
    else:
        path.write_text(tensor)
    argv = ["solve", "--tensor", str(path), "--alpha", "0.3"]
    if v is not None:
        (tmp_path / "v.txt").write_text(v)
        argv += ["--v-file", str(tmp_path / "v.txt")]
    assert exit_code(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.endswith(f"error: {message.format(tensor=path)}\n")
    assert out == ""


@pytest.mark.parametrize("graph,v,message", [
    ("%%MatrixMarket matrix coordinate pattern general\n3 x 2\n1 2\n2 1\n", None,
     "{graph}:2: size line must be 'rows cols nnz'"),
    ("%%MatrixMarket matrix coordinate pattern general\n% c\n2 2 2\n1 2\n2 b\n", None,
     "{graph}:5: malformed entry '2 b'"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n2 1 one\n", None,
     "{graph}:4: malformed entry '2 1 one'"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 nan\n2 1 1\n", None,
     "{graph}:3: malformed entry '1 2 nan'"),
    (None, "0.25\n\nabc\n0.75\n", "{v}:3: expected one value"),
], ids=["mm-size", "mm-index", "mm-value", "mm-nan", "v-line"])
def test_malformed_graph_and_v_lines_name_file_and_line(graph, v, message, tmp_path, capsys):
    paths = {"graph": tmp_path / "g.mtx", "v": tmp_path / "v.txt"}
    if graph is not None:
        paths["graph"].write_text(graph)
        argv = ["solve", "--graph", str(paths["graph"]), "--alpha", "0.3"]
    else:
        write_tensor_text(Tensor3.from_unfolding(
            exact_stochastic_unfolding(np.random.default_rng(3), 3)), tmp_path / "t.txt")
        paths["v"].write_text(v)
        argv = ["solve", "--tensor", str(tmp_path / "t.txt"), "--alpha", "0.3",
                "--v-file", str(paths["v"])]
    assert exit_code(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.endswith(f"error: {message.format(**paths)}\n")
    assert out == ""


# The --out-csv files of each command on ex1 at alpha = 0.3, byte for byte.
SOLVE_CSV = """\
# mlpagerank-csv-v1 solve
k,residual_inf,e_cw,e_norm
0,0.68917637424572997,,
1,0.14248922244566967,,
2,0.015767115516747129,,
3,0.00029314096581441391,,
4,4.0669399543026498e-07,,
5,4.9935313918437165e-13,,
6,8.5095663581627803e-25,,
"""
PERTURB_CSV = """\
# mlpagerank-csv-v1 perturb
trial,epsilon_realized,d_cw_observed,bound_omega,bound_kappa,applicable_omega,applicable_kappa
0,6.4292411394717419e-09,8.3203897934105154e-10,5.7164370351690257e-08,9.2380138665471893e-08,1,1
1,7.8133688408144053e-09,1.3507055538572502e-10,6.9471078273302849e-08,1.122683203653586e-07,1,1
2,4.8809107866532031e-09,2.5677565399641381e-10,4.3397686100895833e-08,7.0132570954537547e-08,1,1
"""
COMPARE_CSV = """\
# mlpagerank-csv-v1 compare
method,k,e_cw,e_norm,residual_inf
newton-gth,0,1,1,0.68917637424572997
newton-gth,1,0.99999999997716926,0.25400918438589537,0.14248922244566967
newton-gth,2,0.15945968047475334,0.038127973179594661,0.015767115516747129
newton-gth,3,0.0061056884119343059,0.001175692551888321,0.00029314096581441391
newton-gth,4,6.8287682174338629e-06,1.3512717915512363e-06,4.0669399543026498e-07
newton-gth,5,8.875088259635802e-12,1.7440662259307885e-12,4.9935313918437165e-13
newton-gth,6,3.1614883817386415e-16,1.4600073618490815e-16,8.5095663581627803e-25
newton,0,1,1,0.68917637424572997
newton,1,0.99999999997716926,0.25400918438589537,0.14248922244566967
newton,2,0.15945968047475351,0.038127973179594786,0.015767115516747143
newton,3,0.0061056884119343059,0.0011756925518884033,0.00029314096581445348
newton,4,6.8287682175919371e-06,1.3512717916833491e-06,4.0669399548054486e-07
newton,5,8.8747721107976273e-12,1.7440010630142376e-12,4.9937831647639541e-13
newton,6,2.9014080671942679e-16,1.574537544742272e-16,6.9388939039072284e-18
"""


@pytest.mark.parametrize("argv,expected", [
    (["solve", *EX1], SOLVE_CSV),
    (["perturb", *EX1, "--epsilon", "1e-8", "--trials", "3"], PERTURB_CSV),
    (["compare", *EX1, "--methods", "newton-gth,newton"], COMPARE_CSV),
], ids=["solve", "perturb", "compare"])
def test_out_csv_bytes_on_ex1(argv, expected, tmp_path, capsys):
    path = tmp_path / "out.csv"
    assert main([*argv, "--out-csv", str(path)]) == EXIT_OK
    assert path.read_bytes() == expected.encode()


# Declared sizes are checked before anything of their size is allocated.
# numpy refuses the 10^8 sizes below at once, so without the check each
# would end in a MemoryError, not in a usage error.
HUGE_TENSOR = "100000000 1\n1 1 1 1.0\n"
HUGE_GRAPH = "%%MatrixMarket matrix coordinate pattern general\n% c\n100000000 100000000 1\n1 2\n"
EMPTY_GRAPH = "%%MatrixMarket matrix coordinate pattern general\n0 0 0\n"


@pytest.mark.parametrize("command,flag,text,where,array", [
    ("solve", "--tensor", HUGE_TENSOR, 1, "n x n"),
    ("solve", "--graph", HUGE_GRAPH, 3, "n x n"),
    ("ingest", "--graph", HUGE_GRAPH, 3, "n x n x n"),
], ids=["solve-tensor", "solve-graph", "ingest-graph"])
def test_a_size_beyond_physical_memory_is_a_usage_error(command, flag, text, where, array,
                                                       tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text(text)
    argv = [command, flag, str(path)]
    argv += ["--out-tensor", str(tmp_path / "out.txt")] if command == "ingest" else ["--alpha", "0.3"]
    assert exit_code(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    need = 8 * 10 ** (8 * array.count("n"))
    message = err.splitlines()[-1]
    assert message.startswith(f"error: {path}:{where}: n = 100000000 needs {need} bytes for a "
                              f"dense {array} float64 array, more than the ")
    assert message.endswith(" bytes of physical memory")
    assert out == "" and not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "0.3"],
    ["ingest", "--out-tensor", "unused.txt"],
], ids=["solve", "ingest"])
def test_an_empty_graph_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "g.mtx"
    path.write_text(EMPTY_GRAPH)
    argv = [argv[0], "--graph", str(path), *argv[1:]]
    if argv[0] == "ingest":
        argv[-1] = str(tmp_path / argv[-1])
    assert exit_code(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.endswith(f"error: {path}: the three-cycle tensor needs n >= 3, got n = 0\n")
    assert out == ""


def n_whose_cube_exceeds_memory():
    """The least n whose dense n x n x n float64 array exceeds physical
    memory; its n x n one fits.  None where os.sysconf cannot tell the memory."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    n = int((memory / 8) ** (1 / 3)) - 2
    while 8 * n ** 3 <= memory:
        n += 1
    assert 8 * n * n <= memory
    return n


@pytest.mark.parametrize("command,flag,extra", [
    ("compare", "--graph", ["--methods", "newton-gth"]),
    ("solve", "--graph", ["--reference"]),
    ("perturb", "--graph", ["--epsilon", "1e-8"]),
    ("perturb", "--tensor", ["--epsilon", "1e-8"]),
], ids=["compare-graph", "solve-reference-graph", "perturb-graph", "perturb-tensor"])
def test_a_command_that_forms_p_checks_n_cubed_first(command, flag, extra, tmp_path,
                                                     monkeypatch, capsys):
    n = n_whose_cube_exceeds_memory()
    if n is None:
        pytest.skip("os.sysconf cannot tell the physical memory")

    def forbidden(self):
        raise AssertionError("the n^3 entries of P were formed")

    # were the size line let through, these would fill the memory
    monkeypatch.setattr(PageRankTensor, "unfolding", forbidden)
    monkeypatch.setattr(Tensor3, "unfolding", forbidden)
    path = tmp_path / "in.txt"
    if flag == "--graph":
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n% c\n"
                        f"{n} {n} 3\n1 2\n2 3\n3 1\n")
        where = 3
    else:
        path.write_text(f"{n} 1\n1 1 1 1.0\n")
        where = 1
    tracemalloc.start()
    try:
        code = exit_code([command, flag, str(path), "--alpha", "0.3", *extra])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.splitlines()[-1].startswith(
        f"error: {path}:{where}: n = {n} needs {8 * n ** 3} bytes for a dense n x n x n "
        "float64 array, more than the ")
    assert out == ""
    assert peak < n * n  # not one byte an entry of an n x n array


def test_the_size_limit_is_in_the_help():
    for command in ("solve", "perturb", "compare", "ingest"):
        sub = cli.build_parser()._subparsers._group_actions[0].choices[command]
        text = " ".join(sub.format_help().split())
        assert "physical memory" in text
        assert "(8 n^3 bytes)" in text


METHOD_NAMES = [m.value for m in Method] + ["gauss-seidel"]


def captured_run(argv):
    """main(argv)'s exit code, stdout and stderr; any exception but
    SystemExit fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exit_code(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=90, derandomize=True, deadline=None)
@given(command=st.sampled_from(["solve", "compare", "perturb"]),
       name=st.sampled_from(["intro", "ex1", "ex2"]),
       methods=st.lists(st.sampled_from(METHOD_NAMES), min_size=1, max_size=3),
       blocks=st.sampled_from([None, "4", "2,2", "1,3", "1,1", "0,4", "a,b", ""]),
       alpha=st.sampled_from(["0.3", "0.49999", "0.5", "0.6", "0", "1", "-1", "nan", "inf"]),
       tol=st.sampled_from(["0", "1e-15", "-1", "nan"]),
       maxit=st.sampled_from(["-1", "0", "1", "50", "500"]),
       reference=st.booleans(),
       seed=st.sampled_from(["-1", "-5", "0", "7", str(2**64 + 3)]),
       trials=st.sampled_from(["-1", "0", "1", "2"]))
@example(command="perturb", name="ex1", methods=["block-jacobi"], blocks="1,1", alpha="0.3",
         tol="1e-15", maxit="50", reference=True, seed="0", trials="2")
@example(command="perturb", name="ex2", methods=["newton-gth"], blocks=None, alpha="0.3",
         tol="1e-15", maxit="50", reference=False, seed=str(2**64 + 3), trials="2")
@example(command="perturb", name="ex1", methods=["newton"], blocks=None, alpha="0.49999",
         tol="1e-15", maxit="50", reference=False, seed="-1", trials="1")
def test_solve_and_compare_exit_with_a_code_and_json_lines(command, name, methods, blocks,
                                                           alpha, tol, maxit, reference,
                                                           seed, trials):
    shared = ["--builtin", name, f"--alpha={alpha}", f"--tol={tol}", f"--maxit={maxit}"]
    if blocks is not None:
        shared.append(f"--block-sizes={blocks}")
    method = ["--methods", ",".join(methods)] if command == "compare" else ["--method", methods[0]]
    extra = []
    if command == "perturb":
        extra = ["--epsilon=1e-8", f"--trials={trials}", f"--seed={seed}",
                 *(["--reference"] if reference else [])]
    code, out, err = captured_run([command, *shared, *method, *extra])
    assert code in (EXIT_OK, EXIT_MAXIT, EXIT_NUMERICAL, EXIT_USAGE)
    for line in out.splitlines():
        json.loads(line)
    if code == EXIT_USAGE:
        assert [line.startswith("error: ") for line in err.splitlines()].count(True) == 1
    if command == "perturb":
        # perturb takes solve's method flags and rejects what solve rejects,
        # also with --reference, which never runs the method; it rejects a
        # trial count below 1 and a negative seed besides
        solve_code = captured_run(["solve", *shared, *method])[0]
        own_flags_bad = int(trials) < 1 or int(seed) < 0
        assert (code == EXIT_USAGE) == (own_flags_bad or solve_code == EXIT_USAGE)


TENSOR_MUTATIONS = ["garbled-header", "negative-header", "miscounted-header", "index-0",
                    "index-above-n", "non-numeric", "negative", "nan", "1e400", "duplicate",
                    "blank-lines"]


@st.composite
def tensor_files(draw):
    """A stochastic tensor file with n = 2-4, and at most one mutation."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    U = exact_stochastic_unfolding(rng, n, draw(st.sampled_from([1.0, 0.5])))
    lines = [[str(i), str(j), str(k), repr(v)]
             for i, j, k, v in Tensor3.from_unfolding(U).entries()]
    header = [str(n), str(len(lines))]
    mutation = draw(st.none() | st.sampled_from(TENSOR_MUTATIONS))  # about half valid
    e = draw(st.integers(0, len(lines) - 1))
    if mutation == "garbled-header":
        header = draw(st.sampled_from([[str(n), "x"], ["n", "nnz"], [str(n)], []]))
    elif mutation == "negative-header":
        field = draw(st.integers(0, 1))
        header[field] = f"-{header[field]}"
    elif mutation == "miscounted-header":
        header[1] = str(len(lines) + draw(st.sampled_from([-1, 1])))
    elif mutation in ("index-0", "index-above-n"):
        lines[e][draw(st.integers(0, 2))] = "0" if mutation == "index-0" else str(n + 1)
    elif mutation in ("non-numeric", "negative", "nan", "1e400"):
        lines[e][3] = {"non-numeric": "half", "negative": "-0.5"}.get(mutation, mutation)
    elif mutation == "duplicate":
        lines.append(list(lines[e]))
        header[1] = str(len(lines))
    text = [" ".join(header)] + [" ".join(line) for line in lines]
    if mutation == "blank-lines":
        for at in sorted(draw(st.lists(st.integers(1, len(text)), min_size=1, max_size=3)),
                         reverse=True):
            text.insert(at, draw(st.sampled_from(["", "  ", "\t"])))
    return n, "\n".join(text) + "\n"


@settings(max_examples=100, derandomize=True, deadline=None)
@given(command=st.sampled_from(["solve", "compare", "perturb"]),
       tensor=tensor_files(),
       v_file=st.sampled_from([None, "stochastic"]) | st.sampled_from(
           ["short", "nan", "not-stochastic"]),
       alpha=st.sampled_from(["0.3", "0.49"]))
def test_tensor_files_exit_with_a_code_and_one_line(command, tensor, v_file, alpha):
    n, text = tensor
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, "--tensor", path, f"--alpha={alpha}"]
        if v_file is not None:
            quarters = np.r_[np.full(n - 1, 0.25), 1.0 - 0.25 * (n - 1)]  # sums to 1 exactly
            v = {"stochastic": quarters, "short": quarters[1:],
                 "nan": np.r_[np.nan, quarters[1:]], "not-stochastic": np.full(n, 0.5)}[v_file]
            with open(os.path.join(tmp, "v.txt"), "w", encoding="utf-8") as fh:
                fh.write("".join(f"{t!r}\n" for t in v))
            argv += ["--v-file", os.path.join(tmp, "v.txt")]
        argv += {"solve": ["--method", "newton-gth"], "compare": ["--methods", "newton-gth"],
                 "perturb": ["--epsilon=1e-8", "--trials=2"]}[command]
        code, out, err = captured_run(argv)
    assert "Traceback" not in err
    assert code in (EXIT_OK, EXIT_MAXIT, EXIT_NUMERICAL, EXIT_USAGE)
    if code in (EXIT_OK, EXIT_MAXIT):
        [line] = out.splitlines()
        json.loads(line)
    else:
        # a usage error prints the usage, then its one-line message
        [message] = [line for line in err.splitlines() if line.startswith("error: ")]
        assert err.endswith(message + "\n")
        assert code == EXIT_USAGE or err == message + "\n"


GRAPH_MUTATIONS = ["field-count", "index", "weight", "header-count", "hash-or-percent",
                   "no-break-space", "empty-body"]
BAD_INDICES = ["0", "{n1}", "1.0", "+1", "1_0", "\uff11", "99999999999999999999"]


@st.composite
def graph_files(draw):
    """A Matrix Market graph with n = 3-6, blank and '%' lines, and at most
    one mutation."""
    n = draw(st.integers(3, 6))
    field = draw(st.sampled_from(["pattern", "real", "integer"]))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    edges = np.argwhere(rng.random((n, n)) < 0.6)
    if symmetry == "symmetric":
        edges = edges[edges[:, 0] >= edges[:, 1]]  # the lower triangle, as the format stores it
    lines = [[str(i + 1), str(j + 1)] for i, j in edges]
    for line in lines:
        if field == "real":
            line.append(repr(float(rng.choice([0.0, 0.25, 1.0, 3.5e-300]))))
        elif field == "integer":
            line.append(str(rng.integers(-2, 9)))
    size = [str(n), str(n), str(len(lines))]
    choices = [m for m in GRAPH_MUTATIONS if field != "pattern" or m != "weight"]
    mutation = draw(st.none() | st.sampled_from(choices))  # about half valid
    e = draw(st.integers(0, max(len(lines) - 1, 0)))
    separator = [" "] * len(lines)
    if mutation == "field-count" and lines:
        lines[e] = lines[e][:-1] if draw(st.booleans()) else [*lines[e], "1"]
    elif mutation == "index" and lines:
        bad = draw(st.sampled_from(BAD_INDICES)).format(n1=n + 1)
        lines[e][draw(st.integers(0, 1))] = bad
    elif mutation == "weight" and lines:
        lines[e][2] = draw(st.sampled_from(["nan", "inf", "1e400", "0", "-1"]))
    elif mutation == "header-count":
        size[2] = str(len(lines) + draw(st.sampled_from([-1, 1])))
    elif mutation == "hash-or-percent" and lines:
        mark = draw(st.sampled_from(["#", "%", "% c", "#c"]))
        at = draw(st.integers(0, len(lines[e])))
        if draw(st.booleans()):
            lines[e].insert(at, mark)
        else:
            lines[e][min(at, len(lines[e]) - 1)] += mark
    elif mutation == "no-break-space" and lines:
        separator[e] = "\xa0"
    elif mutation == "empty-body":
        lines, separator = [], []
        if draw(st.booleans()):
            size[2] = "0"
    text = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", " ".join(size)]
    text += [sep.join(line) for sep, line in zip(separator, lines)]
    filler = st.sampled_from(["", "  ", "\t", "% c", "%", "  % indented"])
    for at in sorted(draw(st.lists(st.integers(1, len(text)), max_size=3)), reverse=True):
        text.insert(at, draw(filler))
    return "\n".join(text) + "\n"


def read_outcome(path):
    """read_matrix_market's matrix bytes and shape, or its error message."""
    try:
        A = read_matrix_market(path).matrix
    except ValueError as exc:
        return str(exc)
    return A.shape, A.tobytes()


def check_graph_file(text, v_seed="0", nu="0.1"):
    """read_matrix_market gives what the per-line reader gives, and solve and
    ingest with --v-seed and --nu exit with a code and one line: a negative
    --v-seed is refused before the graph is read, a --nu outside [0, 1]
    after it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.mtx")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        got = read_outcome(path)
        with mock.patch.object(ingest, "_parse_entries", lambda *args: None):
            want = read_outcome(path)
        assert got == want
        if int(v_seed) < 0:
            want = f"--v-seed must be nonnegative, got {v_seed}"
        elif not isinstance(want, str) and not 0.0 <= float(nu) <= 1.0:
            want = f"nu must be in [0, 1], got {float(nu)}"
        flags = [f"--v-seed={v_seed}", f"--nu={nu}"]
        for argv in (["solve", "--alpha=0.3"], ["ingest", "--out-tensor", os.path.join(tmp, "t")]):
            code, out, err = captured_run([argv[0], "--graph", path, *flags, *argv[1:]])
            assert "Traceback" not in err
            assert code in (EXIT_OK, EXIT_MAXIT, EXIT_NUMERICAL, EXIT_USAGE)
            if isinstance(want, str):
                assert code == EXIT_USAGE and err.endswith(f"error: {want}\n")
            if code in (EXIT_OK, EXIT_MAXIT):
                [line] = out.splitlines()
                json.loads(line)
            else:
                [message] = [line for line in err.splitlines() if line.startswith("error: ")]
                assert err.endswith(message + "\n")
                assert code == EXIT_USAGE or err == message + "\n"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=graph_files(),
       v_seed=st.sampled_from(["0", "3", str(2**64 + 3), "-1", str(-2**64)]),
       nu=st.sampled_from(["0.1", "0", "1"]) | st.sampled_from(
           ["nan", "inf", "-inf", "-0.5", "1.5", "1e400"]))
def test_graph_files_read_as_line_by_line_and_exit_with_a_code_and_one_line(text, v_seed, nu):
    check_graph_file(text, v_seed, nu)


@pytest.mark.parametrize("command", [["solve", "--alpha=0.3"], ["ingest", "--out-tensor", "t"],
                                     ["compare", "--alpha=0.3", "--methods", "newton-gth"]])
def test_a_negative_v_seed_is_refused_before_the_graph_is_read(command, tmp_path, capsys):
    missing = str(tmp_path / "no-such-graph.mtx")
    argv = [command[0], "--graph", missing, "--v-seed=-1", *command[1:]]
    assert exit_code(argv) == EXIT_USAGE
    assert capsys.readouterr().err.endswith("error: --v-seed must be nonnegative, got -1\n")


PATTERN_HEADER = "%%MatrixMarket matrix coordinate pattern general\n"
REAL_HEADER = "%%MatrixMarket matrix coordinate real symmetric\n"


@pytest.mark.parametrize("text", [
    *(PATTERN_HEADER + f"3 3 3\n1 2\n2 {bad.format(n1=4)}\n3 1\n" for bad in BAD_INDICES),
    *(REAL_HEADER + f"3 3 3\n2 1 1\n3 2 {w}\n3 1 1\n" for w in ["nan", "inf", "1e400", "0", "-1"]),
    *(PATTERN_HEADER + f"3 3 3\n1 2\n{line}\n3 1\n"
      for line in ["2 3 #", "2 3#", "2 % 3", "%2 3", "2\xa03", "2 3 4", "2"]),
    PATTERN_HEADER + "3 3 0\n",
    PATTERN_HEADER + "3 3 3\n \n\t\n",
], ids=[*(f"index-{b}" for b in ["0", "n+1", "1.0", "+1", "1_0", "fullwidth-1", "beyond-int64"]),
        "weight-nan", "weight-inf", "weight-1e400", "weight-0",
        "weight-negative", "hash", "glued-hash", "percent", "comment-line", "no-break-space",
        "extra-field", "missing-field", "empty-body", "blank-body"])
def test_hand_written_graph_files_read_as_line_by_line(text):
    check_graph_file(text)
