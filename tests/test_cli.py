"""Command-line exit codes."""

import json
from decimal import Decimal

import pytest

from mlpagerank import precision
from mlpagerank.cli import EXIT_MAXIT, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main

EX1 = ["--builtin", "ex1", "--alpha", "0.3"]


@pytest.mark.parametrize("argv,message", [
    (["perturb", *EX1, "--epsilon", "1e-8", "--trials", "0"], "--trials must be at least 1"),
    (["solve", *EX1, "--method", "block-jacobi", "--block-sizes", "a,b"],
     "--block-sizes must be comma-separated integers"),
    (["solve", *EX1, "--tol", "-1"], "tol must be nonnegative"),
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
                  "--block-sizes", "1,1"), EXIT_NUMERICAL,
     "block-jacobi-gth-variant on the unperturbed problem ended diverged", None),
    (perturb_args("ex1", "0.3", "--reference"), EXIT_NUMERICAL,
     "extended-precision reference of the unperturbed problem did not converge", 0),
    (perturb_args("ex1", "0.5"), EXIT_NUMERICAL, "R_m is singular", None),
    (perturb_args("ex1", "0.5", "--reference"), EXIT_NUMERICAL, "R_m is singular", None),
], ids=["epsilon-large", "epsilon-negative", "epsilon-nan", "fixed-point-maxit",
        "newton-maxit", "variant-diverged", "reference-unconverged", "singular-rm",
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
