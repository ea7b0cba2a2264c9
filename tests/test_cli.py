"""Command-line exit codes."""

import json

import pytest

from mlpagerank.cli import EXIT_OK, EXIT_USAGE, main

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
