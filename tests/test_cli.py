"""Tests for the command-line exit codes (2 usage error, 3 inconclusive) and
for options that must reach the solver."""

from __future__ import annotations

import json

import pytest

from qeigen import cli
from qeigen.evaluate import BadSamplePoint, PoleAt2k, PrecisionLoss
from qeigen.qseries import TruncationTooSmall


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--dim", "8", "--sign", "plus", "--trunc", "-5"],
        ["solve", "--dim", "8", "--sign", "plus", "--trunc", "0"],
        ["eval", "--dim", "8", "--sign", "plus", "--precision", "10"],
        ["eval", "--dim", "8", "--sign", "plus", "--at", "-1"],
        ["eval", "--dim", "8", "--sign", "plus", "--rstep", "0"],
        ["dump-forms", "--forms", "Omega:x"],
    ],
    ids=["trunc-negative", "trunc-zero", "precision-low", "at-negative", "rstep-zero", "forms-int"],
)
def test_bad_input_is_a_usage_error(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,name",
    [
        (["eval", "--dim", "48", "--sign", "plus", "--trunc", "4", "--at", "1"], "TruncationTooSmall"),
        (["eval", "--dim", "8", "--sign", "plus", "--trunc", "4", "--at", "1"], "PrecisionLoss"),
    ],
    ids=["window-too-short", "tail-over-budget"],
)
def test_short_window_is_inconclusive(argv, name, capsys):
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith(f"inconclusive: {name}: ")


@pytest.mark.parametrize("exc", [TruncationTooSmall, PrecisionLoss, BadSamplePoint, PoleAt2k])
def test_inconclusive_exceptions_exit_3(exc, monkeypatch, capsys):
    def raise_it(*args):
        raise exc("cannot certify")

    monkeypatch.setattr(cli, "_solve", raise_it)
    assert cli.main(["solve", "--dim", "8", "--sign", "plus"]) == 3
    assert capsys.readouterr().err == f"inconclusive: {exc.__name__}: cannot certify\n"


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_origin_constraint_uses_the_requested_window(sign):
    sol, _, _ = cli._solve(16, sign, 128, origin_zero=True)
    series = sol.psi1 if sign == "plus" else sol.f_series
    assert series.trunc2 == 2 * 128


def test_short_positivity_scan_is_inconclusive(capsys):
    argv = ["positivity", "--wmin", "8", "--wmax", "40", "--trunc", "4"]
    assert cli.main(argv) == 3
    verdicts = {r["verdict"] for r in json.loads(capsys.readouterr().out)["outputs"]}
    assert "scan-incomplete" in verdicts and "nonpositive-found" not in verdicts


@pytest.mark.parametrize(
    "verdicts,status",
    [
        (["positive-beyond-threshold"], 0),
        (["positive-beyond-threshold", "scan-incomplete"], 3),
        (["scan-incomplete", "nonpositive-found"], 1),
    ],
)
def test_positivity_exit_status(verdicts, status):
    assert cli._positivity_status(verdicts) == status


def test_verify_positivity_short_scan_is_inconclusive(capsys):
    argv = ["verify", "--check", "positivity", "--dim", "32", "--sign", "plus", "--trunc", "4"]
    assert cli.main(argv) == 3
    payload = json.loads(capsys.readouterr().out)["outputs"]
    assert payload["verdict"] == "scan-incomplete" and payload["pass"] is False
