"""Tests for the command-line exit codes: 2 usage error, 3 inconclusive."""

from __future__ import annotations

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
