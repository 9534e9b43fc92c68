"""Run one ``qeigen`` CLI command with spans around the calls into each layer.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- <qeigen arguments>

The wrappers live here, outside the package: each replaces every binding of
a public function in every loaded ``qeigen`` module (``cli`` imports
``sign_change_certificate`` by name, ``families`` imports ``solve_minus`` by
name, ``_quad_samples`` reaches ``eval_psi`` through module globals), so a
call is timed whichever name it goes through.  Spans are kept in memory and
written to SPANS_JSON, apart from the artifact, when the command ends.  The
exit status is the CLI's own.

The environment variable PERFBENCH_SPAWN holds the parent's
``time.monotonic()`` just before it started this process; the start-up time
(interpreter plus import of ``qeigen.cli``) is measured from it.  On Linux
``time.monotonic`` reads the system-wide CLOCK_MONOTONIC, so the two
processes share a clock.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute path, span name).  A path with a dot names a method.
WRAPPED = (
    ("forms", "generator", "forms.generator"),
    ("qseries", "QSeries.__mul__", "qseries.mul"),
    ("qseries", "QSeries.invert", "qseries.invert"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("plus", "solve_plus", "plus.solve_plus"),
    ("plus", "assemble_psi_plus", "plus.assemble_psi_plus"),
    ("minus", "solve_minus", "minus.solve_minus"),
    ("minus", "assemble_psi_minus", "minus.assemble_psi_minus"),
    ("minus", "apply_origin_constraint", "minus.apply_origin_constraint"),
    ("evaluate", "eval_psi", "evaluate.eval_psi"),
    ("evaluate", "sign_change_certificate", "evaluate.sign_change_certificate"),
    ("evaluate", "write_profile_csv", "evaluate.write_profile_csv"),
    ("evaluate", "functional_eq_check", "evaluate.functional_eq_check"),
    ("families", "family", "families.family"),
    ("families", "cross_validate", "families.cross_validate"),
    ("positivity", "scan", "positivity.scan"),
)


class Recorder:
    """Spans as [name, start, end, parent index] plus per-span counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = [name, time.monotonic(), None, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._stack.pop()
            if count is not None:
                self.counts[idx] = count(args, kwargs, result)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counts": {str(i): c for i, c in self.counts.items()},
        }


def _coef_bits(x) -> int:
    num = getattr(x, "numerator", x)
    den = getattr(x, "denominator", 1)
    try:
        return max(int(num).bit_length(), int(den).bit_length())
    except (TypeError, ValueError):
        return 0


def _count_mul(args, kwargs, result) -> dict:
    coeffs = getattr(result, "c", None)
    if coeffs is None:
        return {}
    return {
        "out_terms": len(coeffs),
        "max_bits": max((_coef_bits(x) for x in coeffs), default=0),
    }


def _count_kernel(args, kwargs, result) -> dict:
    rows = args[0] if args else kwargs.get("rows", [])
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols", 0)
    return {"cells": len(rows) * ncols}


def _count_certificate(args, kwargs, result) -> dict:
    return {"points": int(result.get("points", 0))} if isinstance(result, dict) else {}


def _count_rows(args, kwargs, result) -> dict:
    return {"rows": int(result)} if isinstance(result, int) else {}


COUNTERS = {
    "qseries.mul": _count_mul,
    "linalg.kernel_basis": _count_kernel,
    "evaluate.sign_change_certificate": _count_certificate,
    "evaluate.write_profile_csv": _count_rows,
}


def install(recorder: Recorder) -> list[str]:
    """Wrap every entry of WRAPPED; returns the entries that were not found."""
    missing = []
    for mod_name, path, span in WRAPPED:
        try:
            mod = importlib.import_module(f"qeigen.{mod_name}")
        except ImportError:
            missing.append(span)
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(span)
            continue
        wrapper = recorder.wrap(original, span, COUNTERS.get(span))
        if owner_name:
            # a class: rebind the method and every alias of it (__rmul__)
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
            continue
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "qeigen" or name.startswith("qeigen.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS_JSON -- <qeigen arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    from qeigen import cli

    imported = time.monotonic()
    spawn = float(os.environ.get("PERFBENCH_SPAWN", imported))
    recorder = Recorder()
    missing = install(recorder)
    wrapped_main = recorder.wrap(cli.main, "cli.main")
    try:
        status = wrapped_main(cli_args)
    finally:
        payload = recorder.to_json()
        payload["startup_s"] = imported - spawn
        payload["missing"] = missing
        with open(spans_path, "w") as fh:
            json.dump(payload, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
