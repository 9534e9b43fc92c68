#!/usr/bin/env python3
"""Self-tests of the benchmark.  Usage: python3 perfbench/selftest.py

Kept beside the benchmark, under a name pytest does not collect, because the
traced-pass test runs every workload's commands (about two minutes).  Each
test prints PASS or FAIL; the exit status is 1 when any failed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import sys
import traceback

import run
import traced_cli

EVALUATE_SPANS = {span for _, _, span in traced_cli.WRAPPED if span.startswith("evaluate.")}
EXACT_SPANS = {"cli.main", "forms.generator", "qseries.mul", "qseries.invert", "linalg.kernel_basis"}

# Spans each workload is meant to exercise (at least one call each) and
# spans it must never enter.  A zero in the first set means a wrapper missed
# a binding, such as a by-name import, not that the layer did no work.
EXPECTED_CALLS = {
    "solve-sweep": EXACT_SPANS | {"plus.solve_plus", "minus.solve_minus", "minus.apply_origin_constraint"},
    "certify": EXACT_SPANS - {"qseries.invert"} | {
        "plus.solve_plus", "plus.assemble_psi_plus", "minus.solve_minus", "minus.assemble_psi_minus",
    } | EVALUATE_SPANS,
    "long-window": EXACT_SPANS | {
        "plus.solve_plus", "minus.solve_minus", "families.family", "families.cross_validate",
        "positivity.scan",
    },
}
EXPECTED_ZERO = {"solve-sweep": EVALUATE_SPANS, "certify": set(), "long-window": EVALUATE_SPANS}


def _run_set(name: str, reference: dict | None = None) -> run.RunSet:
    ref = json.loads(run.REFERENCE.read_text()) if reference is None else reference
    rs = run.RunSet(run.WORK / f"selftest-{name}-{os.getpid()}", ref, run.load_goldens())
    rs.reset()
    return rs


def test_metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    bad = [n for n in names if not run.METRIC_NAME.fullmatch(n)]
    assert not bad, f"names outside [A-Za-z0-9_.-]+: {bad}"
    assert {w["name"] for w in spec["workloads"]} == set(run.MENUS)

    # the names the benchmark prints must be exactly those it declares
    rs = _run_set("names")
    try:
        span_file = rs.work / "spans.json"
        span_file.write_text(json.dumps({
            "spans": [["cli.main", 0.0, 1.0, None]], "counts": {}, "startup_s": 0.1, "missing": [],
        }))
        result = run.CommandResult("k", 1.0, 1.0, 1024, 0, b"", span_file)
        traced = run.summarize("certify", 0, True, [], [
            run.Pass("setup", [result]), run.Pass("baseline", [result]), run.Pass("traced", [result]),
        ], {"files": 0, "bytes": 0})
        plain = run.summarize("certify", 0, False, [], [
            run.Pass("setup", [result]), run.Pass("warm", [result]),
        ], {"files": 0, "bytes": 0})
    finally:
        shutil.rmtree(rs.work, ignore_errors=True)
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}, "per_layer names drift"
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}, "end_to_end names drift"
    for record, group in ((traced, "per_layer"), (plain, "end_to_end")):
        units = {m["name"]: m["unit"] for m in spec[group]}
        for name, m in record["metrics"].items():
            assert m["unit"] == units[name], f"{name}: unit {m['unit']} != {units[name]}"


def test_traced_passes():
    """Per workload: traced and untraced artifacts are byte-identical, every
    expected layer records calls, and the named spans explain cli.main."""
    for workload in sorted(run.MENUS):
        commands = run.commands_for_seed(workload, 0)
        rs = _run_set(workload)
        try:
            plain = run.run_pass("setup", commands, rs)
            trace_dir = rs.work / "trace"
            trace_dir.mkdir()
            traced = run.run_pass("traced", commands, rs, trace_dir)
            for a, b in zip(plain.results, traced.results):
                assert not a.failures and not b.failures, f"{a.key}: {a.failures or b.failures}"
                assert a.artifact == b.artifact, f"{workload}: {a.key}: traced artifact differs"
            payloads = [json.loads(r.spans_path.read_text()) for r in traced.results]
        finally:
            shutil.rmtree(rs.work, ignore_errors=True)
        assert not any(p["missing"] for p in payloads), f"{workload}: unwrapped {payloads[0]['missing']}"
        totals = run.span_totals(payloads)
        calls = {name: t["calls"] for name, t in totals.items()}
        missed = sorted(n for n in EXPECTED_CALLS[workload] if not calls.get(n))
        assert not missed, f"{workload}: no calls recorded for {missed}"
        entered = sorted(n for n in EXPECTED_ZERO[workload] if calls.get(n))
        assert not entered, f"{workload}: unexpected calls to {entered}"
        metrics = run.layer_metrics(payloads, 1.0, 1.0)
        unattributed = metrics["trace.unattributed_frac"][0]
        assert unattributed <= 0.10, f"{workload}: {unattributed:.1%} of cli.main is unattributed"
        if workload == "certify":
            share = run.time_in(payloads, EVALUATE_SPANS) / totals["cli.main"]["s"]
            assert share >= 0.90, f"certify: evaluate spans hold only {share:.1%} of cli.main"
        print(f"  {workload}: unattributed {unattributed:.2%}, {len(calls)} span names")


def test_corrupted_reference_is_a_failure():
    cmd = run.build_commands("long-window", "minus")[1]  # solve plus at --trunc 512
    reference = json.loads(run.REFERENCE.read_text())
    good = reference[cmd.key]
    corrupt = copy.deepcopy(reference)
    corrupt[cmd.key] = hashlib.sha256(b"corrupted").hexdigest()
    rs = _run_set("corrupt", corrupt)
    try:
        bad_result = run.run_command(cmd, rs)
        rs.reference[cmd.key] = None  # a missing or malformed entry
        none_result = run.run_command(cmd, rs)
        rs.reference[cmd.key] = good
        ok_result = run.run_command(cmd, rs)
    finally:
        shutil.rmtree(rs.work, ignore_errors=True)
    assert any("sha256" in f for f in bad_result.failures), bad_result.failures
    assert none_result.failures, "a missing reference hash passed"
    assert not ok_result.failures, ok_result.failures
    record = run.summarize("long-window", 0, False, [cmd], [
        run.Pass("setup", [bad_result]), run.Pass("warm", [ok_result]),
    ], {"files": 0, "bytes": 0})
    assert record["attempted"] == 2 and record["failed"] == 1


def test_golden_mismatch_is_a_failure():
    goldens = run.load_goldens()
    rows = [{"d": d, "P": [str(x) for x in p], "Q": [str(x) for x in q], "R": [str(x) for x in r]}
            for d, p, q, r in goldens.PLUS_TABLE]
    payload = {"config": {"sign": "plus", "dmin": 4, "dmax": 96}, "outputs": rows}
    assert run.golden_failures(payload, goldens) == []
    scaled = copy.deepcopy(payload)
    scaled["outputs"][0]["P"] = [str(-7 * int(x)) for x in rows[0]["P"]]
    scaled["outputs"][0]["Q"] = [str(-7 * int(x)) for x in rows[0]["Q"]]
    scaled["outputs"][0]["R"] = [str(-7 * int(x)) for x in rows[0]["R"]]
    assert run.golden_failures(scaled, goldens) == [], "a rational multiple must match"
    wrong = copy.deepcopy(payload)
    wrong["outputs"][0]["P"][0] = str(int(rows[0]["P"][0]) + 1)
    assert len(run.golden_failures(wrong, goldens)) == 1
    missing = copy.deepcopy(payload)
    del missing["outputs"][0]
    assert any("missing" in f for f in run.golden_failures(missing, goldens))


def main() -> int:
    failed = 0
    for name, test in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            test()
        except Exception:  # report every test, whatever one raises
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
        else:
            print(f"PASS {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
