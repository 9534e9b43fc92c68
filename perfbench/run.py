#!/usr/bin/env python3
"""Benchmark of the ``qeigen`` command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 10 --trace 0

One closed-loop client runs the workload's commands one child process at a
time.  Each command is a fresh ``python -m qeigen`` interpreter, because that
is what a user pays for: the in-memory generator memo of ``forms`` and the
quadrature cache of ``evaluate`` die with the process, and only the on-disk
generator cache outlives it.  A run

1. empties a private ``QEIGEN_CACHE_DIR`` under ``.perfbench_work/`` and
   times one cold pass over the commands: ``setup_s``, which holds every
   cold generator build;
2. times warm passes for ``--seconds`` seconds (at least one; a pass is not
   started when the median pass would overrun): ``wall_s`` is their median;
3. with ``--trace 1``, times one more warm pass untraced and then traced
   passes through ``traced_cli.py``; these give the per-layer metrics.

Every command of every pass is checked: exit status 0, the sha256 of its
artifact (stdout JSON or the profile CSV) against ``reference.json``, each
``table`` row against the published tables in ``tests/goldens.py`` up to a
rational scalar, and ``"pass": true`` in every verify payload.  A failed
check is counted, never raised; the run then exits with status 1.

The last line of stdout is the result as one JSON object.  The full record,
stamped with the environment, goes to
``.perfbench_work/BENCH_<workload>_seed<seed>_trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.util
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"

COMMAND_TIMEOUT_S = 90
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# The sign grid of ``sign_change_certificate`` walks r² from 2n - 1.9 to
# 2n + 40, so it holds the 21 even integers 2n, 2n + 2, ..., 2n + 40, whose
# values are exact and cost no W(s) evaluation.
LATTICE_POINTS_PER_GRID = 21

# Seed menus.  The entries of one menu cost the same, so the seed changes the
# inputs but not the load.
# solve-sweep: d = 948 and 960 both carry the extra degree of freedom and
# took 10.8 s and 11.1 s for both signs; d = 952 or 956 take about 7 s.
SWEEP_DIMS = (948, 960)
# certify: the plus expansions at d = 20 and 24 have the same principal
# depth (2), quadrature samples (1200) and series lengths, so each W(s) does
# the same work.  Other cases of {8, 24, 48} x {plus, minus} differ in depth
# or sample count, and (8, minus) reports an extra sign change below the
# certified radius.
CERTIFY_SIGN_DIMS = (20, 24)
# long-window: cross_validate checks both signs whichever is asked for, so
# the two entries do the same work.  (The solves at d = 44 and 72 differ
# from d = 48 by 5-8 %.)
LONG_WINDOW_CROSS_SIGNS = ("minus", "plus")


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``{out}`` in argv stands for the artifact path."""

    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def writes_file(self) -> bool:
        return "{out}" in self.argv


def _cmd(*argv) -> Command:
    return Command(tuple(str(a) for a in argv))


def build_commands(workload: str, choice) -> list[Command]:
    if workload == "solve-sweep":
        d = choice
        return [
            _cmd("table", "--sign", "minus", "--dmax", 96),
            _cmd("table", "--sign", "plus", "--dmax", 96),
            _cmd("solve", "--sign", "minus", "--dim", d),
            _cmd("solve", "--sign", "plus", "--dim", d),
            _cmd("solve", "--sign", "minus", "--dim", 96, "--origin-zero"),
        ]
    if workload == "certify":
        return [
            _cmd("verify", "--check", "signs", "--dim", choice, "--sign", "plus"),
            _cmd("eval", "--dim", 24, "--sign", "plus", "--out", "{out}"),
            _cmd("verify", "--check", "functional", "--dim", 48, "--sign", "minus"),
            _cmd("verify", "--check", "orders", "--dim", 48, "--sign", "minus"),
        ]
    if workload == "long-window":
        return [
            _cmd("solve", "--dim", 48, "--sign", "minus", "--trunc", 512),
            _cmd("solve", "--dim", 48, "--sign", "plus", "--trunc", 512),
            _cmd("verify", "--check", "cross", "--dim", 96, "--sign", choice, "--trunc", 256),
            _cmd("positivity", "--wmin", 8, "--wmax", 40, "--trunc", 256),
        ]
    raise ValueError(f"unknown workload {workload!r}")


MENUS = {
    "solve-sweep": SWEEP_DIMS,
    "certify": CERTIFY_SIGN_DIMS,
    "long-window": LONG_WINDOW_CROSS_SIGNS,
}


def commands_for_seed(workload: str, seed: int) -> list[Command]:
    """The seed picks one menu entry; the program sees only the argv."""
    return build_commands(workload, random.Random(seed).choice(MENUS[workload]))


def all_commands(workload: str) -> list[Command]:
    """Every command of every menu entry, once each."""
    seen: dict[str, Command] = {}
    for choice in MENUS[workload]:
        for cmd in build_commands(workload, choice):
            seen.setdefault(cmd.key, cmd)
    return list(seen.values())


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------


@dataclass
class CommandResult:
    key: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    status: int
    artifact: bytes
    spans_path: Path | None = None
    failures: list[str] = field(default_factory=list)
    stderr_tail: list[str] = field(default_factory=list)


@dataclass
class RunSet:
    """Private directories of one run: cache, artifacts and span files."""

    work: Path
    reference: dict
    goldens: object

    @property
    def cache(self) -> Path:
        return self.work / "cache"

    @property
    def out(self) -> Path:
        return self.work / "out"

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["QEIGEN_CACHE_DIR"] = str(self.cache)
        return env

    def reset(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.cache.mkdir(parents=True)
        self.out.mkdir(parents=True)


def run_command(cmd: Command, rs: RunSet, spans_path: Path | None = None) -> CommandResult:
    """Run one command to completion; ``spans_path`` selects the traced entry."""
    csv_path = rs.out / "profile.csv"
    stdout_path = rs.out / "stdout"
    stderr_path = rs.out / "stderr"
    csv_path.unlink(missing_ok=True)
    args = [a.replace("{out}", str(csv_path)) for a in cmd.argv]
    if spans_path is None:
        program = [sys.executable, "-m", "qeigen", *args]
    else:
        program = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), "--", *args]
    env = rs.child_env()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        env["PERFBENCH_SPAWN"] = repr(time.monotonic())
        started = time.perf_counter()
        proc = subprocess.Popen(program, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(wait_status)  # reaped above, not by Popen
    artifact_path = csv_path if cmd.writes_file else stdout_path
    artifact = artifact_path.read_bytes() if artifact_path.exists() else b""
    cpu = usage.ru_utime + usage.ru_stime
    result = CommandResult(cmd.key, wall, cpu, usage.ru_maxrss, proc.returncode, artifact, spans_path)
    result.failures = check(cmd, result, rs)
    if result.failures:
        result.stderr_tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
    return result


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def load_goldens():
    """Import ``tests/goldens.py`` read-only: published rows, not code under test."""
    spec = importlib.util.spec_from_file_location("qeigen_goldens", ROOT / "tests" / "goldens.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_failures(payload: dict, goldens) -> list[str]:
    """Each table row with a published counterpart must match it up to a
    rational scalar, and no published row in range may be missing."""
    sign = payload["config"]["sign"]
    table = goldens.PLUS_TABLE if sign == "plus" else goldens.MINUS_TABLE
    names = ("P", "Q", "R") if sign == "plus" else ("X", "Y", "Z")
    published = {d: p + q + r for d, p, q, r in table}
    lo, hi = payload["config"]["dmin"], payload["config"]["dmax"]
    rows = {row["d"]: row for row in payload["outputs"]}
    failures = []
    for d, want in sorted(published.items()):
        if not lo <= d <= hi:
            continue
        row = rows.get(d)
        if row is None:
            failures.append(f"golden: row d={d} missing")
            continue
        mine = [Fraction(x) for name in names for x in row[name]]
        if not goldens.proportional(mine, want):
            failures.append(f"golden: row d={d} is not proportional to the published row")
    return failures


def check(cmd: Command, result: CommandResult, rs: RunSet) -> list[str]:
    """Reasons the command failed; empty when it passed every check."""
    failures = []
    if result.status != 0:
        failures.append(f"exit status {result.status}")
    want = rs.reference.get(cmd.key)
    got = hashlib.sha256(result.artifact).hexdigest()
    if want is None:
        failures.append("no reference hash")
    elif want != got:
        failures.append(f"sha256 {got[:12]}… differs from the reference {str(want)[:12]}…")
    if cmd.writes_file:
        return failures
    try:
        payload = json.loads(result.artifact)
        if cmd.argv[0] == "table":
            failures += golden_failures(payload, rs.goldens)
        elif cmd.argv[0] == "verify" and payload["outputs"]["pass"] is not True:
            failures.append("verify payload has pass != true")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        failures.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    return failures


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    kind: str  # "setup", "warm", "baseline" or "traced"
    results: list[CommandResult]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)


def run_pass(kind: str, commands: list[Command], rs: RunSet, trace_dir: Path | None = None) -> Pass:
    results = []
    for i, cmd in enumerate(commands):
        spans = trace_dir / f"{i:02d}.json" if trace_dir is not None else None
        results.append(run_command(cmd, rs, spans))
    return Pass(kind, results)


def timed_passes(kind, commands, rs, seconds, trace_root: Path | None = None) -> list[Pass]:
    """At least one pass; another only while the median pass still fits."""
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        trace_dir = None
        if trace_root is not None:
            trace_dir = trace_root / f"pass{len(passes)}"
            trace_dir.mkdir(parents=True)
        passes.append(run_pass(kind, commands, rs, trace_dir))
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            return passes


# ---------------------------------------------------------------------------
# per-layer metrics from span files
# ---------------------------------------------------------------------------

def _inside(spans: list, parent, names) -> bool:
    """True when ``parent`` or one of its ancestors is named in ``names``."""
    while parent is not None:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def span_totals(payloads: list[dict]) -> dict:
    """Per span name: calls, total seconds (outermost span of a name only)
    and self seconds, plus summed counters; over all span files given."""
    totals: dict[str, dict] = {}
    for payload in payloads:
        spans = payload["spans"]
        counts = payload.get("counts", {})
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += (end - start) - child_time[i]
            if not _inside(spans, parent, {name}):
                t["s"] += end - start
            for key, value in counts.get(str(i), {}).items():
                if key.startswith("max_"):
                    t[key] = max(t.get(key, 0), value)
                else:
                    t[key] = t.get(key, 0) + value
    return totals


def time_in(payloads: list[dict], names: set, within: set | None = None) -> float:
    """Seconds inside spans named in ``names``, each instant counted once;
    with ``within``, only the part that runs inside a span named there."""
    total = 0.0
    for payload in payloads:
        spans = payload["spans"]
        for name, start, end, parent in spans:
            if name not in names or _inside(spans, parent, names):
                continue
            if within is None or _inside(spans, parent, within):
                total += end - start
    return total


def layer_metrics(payloads: list[dict], traced_wall: float, baseline_wall: float) -> dict:
    """Per-layer metrics of one traced pass (one span file per command)."""
    totals = span_totals(payloads)

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    main_s = get("cli.main", "s")
    main_self = get("cli.main", "self_s")
    cert = "evaluate.sign_change_certificate"
    points = get(cert, "points")
    w_points = points - LATTICE_POINTS_PER_GRID * get(cert, "calls")
    w_time = get(cert, "s") - time_in(payloads, {"evaluate.eval_psi"}, within={cert})
    return {
        "cli.startup_s": (sum(p["startup_s"] for p in payloads), "s"),
        "cli.main.s": (main_s, "s"),
        "trace.unattributed_frac": (main_self / main_s if main_s else 0.0, "frac"),
        "trace.overhead_frac": (traced_wall / baseline_wall - 1.0, "frac"),
        "forms.generator.calls": (get("forms.generator", "calls"), "count"),
        "forms.generator.s": (get("forms.generator", "s"), "s"),
        "qseries.mul.calls": (get("qseries.mul", "calls"), "count"),
        "qseries.mul.s": (get("qseries.mul", "s"), "s"),
        "qseries.mul.out_terms": (get("qseries.mul", "out_terms"), "terms"),
        "qseries.mul.max_bits": (get("qseries.mul", "max_bits"), "bits"),
        "qseries.invert.calls": (get("qseries.invert", "calls"), "count"),
        "qseries.invert.s": (get("qseries.invert", "s"), "s"),
        "linalg.kernel_basis.calls": (get("linalg.kernel_basis", "calls"), "count"),
        "linalg.kernel_basis.s": (get("linalg.kernel_basis", "s"), "s"),
        "linalg.kernel_basis.cells": (get("linalg.kernel_basis", "cells"), "cells"),
        "plus.solve_plus.calls": (get("plus.solve_plus", "calls"), "count"),
        "plus.solve_plus.self_s": (get("plus.solve_plus", "self_s"), "s"),
        "plus.assemble_psi_plus.s": (get("plus.assemble_psi_plus", "s"), "s"),
        "minus.solve_minus.calls": (get("minus.solve_minus", "calls"), "count"),
        "minus.solve_minus.self_s": (get("minus.solve_minus", "self_s"), "s"),
        "minus.assemble_psi_minus.s": (get("minus.assemble_psi_minus", "s"), "s"),
        "minus.apply_origin_constraint.s": (get("minus.apply_origin_constraint", "s"), "s"),
        "evaluate.eval_psi.calls": (get("evaluate.eval_psi", "calls"), "count"),
        "evaluate.eval_psi.s": (get("evaluate.eval_psi", "s"), "s"),
        "evaluate.sign_change_certificate.s": (get(cert, "s"), "s"),
        "evaluate.sign_change_certificate.points": (points, "count"),
        "evaluate.w_eval.s_per_point": (w_time / w_points if w_points > 0 else 0.0, "s/point"),
        "evaluate.write_profile_csv.s": (get("evaluate.write_profile_csv", "s"), "s"),
        "evaluate.write_profile_csv.rows": (get("evaluate.write_profile_csv", "rows"), "count"),
        "evaluate.functional_eq_check.s": (get("evaluate.functional_eq_check", "s"), "s"),
        "families.family.calls": (get("families.family", "calls"), "count"),
        "families.family.s": (get("families.family", "s"), "s"),
        "families.cross_validate.s": (get("families.cross_validate", "s"), "s"),
        "positivity.scan.calls": (get("positivity.scan", "calls"), "count"),
        "positivity.scan.s": (get("positivity.scan", "s"), "s"),
    }


def median_metrics(samples: list[dict]) -> dict:
    return {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def _git(*args) -> str | None:
    env = dict(os.environ)
    env.update(GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, env=env, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def environment() -> dict:
    import mpmath.libmp

    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qeigen").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = dirty = None
    if (ROOT / ".git").exists():
        head = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        revision = head.strip() if head else None
        dirty = bool(status.strip()) if status is not None else None
    return {
        "python": sys.version.split()[0],
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "git_dirty": dirty,
        "source_sha256": source.hexdigest(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


def prepare() -> tuple[dict, object]:
    """Compile the package and load the checks; raises on a broken checkout."""
    if not (ROOT / "src" / "qeigen" / "cli.py").is_file():
        raise FileNotFoundError(f"no qeigen sources under {ROOT / 'src'}")
    if not compileall.compile_dir(str(ROOT / "src" / "qeigen"), quiet=1):
        raise RuntimeError("qeigen sources do not compile")
    reference = json.loads(REFERENCE.read_text())
    return reference, load_goldens()


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference, goldens = prepare()
    commands = commands_for_seed(workload, seed)
    rs = RunSet(WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}", reference, goldens)
    rs.reset()
    try:
        setup = run_pass("setup", commands, rs)
        cache_files = [p for p in rs.cache.rglob("*") if p.is_file()]
        cache = {"files": len(cache_files), "bytes": sum(p.stat().st_size for p in cache_files)}
        passes = [setup]
        if not trace:
            passes += timed_passes("warm", commands, rs, seconds)
        else:
            passes.append(run_pass("baseline", commands, rs))
            passes += timed_passes("traced", commands, rs, seconds, rs.work / "trace")
        record = summarize(workload, seed, trace, commands, passes, cache)
    finally:
        shutil.rmtree(rs.work, ignore_errors=True)
    return record


def summarize(workload, seed, trace, commands, passes, cache) -> dict:
    setup = passes[0]
    timed = [p for p in passes if p.kind in ("warm", "traced")]
    results = [r for p in passes for r in p.results]
    attempted = len(results)
    failed = sum(1 for r in results if r.failures)
    walls = [p.wall_s for p in timed]
    if not trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup.wall_s, "s"),
            "peak_rss_mb": (max(r.maxrss_kb for r in results) / 1024, "MB"),
        }
    else:
        baseline = next(p for p in passes if p.kind == "baseline")
        samples = []
        for p in timed:
            payloads = [json.loads(r.spans_path.read_text()) for r in p.results if r.spans_path.exists()]
            if payloads:
                samples.append(layer_metrics(payloads, p.wall_s, baseline.wall_s))
        metrics = median_metrics(samples) if samples else {}
        metrics["forms.cache_files"] = (cache["files"], "count")
        metrics["forms.cache_bytes"] = (cache["bytes"], "B")
        metrics["failed_frac"] = (failed / attempted, "frac")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "commands": [c.key for c in commands],
        "cache_after_setup": cache,
        "wall_s": _quartiles(walls),
        "passes": [
            {
                "kind": p.kind,
                "wall_s": p.wall_s,
                "commands": [
                    {"key": r.key, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "maxrss_kb": r.maxrss_kb,
                     "status": r.status, "failures": r.failures, "stderr_tail": r.stderr_tail}
                    for r in p.results
                ],
            }
            for p in passes
        ],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MENUS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, ValueError, RuntimeError, ImportError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    out = WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for p in record["passes"]:
        for c in p["commands"]:
            for line in c["failures"] + c["stderr_tail"]:
                print(f"FAILED [{p['kind']}] {c['key']}: {line}", file=sys.stderr)
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    for name, m in record["metrics"].items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
