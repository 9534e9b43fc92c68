"""Command-line front end: solve, evaluate, verify, and dump artifacts.

Artifacts are deterministic: JSON is dumped with sorted keys and no
timestamps, numeric values are fixed-digit strings, and repeated runs with
the same command and config produce byte-identical files.  Wall-clock
timing is reported on stderr only, so it never perturbs the artifact.

Exit codes: 0 success, 1 verification failure, 2 usage error (including
dimensions outside 4ℤ and constraints that do not apply), 3 inconclusive
(the series window or precision could not certify the result either way).
For ``positivity`` and ``verify --check positivity``: any weight verdict
``nonpositive-found`` gives 1; otherwise any ``scan-incomplete`` gives 3;
all ``positive-beyond-threshold`` gives 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass

import mpmath

from . import families, minus, plus, positivity
from .evaluate import (
    BadSamplePoint,
    EvalConfig,
    PoleAt2k,
    PrecisionLoss,
    SignAnomaly,
    eval_F,
    functional_eq_check,
    sign_change_certificate,
    special_values,
    write_profile_csv,
)
from .families import FamilyKey, MismatchBeyondScalar
from .forms import GeneratorId, InvalidId, generator
from .pole import BadDimension, ConstraintUnavailable, NoSolution
from .positivity import DecompositionFailure
from .qseries import TruncationTooSmall

ARTIFACT_VERSION = 1

# minimum image height 0.61 keeps a wide truncation margin even at d = 48
CHECK_POINTS = (1j, (1 + 3j) / 2, 0.3 + 0.9j, -0.25 + 1.1j, 0.5 + 0.61j)

FUNCTIONAL_THRESHOLD = "1e-20"


@dataclass(frozen=True)
class RunRecord:
    """Envelope written around every artifact: the command echo, the full
    config, and a content hash of both — enough to reproduce the run."""

    command: str
    config: dict
    outputs: object

    def to_json(self) -> dict:
        stamp = json.dumps(
            {"command": self.command, "config": self.config}, sort_keys=True
        )
        return {
            "version": ARTIFACT_VERSION,
            "command": self.command,
            "config": self.config,
            "inputs_sha1": hashlib.sha1(stamp.encode()).hexdigest(),
            "outputs": self.outputs,
        }


def _emit(record: RunRecord, out: str | None) -> None:
    text = json.dumps(record.to_json(), indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solve(d: int, sign: str, n_trunc: int, origin_zero: bool):
    if sign == "plus":
        sol = plus.solve_plus(d, n_trunc=n_trunc)
        if origin_zero:
            sol = plus.apply_origin_constraint(sol, n_trunc=n_trunc)
        return sol, plus.to_record(sol), plus.assemble_psi_plus
    sol = minus.solve_minus(d, n_trunc=n_trunc)
    if origin_zero:
        sol = minus.apply_origin_constraint(sol, n_trunc=n_trunc)
    return sol, minus.to_record(sol), minus.assemble_psi_minus


def _config_echo(args, extra: dict | None = None) -> dict:
    cfg = {"trunc": args.trunc}
    for key in ("dim", "sign", "precision"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    if getattr(args, "origin_zero", False):
        cfg["origin_zero"] = True
    if extra:
        cfg.update(extra)
    return cfg


def _eval_config(args) -> EvalConfig:
    return EvalConfig(precision=args.precision, n_trunc=args.trunc)


def cmd_solve(args) -> int:
    _, record, _ = _solve(args.dim, args.sign, args.trunc, args.origin_zero)
    if args.origin_zero:
        record["origin_zero"] = True
    _emit(RunRecord("solve", _config_echo(args), record), args.out)
    return 0


def cmd_eval(args) -> int:
    sol, _, assemble = _solve(args.dim, args.sign, args.trunc, args.origin_zero)
    psi = assemble(sol)
    cfg = _eval_config(args)
    if args.at is not None:
        with mpmath.workprec(cfg.precision + 32):
            val = eval_F(psi, mpmath.mpf(args.at), cfg)
            digits = int(cfg.precision * 0.302) + 2
            payload = {
                "r": mpmath.nstr(mpmath.mpf(args.at), 17),
                "F": mpmath.nstr(val, digits, strip_zeros=False),
            }
        _emit(RunRecord("eval", _config_echo(args, {"at": args.at}), payload), args.out)
        return 0
    if not args.out:
        print("error: profile mode needs --out for the CSV", file=sys.stderr)
        return 2
    steps = int(args.rmax / args.rstep)
    grid = [i * args.rstep for i in range(steps + 1)]
    rows = write_profile_csv(psi, grid, args.out, cfg)
    print(f"wrote {rows} rows to {args.out}", file=sys.stderr)
    return 0


def _check_functional(psi, cfg):
    residual = functional_eq_check(psi, list(CHECK_POINTS), cfg)
    ok = residual < mpmath.mpf(FUNCTIONAL_THRESHOLD)
    return ok, {
        "residual": mpmath.nstr(residual, 8),
        "threshold": FUNCTIONAL_THRESHOLD,
        "points": [str(p) for p in CHECK_POINTS],
    }


def _check_orders(psi, cfg):
    n = psi.depth
    u0, du0 = special_values(psi, n, cfg)
    lattice_ok = u0 == 0 and abs(du0) > 0
    beyond = all(special_values(psi, m, cfg) == (0, 0) for m in range(n + 1, n + 13))
    return lattice_ok and beyond, {
        "lattice_index": n,
        "crossing_slope": mpmath.nstr(du0, 12),
        "double_zeros_beyond": beyond,
    }


def _check_ode(args):
    key, w = families.weight_of_dimension(args.dim, args.sign)
    members = families.family(key, w, args.trunc)
    member = members[-1]
    residual = families.ode_residual(member)
    return residual is None, {
        "kind": key.kind,
        "weight": w,
        "residual_valuation2": residual,
    }


def _check_cross(args):
    checks = families.cross_validate(args.dim, n_trunc=args.trunc)
    ck = next(c for c in checks if c.sign == args.sign)
    ok = ck.residual_valuation2 is None
    return ok, {
        "weight": ck.weight,
        "scalar": str(ck.scalar),
        "exact": ok,
    }


def _check_positivity(args):
    key, w = families.weight_of_dimension(args.dim, args.sign)
    if key.kind != "f":
        print(
            "error: --check positivity applies to the plus-side family only",
            file=sys.stderr,
        )
        return None, None
    members = families.family(key, w, args.trunc + 8)
    report = positivity.scan(members[-1].form, args.trunc)
    return report.verdict == "positive-beyond-threshold", report.to_json()


def _check_signs(psi, cfg):
    try:
        cert = sign_change_certificate(psi, cfg)
    except SignAnomaly as exc:
        return False, {"verdict": "anomaly", "detail": str(exc)}
    return cert["grid_verdict"] == "certified", {
        "last_sign_change": mpmath.nstr(cert["last_sign_change"], 20),
        "radius_squared": 2 * cert["lattice_index"],
        "lattice_index": cert["lattice_index"],
        "verdict": cert["grid_verdict"],
        "sign_below": cert["sign_below"],
        "sign_beyond": cert["sign_beyond"],
        "points": cert["points"],
    }


def cmd_verify(args) -> int:
    if args.check in ("ode", "cross", "positivity"):
        ok, payload = {
            "ode": _check_ode,
            "cross": _check_cross,
            "positivity": _check_positivity,
        }[args.check](args)
        if ok is None:
            return 2
    else:
        sol, _, assemble = _solve(args.dim, args.sign, args.trunc, args.origin_zero)
        psi = assemble(sol)
        cfg = _eval_config(args)
        ok, payload = {
            "functional": _check_functional,
            "orders": _check_orders,
            "signs": _check_signs,
        }[args.check](psi, cfg)
    payload = {"check": args.check, "pass": bool(ok), **payload}
    _emit(RunRecord("verify", _config_echo(args, {"check": args.check}), payload), args.out)
    if args.check == "positivity":
        return _positivity_status([payload["verdict"]])
    return 0 if ok else 1


def cmd_table(args) -> int:
    rows = []
    for d in range(args.dmin, args.dmax + 1):
        if d % 4:
            continue
        _, record, _ = _solve(d, args.sign, args.trunc, False)
        n_pm = record["n_plus" if args.sign == "plus" else "n_minus"]
        record["radius_squared"] = 2 * n_pm
        record["last_sign_change"] = mpmath.nstr(mpmath.sqrt(2 * n_pm), 17)
        rows.append(record)
    config = _config_echo(args, {"dmin": args.dmin, "dmax": args.dmax})
    if args.format == "json":
        _emit(RunRecord("table", config, rows), args.out)
        return 0
    poly = ("P", "Q", "R") if args.sign == "plus" else ("X", "Y", "Z")
    header = ["d", "ell", "k", "n", "n_pm", *poly, "last_sign_change"]
    lines = [",".join(header)]
    for rec in rows:
        n_pm = rec["n_plus" if args.sign == "plus" else "n_minus"]
        cells = [str(rec["d"]), str(rec["ell"]), str(rec["k"]), str(rec["n"]), str(n_pm)]
        cells += [";".join(rec[p]) for p in poly]
        cells.append(rec["last_sign_change"])
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _positivity_status(verdicts) -> int:
    """1 if any weight is disproved, else 3 if any scan was too short to
    decide, else 0."""
    if "nonpositive-found" in verdicts:
        return 1
    return 3 if "scan-incomplete" in verdicts else 0


def cmd_positivity(args) -> int:
    reports = []
    for w in range(args.wmin, args.wmax + 1, 2):
        key = FamilyKey(kind="f", residue=w % 4)
        members = families.family(key, w, args.trunc + 8)
        reports.append(positivity.scan(members[-1].form, args.trunc).to_json())
    config = _config_echo(args, {"wmin": args.wmin, "wmax": args.wmax})
    _emit(RunRecord("positivity", config, reports), args.out)
    return _positivity_status([r["verdict"] for r in reports])


def _form_ids(text: str) -> list[tuple[str, GeneratorId]]:
    """Parse a --forms list like "E4,Omega:3" into (token, GeneratorId) pairs."""
    out = []
    for token in text.split(","):
        name, *bits = token.strip().split(":")
        out.append((token.strip(), GeneratorId(name, tuple(int(b) for b in bits))))
    return out


def cmd_dump_forms(args) -> int:
    payload = {}
    for token, gid in _form_ids(args.forms):
        payload[token] = generator(gid, args.trunc).to_json()
    _emit(RunRecord("dump-forms", {"trunc": args.trunc, "forms": args.forms}, payload), args.out)
    return 0


def _arg(convert, check):
    """argparse type: ``convert`` the text, then ``check`` the value; a
    ValueError from either is a usage error (exit 2).  The value is what
    ``convert`` returns, so the config echo in artifacts is unchanged."""

    def parse(text: str):
        try:
            value = convert(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _radius(x: float) -> None:
    if not 0 <= x < math.inf:
        raise ValueError(f"radius must be finite and >= 0, got {x}")


def _step(x: float) -> None:
    if not 0 < x < math.inf:
        raise ValueError(f"step must be finite and > 0, got {x}")


_TRUNC = _arg(int, lambda n: EvalConfig(n_trunc=n))  # floors live in EvalConfig
_PRECISION = _arg(int, lambda bits: EvalConfig(precision=bits))


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qeigen",
        description="Radial Fourier eigenfunctions with prescribed zeros: "
        "exact solvers, numeric evaluation, and verification.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, dim=True):
        if dim:
            p.add_argument("--dim", type=int, required=True, help="dimension d ≡ 0 mod 4")
            p.add_argument("--sign", choices=("plus", "minus"), required=True)
            p.add_argument("--origin-zero", action="store_true",
                           help="apply the extra vanishing constraint at the origin")
        p.add_argument("--trunc", type=_TRUNC, default=64, metavar="N",
                       help="series window O(q^N) (default 64)")
        p.add_argument("--out", metavar="PATH", help="artifact path (default stdout)")

    p = sub.add_parser("solve", help="solve one dimension, emit the exact record")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="evaluate the radial profile F")
    common(p)
    p.add_argument("--precision", type=_PRECISION, default=256, metavar="BITS")
    p.add_argument("--at", type=_arg(float, _radius), help="single radius instead of a profile")
    p.add_argument("--rmax", type=float, default=4.0)
    p.add_argument("--rstep", type=_arg(float, _step), default=0.0625)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run one verification check")
    common(p)
    p.add_argument("--precision", type=_PRECISION, default=256, metavar="BITS")
    p.add_argument("--check", required=True,
                   choices=("functional", "orders", "ode", "cross", "positivity", "signs"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="dump solver records for a range of dimensions")
    common(p, dim=False)
    p.add_argument("--sign", choices=("plus", "minus"), required=True)
    p.add_argument("--dmin", type=int, default=4)
    p.add_argument("--dmax", type=int, default=48)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("positivity", help="certify coefficient positivity per weight")
    common(p, dim=False)
    p.add_argument("--wmin", type=int, default=8)
    p.add_argument("--wmax", type=int, default=40)
    p.set_defaults(func=cmd_positivity)

    p = sub.add_parser("dump-forms", help="dump generator q-expansions as JSON")
    common(p, dim=False)
    p.add_argument("--forms", type=_arg(str, _form_ids),
                   default="E2,E4,E6,Delta,J,Theta00_4,Theta01_4,Theta10_4,Lambda",
                   help="comma list; integer arguments after colons, e.g. Omega:3")
    p.set_defaults(func=cmd_dump_forms)

    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        status = args.func(args)
    except (BadDimension, ConstraintUnavailable, InvalidId) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (NoSolution, MismatchBeyondScalar, DecompositionFailure, SignAnomaly) as exc:
        print(f"verification failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (TruncationTooSmall, PrecisionLoss, BadSamplePoint, PoleAt2k) as exc:
        print(f"inconclusive: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"{args.command}: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
