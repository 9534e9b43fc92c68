"""Byte-identity sweep: recompute the sha256 of every `solve` and `table`
artifact listed in ``identity_manifest.json`` and compare.

    PYTHONPATH=src python3 tests/identity_sweep.py          # check, exit 1 on a mismatch
    PYTHONPATH=src python3 tests/identity_sweep.py --write  # regenerate the manifest

The artifacts are ``solve`` JSON for every d ≡ 0 (mod 4) in 4..244 on both
signs, with and without ``--origin-zero`` (where that flag applies), and
``table`` JSON with ``--dmax 244`` and ``--dmax 48`` on both signs, all at the
default window.  Every command runs through ``cli.main`` in one process, so
generator builds are shared.  The file name keeps pytest from collecting it;
``test_identity.py`` checks the d ≤ 48 subset in tier-1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from qeigen import cli

MANIFEST = Path(__file__).with_name("identity_manifest.json")
DMAX = 244


def candidate_argvs() -> list[list[str]]:
    """Every command the sweep tries, in run order.  With ``--write``, an
    ``--origin-zero`` solve that exits 2 (no extra degree of freedom) is
    left out of the manifest."""
    argvs = []
    for sign in ("plus", "minus"):
        for d in range(4, DMAX + 1, 4):
            base = ["solve", "--dim", str(d), "--sign", sign]
            argvs += [base, base + ["--origin-zero"]]
    for top in (48, DMAX):
        for sign in ("plus", "minus"):
            argvs.append(["table", "--sign", sign, "--dmax", str(top)])
    return argvs


def bound(argv: list[str]) -> int:
    """The largest dimension an artifact covers (its --dim or --dmax)."""
    flag = "--dim" if "--dim" in argv else "--dmax"
    return int(argv[argv.index(flag) + 1])


def run(argv: list[str]) -> tuple[int, str]:
    """Exit status and stdout sha256 of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, hashlib.sha256(out.getvalue().encode()).hexdigest()


def load(max_dim: int | None = None) -> list[dict]:
    entries = json.loads(MANIFEST.read_text())["artifacts"]
    return [e for e in entries if max_dim is None or bound(e["argv"]) <= max_dim]


def write() -> int:
    artifacts = []
    for argv in candidate_argvs():
        status, digest = run(argv)
        if status == 2 and "--origin-zero" in argv:
            continue
        if status != 0:
            print(f"exit {status}: {' '.join(argv)}", file=sys.stderr)
            return 1
        artifacts.append({"argv": argv, "sha256": digest})
    lines = ",\n".join("  " + json.dumps(a) for a in artifacts)
    MANIFEST.write_text('{"artifacts": [\n' + lines + "\n]}\n")
    print(f"wrote {len(artifacts)} digests to {MANIFEST}")
    return 0


def check() -> int:
    bad = 0
    entries = load()
    for e in entries:
        status, digest = run(e["argv"])
        if status != 0 or digest != e["sha256"]:
            bad += 1
            print(f"MISMATCH (exit {status}): {' '.join(e['argv'])}", file=sys.stderr)
    print(f"{len(entries) - bad}/{len(entries)} artifacts identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(write() if sys.argv[1:] == ["--write"] else check())
