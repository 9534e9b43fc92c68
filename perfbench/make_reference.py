#!/usr/bin/env python3
"""Rewrite ``perfbench/reference.json`` from the code in this checkout.

Usage: python3 perfbench/make_reference.py

Runs every command of every seed-menu entry once, against a private empty
generator cache, and stores the sha256 of each artifact.  A command that
fails any other check (exit status, published tables, verify verdict) stops
the script, so a wrong artifact never becomes a reference.  Only rerun this
when an artifact is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run


def main() -> int:
    goldens = run.load_goldens()
    hashes = {}
    for workload in sorted(run.MENUS):
        rs = run.RunSet(run.WORK / f"reference-{workload}-{os.getpid()}", {}, goldens)
        rs.reset()
        try:
            for cmd in run.all_commands(workload):
                result = run.run_command(cmd, rs)
                other = [f for f in result.failures if f != "no reference hash"]
                if other:
                    print(f"{cmd.key}: {'; '.join(other)}", file=sys.stderr)
                    return 1
                hashes[cmd.key] = hashlib.sha256(result.artifact).hexdigest()
                print(f"{result.wall_s:7.2f}s  {cmd.key}", file=sys.stderr)
        finally:
            shutil.rmtree(rs.work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
