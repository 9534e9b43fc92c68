"""Byte identity of the `solve` and `table` artifacts for d ≤ 48 against the
committed manifest (``identity_sweep.py`` checks all d ≤ 244)."""

from __future__ import annotations

import pytest

import identity_sweep

ENTRIES = identity_sweep.load(max_dim=48)


def test_manifest_subset_is_complete():
    # 12 dimensions per sign, 6 of them per sign with --origin-zero, 2 tables
    assert len(ENTRIES) == 38


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_artifact_is_byte_identical(entry):
    assert identity_sweep.run(entry["argv"]) == (0, entry["sha256"])
