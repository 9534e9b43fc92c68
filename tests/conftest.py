"""Shared test setup."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session", autouse=True)
def private_generator_cache(tmp_path_factory):
    """Point the generator disk cache at a directory private to this session,
    so tests neither read stale entries from nor write into the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("QEIGEN_CACHE_DIR", str(tmp_path_factory.mktemp("qeigen-cache")))
        yield
