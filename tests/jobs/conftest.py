"""Job-layer fixtures: every test runs against an isolated cache root."""

import pytest

from repro.core.results import run_document
from repro.jobs.store import ResultStore


def document(record: dict) -> str:
    """The ``--stats-out`` document of a record, as ``repro run`` renders it."""
    return run_document(
        record["stats"], record["stats_digest"], record["snapshots"], record["completed"]
    )


@pytest.fixture()
def cache_root(tmp_path, monkeypatch):
    """Point REPRO_CACHE_DIR (compile cache, result store) at a
    per-test temp directory so tests never see each other's records."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    return root


@pytest.fixture()
def store(cache_root):
    store = ResultStore.default()
    assert store is not None
    return store
