"""Sweep trace reuse: capture once per (workload, scale), replay every
point, and produce byte-identical JSON to the non-traced runner."""

import pathlib

import pytest

from repro.experiments.parallel import run_sweep, sweep_to_json
from repro.jobs import ResultStore


@pytest.fixture()
def trace_store(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    return cache / "traces"


def _store_state(store: pathlib.Path):
    return sorted((p.name, p.stat().st_mtime_ns) for p in store.glob("*.trace"))


def _stored_engines() -> list[str]:
    """``provenance.engine`` of every record in the current result store."""
    return [r["provenance"]["engine"] for _, r in ResultStore.default().entries()]


def test_traced_sweep_is_byte_identical_and_captures_once(trace_store):
    plain = sweep_to_json(run_sweep("ablations", jobs=1, scale="tiny"))
    traced = sweep_to_json(run_sweep("ablations", jobs=1, scale="tiny",
                                     trace=True))
    assert traced == plain
    # ablations sweeps one (workload, scale) combo -> exactly one functional
    # capture, keyed on (program digest, workload config, base seed).
    state = _store_state(trace_store)
    assert len(state) == 1

    # A second traced sweep reuses the stored capture (mtimes untouched)
    # and stays byte-identical.
    again = sweep_to_json(run_sweep("ablations", jobs=1, scale="tiny",
                                    trace=True))
    assert again == plain
    assert _store_state(trace_store) == state


def test_traced_sweep_is_backend_invariant(trace_store):
    serial = sweep_to_json(run_sweep("ablations", jobs=1, scale="tiny",
                                     trace=True))
    sharded = sweep_to_json(run_sweep("ablations", jobs=2, scale="tiny",
                                      trace=True))
    assert serial == sharded
    assert len(_store_state(trace_store)) == 1


def test_corrupt_stored_trace_is_recaptured(trace_store):
    run_sweep("ablations", jobs=1, scale="tiny", trace=True)
    (path,) = trace_store.glob("*.trace")
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x10
    path.write_bytes(bytes(raw))
    # The poisoned file fails its integrity check at capture-validity time
    # and is silently re-captured; the sweep still runs clean.
    plain = sweep_to_json(run_sweep("ablations", jobs=1, scale="tiny"))
    traced = sweep_to_json(run_sweep("ablations", jobs=1, scale="tiny",
                                     trace=True))
    assert traced == plain


def test_traced_sweep_replays_every_point(trace_store):
    """Equal bytes alone would also pass a silent fall-back to direct
    execution: every record a traced sweep stores must say it replayed —
    and so must a *plain* sweep on a root that holds only those captures,
    because each point finds them through the job layer, not the sweep."""
    traced = run_sweep("ablations", jobs=2, scale="tiny", trace=True)
    replayed = ["replay"] * len(traced["points"])
    assert _stored_engines() == replayed

    ResultStore.default().clear()
    telemetry: dict = {}
    plain = run_sweep("ablations", jobs=2, scale="tiny", telemetry=telemetry)
    assert telemetry["store_misses"] == len(plain["points"])
    assert _stored_engines() == replayed
    assert sweep_to_json(plain) == sweep_to_json(traced)
