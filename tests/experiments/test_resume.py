"""Kill-and-re-run tests: the result store is the only record of a finished
sweep point.

The contract (module docstring of :mod:`repro.experiments.parallel`): each
point's worker seals its record into the store before it returns, so a sweep
that loses workers, or is killed and simply run again, renders
**byte-identical** JSON to one uninterrupted run — finished points are store
hits, the rest simulate.  Every test owns a fresh ``REPRO_CACHE_DIR``; the
baseline sweep runs on yet another, so nothing here is pre-warmed.
"""

import json

import pytest

from repro.experiments.parallel import (
    SweepError,
    build_points,
    point_key,
    resolve,
    run_sweep,
    sweep_to_json,
)
from repro.jobs import ResultStore, job_key

EXPERIMENT = "ablations"
SCALE = "tiny"
SPECS = build_points(EXPERIMENT, SCALE, 1)
VICTIM = point_key(SPECS[2])


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One uninterrupted serial sweep: the bytes every variant must match."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("baseline")))
        return sweep_to_json(run_sweep(EXPERIMENT, jobs=1, scale=SCALE))


@pytest.fixture(autouse=True)
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_SWEEP_CRASH_POINT", raising=False)
    return ResultStore.default()


def _sweep(**kwargs) -> tuple[str, dict]:
    telemetry: dict = {}
    payload = run_sweep(EXPERIMENT, scale=SCALE, telemetry=telemetry, **kwargs)
    return sweep_to_json(payload), telemetry


def test_crash_injection_is_inert_without_env():
    assert resolve(SPECS[:1])[point_key(SPECS[0])]["completed"]


def test_kill_one_worker_then_recover(tmp_path, monkeypatch, baseline):
    """A worker that dies mid-sweep (os._exit, no cleanup — the pool sees a
    BrokenProcessPool) is retried with a fresh pool; the sweep completes and
    its bytes match the uninterrupted baseline."""
    marker = tmp_path / "crashed-once"
    monkeypatch.setenv("REPRO_SWEEP_CRASH_POINT", VICTIM)
    monkeypatch.setenv("REPRO_SWEEP_CRASH_ONCE", str(marker))

    text, tel = _sweep(jobs=2, max_retries=2)
    assert marker.exists(), "the injected crash never fired"
    assert text == baseline
    assert tel["store_hits"] + tel["store_misses"] == len(SPECS)


def test_kill_then_separate_resume_run(monkeypatch, store, baseline):
    """The CI shape: sweep #1 dies (a point's worker crashes on every
    attempt, retries exhausted); sweep #2 is the same call minus the crash
    and must finish from a *mix* of store hits and fresh runs."""
    monkeypatch.setenv("REPRO_SWEEP_CRASH_POINT", VICTIM)
    with pytest.raises(SweepError, match="lost its worker"):
        _sweep(jobs=2, max_retries=1)
    assert store.keys(), "no point was sealed before the sweep died"

    monkeypatch.delenv("REPRO_SWEEP_CRASH_POINT")
    text, tel = _sweep(jobs=2, max_retries=1)
    assert text == baseline
    assert tel["store_hits"] >= 1 and tel["store_misses"] >= 1
    assert tel["store_hits"] + tel["store_misses"] == len(SPECS)
    engines = {record["provenance"]["engine"] for _, record in store.entries()}
    assert engines == {"direct"}


def test_resume_skips_finished_points(store, baseline):
    """Drop two finished records, then re-run: only those two points
    simulate, and the rendered sweep is byte-identical."""
    full, _ = _sweep(jobs=1)
    for spec in (SPECS[1], SPECS[-1]):
        store.path(job_key(spec)).unlink()

    text, tel = _sweep(jobs=1)
    assert text == full == baseline
    assert (tel["store_hits"], tel["store_misses"]) == (len(SPECS) - 2, 2)


def test_rerun_distrusts_corrupt_records(store, baseline):
    """A finished point's record damaged between the two runs (a tampered
    metric under the old seal, a torn write) is quarantined and re-run, not
    believed."""
    _sweep(jobs=1)
    tampered, torn = (store.path(job_key(spec)) for spec in SPECS[:2])
    record = json.loads(tampered.read_text())
    record["metrics"]["instructions"] = -1
    tampered.write_text(json.dumps(record))
    torn.write_text(torn.read_text()[:40])

    text, tel = _sweep(jobs=1)
    assert text == baseline
    assert (tel["store_hits"], tel["store_misses"]) == (len(SPECS) - 2, 2)
    for path in (tampered, torn):
        assert path.with_suffix(".corrupt").exists()


def test_rerun_with_the_store_disabled(monkeypatch, baseline):
    """The honest limit: with ``REPRO_CACHE_DIR=""`` nothing is persisted, so
    a re-run resumes nothing — and still renders the baseline bytes."""
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    for _ in range(2):
        text, tel = _sweep(jobs=1)
        assert text == baseline
        assert (tel["store_hits"], tel["store_misses"]) == (0, len(SPECS))
