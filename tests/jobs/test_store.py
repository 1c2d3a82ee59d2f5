"""Result-store mechanics: sealing, corruption, quarantine, gc, and
concurrent writers."""

import hashlib
import json
import multiprocessing
import os

import pytest

import repro.lang.compiler as compiler
from repro.cache import Section
from repro.jobs import RESULT_FORMAT, ResultStore
from repro.jobs.store import TELEMETRY

KEY = "k" * 64


@pytest.fixture(autouse=True)
def _reset_telemetry():
    TELEMETRY.update(dict.fromkeys(TELEMETRY, 0))


def record(**extra) -> dict:
    base = {"spec": {"toolchain": "t1"}, "metrics": {"x": 1}, "stats": {"a": 2}}
    base.update(extra)
    return base


def edit(store, key, **changes) -> None:
    """Change fields of *key*'s record in place, under its old seal."""
    path = store.path(key)
    head, _, payload = path.read_bytes().partition(b"\n")
    doc = {**json.loads(payload), **changes}
    path.write_bytes(head + b"\n" + json.dumps(doc).encode())


def reseal(store, key, doc) -> None:
    """Publish *doc* verbatim under a valid seal (no format/key stamping)."""
    Section.put(store, key, doc)


class TestSealing:
    def test_put_then_load_roundtrips(self, store):
        store.put(KEY, record())
        loaded = store.load(KEY)
        assert loaded is not None
        assert loaded["metrics"] == {"x": 1}
        assert loaded["format"] == RESULT_FORMAT
        assert loaded["job_key"] == KEY
        head, _, payload = store.path(KEY).read_bytes().partition(b"\n")
        seal, toolchain = head.decode().split()
        assert seal == hashlib.sha256(payload).hexdigest()
        assert toolchain == compiler.toolchain_fingerprint()
        assert json.loads(payload) == loaded

    def test_put_returns_the_record_load_hands_back(self, store):
        published = store.put(KEY, record(pair=(1, 2)))  # tuple -> list
        assert published == store.load(KEY)
        assert published["pair"] == [1, 2]

    def test_absent_key_is_a_miss(self, store):
        assert store.load("0" * 64) is None

    def test_corrupt_json_is_a_miss_not_an_error(self, store):
        store.put(KEY, record())
        path = store.path(KEY)
        path.write_text("{ not json")
        assert store.load(KEY) is None
        # Valid seal over bytes that are not a record: damage all the same.
        payload = b"{ not json"
        path.write_bytes(f"{hashlib.sha256(payload).hexdigest()} x\n".encode() + payload)
        assert store.load(KEY) is None
        assert TELEMETRY["corrupt"] == 2

    def test_tampered_field_fails_the_seal(self, store):
        store.put(KEY, record())
        edit(store, KEY, metrics={"x": 999})
        assert store.load(KEY) is None

    def test_wrong_embedded_key_is_a_miss(self, store):
        store.put(KEY, record())
        path = store.path(KEY)
        other = store.path("1" * 64)
        other.write_bytes(path.read_bytes())  # valid seal, wrong filename
        assert store.load("1" * 64) is None

    def test_format_mismatch_is_a_miss(self, store):
        reseal(store, KEY, {**record(), "format": RESULT_FORMAT + 1, "job_key": KEY})
        assert store.load(KEY) is None  # self-consistent but another layout


class TestManagement:
    def test_keys_and_entries(self, store):
        store.put(KEY, record())
        store.put("a" * 64, record())
        assert store.keys() == sorted([KEY, "a" * 64])
        assert all(rec is not None for _, rec in store.entries())

    def test_gc_drops_invalid_and_stale_toolchain(self, store, monkeypatch):
        store.put(KEY, record())
        with monkeypatch.context() as m:
            m.setattr(compiler, "_fingerprint", "0" * 64)
            store.put("a" * 64, record())  # sealed under another toolchain
        store.path("b" * 64).write_text("junk")
        reseal(store, "c" * 64, {**record(), "format": 1, "job_key": "c" * 64})
        dropped = store.gc()
        assert sorted(dropped) == ["a" * 64, "b" * 64, "c" * 64]
        assert store.keys() == [KEY]
        assert store.load(KEY) is not None

    def test_gc_dry_run_deletes_nothing(self, store):
        store.root.mkdir(parents=True, exist_ok=True)
        store.path("b" * 64).write_text("junk")
        assert store.gc(dry_run=True) == ["b" * 64]
        assert store.path("b" * 64).exists()

    def test_clear(self, store):
        store.put(KEY, record())
        store.put("a" * 64, record())
        store.path("a" * 64).write_text("junk")
        assert store.load("a" * 64) is None  # quarantined to <key>.corrupt
        assert store.clear() == (1, 1)
        assert store.keys() == []
        assert store.verify()["quarantined"] == []

    def test_default_is_none_when_caching_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert ResultStore.default() is None


class TestQuarantine:
    """Damaged entries are misses *and* get moved aside as evidence."""

    def test_corrupt_entry_is_quarantined_on_load(self, store):
        store.put(KEY, record())
        path = store.path(KEY)
        path.write_text("{ torn bytes")
        assert store.load(KEY) is None
        assert not path.exists()  # the broken file no longer shadows the key
        quarantined = path.with_suffix(".corrupt")
        assert quarantined.read_text() == "{ torn bytes"
        # The next lookup is a clean miss, not a second quarantine.
        assert store.load(KEY) is None
        assert TELEMETRY["corrupt"] == 1
        assert TELEMETRY["misses"] == 2

    def test_failed_seal_quarantines(self, store):
        store.put(KEY, record())
        edit(store, KEY, metrics={"x": 999})
        assert store.load(KEY) is None
        assert store.path(KEY).with_suffix(".corrupt").exists()
        assert TELEMETRY["corrupt"] == 1

    def test_stale_format_is_miss_but_not_quarantined(self, store):
        reseal(store, KEY, {**record(), "format": RESULT_FORMAT + 1, "job_key": KEY})
        assert store.load(KEY) is None
        assert store.path(KEY).exists()  # stale ≠ damaged: left in place for gc
        assert TELEMETRY["stale"] == 1
        assert TELEMETRY["corrupt"] == 0

    def test_requarantine_overwrites_older_evidence(self, store):
        store.put(KEY, record())
        path = store.path(KEY)
        path.with_suffix(".corrupt").write_text("older evidence")
        path.write_text("fresh damage")
        assert store.load(KEY) is None
        assert path.with_suffix(".corrupt").read_text() == "fresh damage"

    def test_telemetry_counts_hits_and_misses(self, store):
        store.put(KEY, record())
        assert store.load(KEY) is not None
        assert store.load("0" * 64) is None
        assert TELEMETRY["hits"] == 1
        assert TELEMETRY["misses"] == 1

    def test_verify_scans_and_quarantines(self, store):
        store.put(KEY, record())                     # ok
        store.put("a" * 64, record())
        bad = store.path("a" * 64)
        bad.write_text("junk")                       # corrupt
        reseal(store, "b" * 64, {**record(), "format": RESULT_FORMAT + 1,
                                 "job_key": "b" * 64})  # stale
        report = store.verify()
        assert report["checked"] == 3
        assert report["ok"] == [KEY]
        assert report["corrupt"] == ["a" * 64]
        assert report["stale"] == ["b" * 64]
        assert report["quarantined"] == ["a" * 64 + ".corrupt"]
        assert bad.with_suffix(".corrupt").exists()
        assert store.load(KEY) is not None           # good entry untouched

    def test_verify_on_empty_store(self, store):
        report = store.verify()
        assert report["checked"] == 0
        assert report["corrupt"] == []

    def test_entries_is_non_mutating(self, store):
        """`cache ls` walks entries(); a scan must never move files."""
        store.put(KEY, record())
        path = store.path(KEY)
        path.write_text("junk")
        listed = dict(store.entries())
        assert listed[KEY] is None
        assert path.exists()
        assert not path.with_suffix(".corrupt").exists()


# ------------------------------------------------------- concurrent writers
def _worker_execute(cache_dir: str, queue) -> None:
    """Run the same job as the sibling process, racing on one store key."""
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    from repro.jobs import JobSpec, ResultStore, execute

    outcome = execute(
        JobSpec.build("fft", "tiny", scheme="s9", seed=3, host_cores=2),
        store=ResultStore.default(),
    )
    queue.put((outcome.key, outcome.record["stats_dump"]))


class TestConcurrency:
    def test_two_processes_same_key_one_valid_record(self, cache_root, store):
        """Satellite: two processes computing the same job key concurrently
        both succeed, the store ends with one valid record, and both saw
        byte-identical stats dumps (the runs are deterministic, so the
        last-writer-wins race is benign)."""
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_worker_execute, args=(str(cache_root), queue))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        results = [queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        (key_a, dump_a), (key_b, dump_b) = results
        assert key_a == key_b
        assert dump_a == dump_b  # deterministic engine: identical bytes
        assert store.keys() == [key_a]  # exactly one record survived
        stored = store.load(key_a)
        assert stored is not None  # ... and it seals valid
        assert stored["stats_dump"] == dump_a
