"""``slacksim cache`` subcommand: ls / info / verify / gc / clear over both
sections of the cache root (results and programs), which follow one rule."""

import json

import repro.lang.compiler as compiler
from repro import cache
from repro.cli import main
from repro.jobs import JobSpec, ResultStore, execute


def _populate(store) -> str:
    outcome = execute(
        JobSpec.build("fft", "tiny", scheme="s9", seed=2, host_cores=2), store
    )
    return outcome.key


def test_ls_lists_records(store, capsys):
    key = _populate(store)
    assert main(["cache", "ls"]) == 0
    out = capsys.readouterr().out
    assert key[:16] in out
    assert "fft/tiny s9 h2 seed=2" in out
    lines = out.splitlines()
    assert lines[-2] == f"1 record(s) in {store.root}"
    assert lines[-1] == f"1 program(s) in {cache.programs().root}"


def test_verify_reports_and_quarantines_both_sections(store, capsys):
    key = _populate(store)
    (program,) = cache.programs().keys()
    store.path(key).write_text("torn")
    blob = cache.programs().path(program)
    blob.write_bytes(blob.read_bytes()[:-1] + b"!")  # an edited byte
    assert main(["cache", "verify"]) == 1
    out = capsys.readouterr().out
    assert f"{key[:16]}  CORRUPT -> quarantined" in out
    assert f"{program[:16]}  CORRUPT -> quarantined" in out
    assert "checked 1 record(s): 0 ok, 0 stale, 1 corrupt; 1 quarantined" in out
    assert "checked 1 program(s): 0 ok, 0 stale, 1 corrupt; 1 quarantined" in out
    assert blob.with_suffix(".corrupt").exists()
    assert store.path(key).with_suffix(".corrupt").read_text() == "torn"
    assert main(["cache", "verify"]) == 0  # nothing left to quarantine


def test_gc_drops_both_sections_of_another_toolchain(store, cache_root, monkeypatch, capsys):
    """Records and programs sealed under another toolchain fingerprint are
    unreachable — every key embeds the fingerprint — and so are the
    records and root-level pickles of the layout before sections."""
    with monkeypatch.context() as m:
        m.setattr(compiler, "_fingerprint", "0" * 64)
        m.setattr(cache, "_memo", {})
        old = _populate(store)
    kept = _populate(store)
    assert old != kept and len(cache.programs().keys()) == 2
    legacy_record = store.path("e" * 64)
    legacy_record.write_text(json.dumps({"format": 1, "record_sha256": "0" * 64}))
    legacy_program = cache_root / ("f" * 64 + ".pkl")
    legacy_program.write_bytes(b"a pickle of the flat layout")
    assert main(["cache", "gc", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "would drop 2 record(s)" in out and "would drop 2 program(s)" in out
    assert main(["cache", "gc"]) == 0
    out = capsys.readouterr().out
    assert "dropped 2 record(s)" in out and "dropped 2 program(s)" in out
    assert store.keys() == [kept]
    assert len(cache.programs().keys()) == 1
    assert not legacy_program.exists()


def test_info_prints_one_record_by_prefix(store, capsys):
    key = _populate(store)
    assert main(["cache", "info", key[:12]]) == 0
    out = capsys.readouterr().out
    assert f'"job_key": "{key}"' in out
    assert '"stats_dump"' not in out  # elided from the human view


def test_info_rejects_ambiguous_or_unknown_prefix(store, capsys):
    _populate(store)
    assert main(["cache", "info", "zzzz"]) == 1
    assert main(["cache", "info"]) == 2


def test_gc_drops_corrupt_records(store, capsys):
    key = _populate(store)
    store.path(key).write_text("garbage")
    assert main(["cache", "gc"]) == 0
    out = capsys.readouterr().out
    assert "dropped 1 record(s)" in out
    assert store.keys() == []


def test_gc_dry_run_keeps_files(store, capsys):
    key = _populate(store)
    store.path(key).write_text("garbage")
    assert main(["cache", "gc", "--dry-run"]) == 0
    assert "would drop 1" in capsys.readouterr().out
    assert store.path(key).exists()


def test_clear_removes_everything(store, capsys):
    _populate(store)
    store.path("a" * 64).write_text("torn")
    assert main(["cache", "verify"]) == 1  # quarantines the torn entry
    capsys.readouterr()
    assert main(["cache", "clear"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("removed 1 record(s) and 1 quarantined file(s)")
    assert lines[1].startswith("removed 1 program(s) and 0 quarantined file(s)")
    assert store.keys() == [] and cache.programs().keys() == []
    assert main(["cache", "verify"]) == 0
    assert "0 quarantined file(s) on disk" in capsys.readouterr().out


def test_cache_disabled_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert main(["cache", "ls"]) == 2
    assert ResultStore.default() is None


def test_run_twice_reports_store_hit(store, capsys):
    argv = ["run", "--workload", "fft", "--scheme", "s9", "--host-cores", "2",
            "--scale", "tiny", "--seed", "2"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "served from result store" not in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "served from result store" in warm
    # The summary and verification lines are byte-identical either way.
    assert cold.splitlines()[0] == warm.splitlines()[0]
    assert cold.splitlines()[-1] == warm.splitlines()[-1]


def test_verify_clean_store_exits_zero(store, capsys):
    _populate(store)
    assert main(["cache", "verify"]) == 0
    out = capsys.readouterr().out
    assert "checked 1 record(s): 1 ok, 0 stale, 0 corrupt" in out
    assert "checked 1 program(s): 1 ok, 0 stale, 0 corrupt" in out


def test_verify_quarantines_and_exits_nonzero(store, capsys):
    key = _populate(store)
    store.path(key).write_text("torn")
    assert main(["cache", "verify"]) == 1
    out = capsys.readouterr().out
    assert f"{key[:16]}  CORRUPT -> quarantined" in out
    assert not store.path(key).exists()
    assert store.path(key).with_suffix(".corrupt").read_text() == "torn"
    # A second pass finds a clean (empty) store.
    assert main(["cache", "verify"]) == 0
