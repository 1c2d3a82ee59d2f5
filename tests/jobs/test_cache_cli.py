"""``slacksim cache`` subcommand: ls / info / gc / clear over the store."""

from repro.cli import main
from repro.lang.compiler import toolchain_fingerprint
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
    assert "1 record(s)" in out
    assert out.splitlines()[-1].startswith("1 compiled program(s) in ")


def test_functional_record_of_an_older_bench_is_listed_verified_and_gcd(store, capsys):
    """``repro bench`` used to seal a functional record (no ``sim``/``host``
    in its spec) under a key no job derives any more: ``ls`` and ``verify``
    take it in their stride, ``gc`` drops it, a current record stays."""
    kept = _populate(store)
    old = "bd3e143b" + "0" * 56
    store.put(old, {
        "spec": {
            "format": 1, "mode": "functional", "program_digest": "c7" * 32,
            "toolchain": toolchain_fingerprint(),  # current: only the mode is stale
            "workload": {"name": "fft", "scale": "tiny", "args": {"nthreads": 1}},
        },
        "completed": True,
        "metrics": {"exit_code": 0, "instructions": 8653, "output_len": 4},
        "output_sha256": "31" * 32,
        "stats": {}, "stats_digest": "",
        "provenance": {"engine": "functional", "dispatch": "predecoded"},
    })
    assert main(["cache", "ls"]) == 0
    out = capsys.readouterr().out
    assert f"{old[:16]}  fft/tiny  [functional: unreachable" in out
    assert "2 record(s)" in out
    assert main(["cache", "verify"]) == 0
    assert "2 ok, 0 stale, 0 corrupt" in capsys.readouterr().out
    assert main(["cache", "gc", "--dry-run"]) == 0
    assert f"would drop {old[:16]}" in capsys.readouterr().out
    assert main(["cache", "gc"]) == 0
    assert "dropped 1 record(s)" in capsys.readouterr().out
    assert store.keys() == [kept]


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


def test_clear_removes_everything(store, cache_root, capsys):
    _populate(store)
    store.path("a" * 64).write_text("torn")
    orphan = cache_root / ("0" * 64 + ".pkl")  # what a toolchain edit leaves
    orphan.write_bytes(b"compiled under another fingerprint")
    assert main(["cache", "verify"]) == 1  # quarantines the torn entry
    capsys.readouterr()
    assert main(["cache", "clear"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("removed 1 record(s) and 1 quarantined file(s)")
    assert lines[1].startswith("removed 2 compiled program(s)")
    assert store.keys() == []
    assert list(cache_root.glob("*.pkl")) == []
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
    assert "1 ok, 0 stale, 0 corrupt" in out


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
