"""Compile-cache tests: the on-disk layer (cold/warm hits, corruption,
invalidation) and the per-process memo in front of it."""

import pytest

import repro.lang.compiler as compiler
import repro.lang.memo as memo
from repro.lang import compile_source as memoised_compile
from repro.lang.compiler import cache_dir, compile_source

SRC = """
int main() {
    int acc = 0;
    for (int i = 0; i < 10; i = i + 1) acc = acc + i;
    print_int(acc);
    return 0;
}
"""


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def _entries(cache):
    return sorted(cache.glob("*.pkl")) if cache.exists() else []


def test_cold_compile_populates_cache(cache):
    compiled = compile_source(SRC, name="t")
    assert compiled.program.size_insns > 0
    assert len(_entries(cache)) == 1


def test_warm_hit_skips_the_pipeline(cache, monkeypatch):
    cold = compile_source(SRC, name="t")

    def boom(*a, **k):
        raise AssertionError("pipeline ran on a warm cache hit")

    monkeypatch.setattr(compiler, "parse", boom)
    warm = compile_source(SRC, name="t")
    assert warm.asm == cold.asm
    assert warm.program.encoded_text() == cold.program.encoded_text()


def test_corrupt_entry_recompiles(cache):
    compile_source(SRC, name="t")
    (entry,) = _entries(cache)
    entry.write_bytes(b"not a pickle")
    compiled = compile_source(SRC, name="t")
    assert compiled.program.size_insns > 0


def test_cache_false_bypasses(cache):
    compile_source(SRC, name="t", cache=False)
    assert _entries(cache) == []


def test_empty_env_disables_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert cache_dir() is None
    compiled = compile_source(SRC, name="t")
    assert compiled.program.size_insns > 0


def test_default_cache_dir(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert str(cache_dir()) == ".repro_cache"


def test_fingerprint_change_invalidates(cache, monkeypatch):
    compile_source(SRC, name="t")
    monkeypatch.setattr(compiler, "_fingerprint", "0" * 64)
    compile_source(SRC, name="t")
    # A different toolchain fingerprint keys a different entry.
    assert len(_entries(cache)) == 2


def test_distinct_sources_distinct_entries(cache):
    compile_source(SRC, name="t")
    compile_source(SRC.replace("10", "11"), name="t")
    assert len(_entries(cache)) == 2


# --------------------------------------------------- the per-process memo
# ``repro.lang.compile_source`` (repro/lang/memo.py) answers a repeated
# request for the same on-disk entry with the identical object.
SYNC_SRC = """
int lk; int bar; int counter;
void worker(int tid) {
    for (int i = 0; i < 6; i = i + 1) {
        lock(&lk);
        counter = counter + 1;
        unlock(&lk);
    }
    barrier(&bar);
}
int main() {
    int tids[4];
    init_lock(&lk);
    init_barrier(&bar, 4);
    for (int t = 1; t < 4; t = t + 1) tids[t] = spawn(worker, t);
    worker(0);
    for (int t = 1; t < 4; t = t + 1) join(tids[t]);
    print_int(counter);
    return 0;
}
"""


@pytest.fixture
def disk_reads(cache, monkeypatch):
    """An empty memo over an empty cache dir; counts on-disk entry loads."""
    monkeypatch.setattr(memo, "_memo", {})
    reads = []
    load = compiler._cache_load
    monkeypatch.setattr(
        compiler, "_cache_load", lambda path: reads.append(path) or load(path)
    )
    return reads


def test_memo_returns_the_identical_object_with_one_disk_read(disk_reads):
    first = memoised_compile(SRC, name="t")
    assert memoised_compile(SRC, name="t") is first
    assert len(disk_reads) == 1  # the cold lookup that missed; none since
    # A new process (an empty memo) reads the entry the first one wrote.
    memo._memo.clear()
    reloaded = memoised_compile(SRC, name="t")
    assert reloaded is not first and reloaded.asm == first.asm
    assert memoised_compile(SRC, name="t") is reloaded
    assert len(disk_reads) == 2


def test_memo_is_bypassed_wherever_the_disk_cache_is(disk_reads, tmp_path, monkeypatch):
    first = memoised_compile(SRC, name="t")
    # cache=False: a full compile every time, nothing remembered.
    assert memoised_compile(SRC, name="t", cache=False) is not first
    assert memoised_compile(SRC, name="t", cache=False).asm == first.asm
    # A different cache directory is a different entry.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    moved = memoised_compile(SRC, name="t")
    assert moved is not first
    assert len(_entries(tmp_path / "elsewhere")) == 1
    # A disabled cache disables the memo with it.
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert memoised_compile(SRC, name="t") is not memoised_compile(SRC, name="t")
    # ... as does a different name or toolchain (both are in the entry's key).
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert memoised_compile(SRC, name="u") is not moved
    monkeypatch.setattr(compiler, "_fingerprint", "0" * 64)
    assert memoised_compile(SRC, name="t") is not moved


def test_memo_miss_on_a_corrupt_entry_recompiles(disk_reads, cache):
    good = memoised_compile(SRC, name="t")
    (entry,) = _entries(cache)
    entry.write_bytes(b"not a pickle")
    memo._memo.clear()  # a new process meets the damaged file
    rebuilt = memoised_compile(SRC, name="t")
    assert rebuilt is not good
    assert rebuilt.program.encoded_text() == good.program.encoded_text()
    assert memoised_compile(SRC, name="t") is rebuilt


def test_memo_is_bounded(disk_reads):
    for i in range(memo._MEMO_MAX + 3):
        memoised_compile(SRC.replace("10", str(100 + i)), name="t")
    assert len(memo._memo) == memo._MEMO_MAX


@pytest.mark.parametrize("scheme", ["cc", "s2"])
def test_engines_sharing_a_memoised_program_match_fresh_programs(
    disk_reads, tmp_path, scheme
):
    """Back-to-back engines on one memoised Program — predecode tables and
    timing blocks built by the first, reused by the second — run exactly
    like engines on freshly loaded Programs, also across a restore."""
    from dataclasses import replace

    from repro.core import HostConfig, SequentialEngine, SimConfig, TargetConfig
    from repro.core.checkpoint import load_checkpoint
    from tests.conftest import assert_same_run

    def run(program, **sim):
        return SequentialEngine(
            program,
            target=TargetConfig(num_cores=4),
            host=HostConfig(num_cores=4),
            sim=replace(SimConfig(seed=11, scheme=scheme), **sim),
        ).run()

    def fresh():
        return compiler.compile_source(SYNC_SRC, name="sync").program

    shared = memoised_compile(SYNC_SRC, name="sync").program
    assert memoised_compile(SYNC_SRC, name="sync").program is shared
    first = run(shared)
    tables = shared._predecoded, shared._timing_blocks
    second = run(shared)
    assert (shared._predecoded, shared._timing_blocks) == tables  # reused
    assert_same_run(first, run(fresh()))
    assert_same_run(second, run(fresh()))
    # A different config on the same warm Program is still its own run.
    other = "s2" if scheme == "cc" else "cc"
    assert_same_run(
        run(shared, scheme=other), run(fresh(), scheme=other)
    )
    # Checkpoint from the warm Program, restore, finish; then run it again.
    cp = str(tmp_path / "ck.pkl")
    full = run(shared, checkpoint_interval=300, checkpoint_path=cp)
    assert_same_run(full, first)
    assert_same_run(load_checkpoint(cp).run(), first)
    assert_same_run(run(shared), first)
