"""Compile-cache tests: the ``programs`` section of the cache root
(cold/warm hits, corruption, invalidation), the anchored cache root, and
the per-process memo in front of the section."""

import os

import pytest

import repro.cache as cache
import repro.lang.compiler as compiler
from repro.cache import cache_root, compile_source
from repro.jobs.store import ResultStore
from tests.import_graph import PACKAGE, import_graph, module_files
from tests.lattice import LOCK_SRC

SRC = """
int main() {
    int acc = 0;
    for (int i = 0; i < 10; i = i + 1) acc = acc + i;
    print_int(acc);
    return 0;
}
"""


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An empty cache root and an empty memo: every compile meets the disk."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(cache, "_memo", {})
    return tmp_path / "cache"


def _entries(root):
    programs = root / "programs"
    return sorted(programs.glob("*.pkl")) if programs.exists() else []


def test_cold_compile_populates_cache(cache_dir):
    compiled = compile_source(SRC, name="t")
    assert compiled.program.size_insns > 0
    assert len(_entries(cache_dir)) == 1


def test_warm_hit_skips_the_pipeline(cache_dir, monkeypatch):
    cold = compile_source(SRC, name="t")
    cache._memo.clear()  # a new process

    def boom(*a, **k):
        raise AssertionError("pipeline ran on a warm cache hit")

    monkeypatch.setattr(compiler, "parse", boom)
    warm = compile_source(SRC, name="t")
    assert warm is not cold
    assert warm.asm == cold.asm
    assert warm.program.encoded_text() == cold.program.encoded_text()


def test_corrupt_entry_recompiles(cache_dir):
    """A torn blob is a miss: it moves to ``<key>.corrupt`` and the
    program is compiled and sealed again."""
    good = compile_source(SRC, name="t")
    (entry,) = _entries(cache_dir)
    torn = entry.read_bytes()[:200]
    entry.write_bytes(torn)
    cache._memo.clear()
    rebuilt = compile_source(SRC, name="t")
    assert rebuilt.program.encoded_text() == good.program.encoded_text()
    assert entry.with_suffix(".corrupt").read_bytes() == torn
    assert cache.programs().fetch(entry.stem)[0] == "ok"  # resealed


@pytest.mark.parametrize("damage", ["edited", "undecodable"])
def test_damaged_entry_is_quarantined_and_recompiled(cache_dir, damage):
    """One rule for every section: an edited byte fails the seal; a blob
    sealed valid over bytes that do not unpickle to a CompiledProgram is
    damage too.  Either way: quarantined, recompiled, never an error."""
    good = compile_source(SRC, name="t")
    (entry,) = _entries(cache_dir)
    key = entry.stem
    if damage == "edited":
        blob = bytearray(entry.read_bytes())
        blob[-10] ^= 0xFF
        entry.write_bytes(bytes(blob))
    else:
        cache.Programs(entry.parent).put(key, ["not", "a", "program"])
    cache._memo.clear()
    rebuilt = compile_source(SRC, name="t")
    assert rebuilt.asm == good.asm
    assert entry.with_suffix(".corrupt").exists()
    assert cache.programs().verify()["ok"] == [key]


def test_empty_env_disables_cache(tmp_path, monkeypatch):
    """``REPRO_CACHE_DIR=""`` disables the store, the compile cache and
    the memo: nothing is written and every call compiles afresh."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert cache_root() is None
    assert cache.programs() is None and ResultStore.default() is None
    compiled = compile_source(SRC, name="t")
    assert compiled.program.size_insns > 0
    assert compile_source(SRC, name="t") is not compiled
    assert list(tmp_path.iterdir()) == []


def test_cache_root_is_anchored_to_the_checkout(tmp_path, monkeypatch):
    """Without ``REPRO_CACHE_DIR`` the root is ``<checkout>/.repro_cache``
    wherever the command runs: a daemon started at the checkout root and a
    ``submit`` from ``src/`` meet in one ``serve/`` directory."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    checkout = cache._checkout(cache.Path(cache.__file__).resolve().parent)
    assert checkout is not None
    roots = []
    for cwd in (checkout, checkout / "src", tmp_path):
        monkeypatch.chdir(cwd)
        roots.append(cache_root())
    assert roots == [checkout / ".repro_cache"] * 3
    assert roots[0].is_absolute()


def test_cache_root_outside_a_checkout_is_the_user_cache(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setattr(cache, "_CHECKOUT", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert cache_root() == tmp_path / "xdg" / "repro"
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert cache_root() == cache.Path(os.path.expanduser("~/.cache/repro"))
    # An installed package sits in site-packages, not in <checkout>/src.
    (tmp_path / "pyproject.toml").write_text("")
    assert cache._checkout(tmp_path / "site-packages" / "repro") is None
    assert cache._checkout(tmp_path / "src" / "repro") == tmp_path


def test_env_overrides_the_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert cache_root() == tmp_path / "elsewhere"
    assert ResultStore.default().root == tmp_path / "elsewhere" / "results"
    assert cache.programs().root == tmp_path / "elsewhere" / "programs"


def test_fingerprint_change_invalidates(cache_dir, monkeypatch):
    compile_source(SRC, name="t")
    monkeypatch.setattr(compiler, "_fingerprint", "0" * 64)
    compile_source(SRC, name="t")
    # A different toolchain fingerprint keys a different entry.
    assert len(_entries(cache_dir)) == 2


def test_every_file_a_compile_imports_keys_the_entry():
    """The module-level import closure of the compiler (package
    ``__init__``s aside) is hashed into every ``programs`` key: an edit to
    any file a compile runs re-keys the programs it compiled."""
    modules, graph = module_files(), import_graph()
    reached, todo = set(), ["repro.lang.compiler"]
    while todo:
        name = todo.pop()
        if name not in reached and modules[name].name != "__init__.py":
            reached.add(name)
            todo += graph[name]
    files = {str(modules[name].relative_to(PACKAGE)) for name in reached}
    assert {"lang/lexer.py", "sysapi/syscalls.py"} <= files
    assert files <= set(compiler._TOOLCHAIN_MODULES) | set(cache._COMPILE_INPUTS)


def test_distinct_sources_distinct_entries(cache_dir):
    compile_source(SRC, name="t")
    compile_source(SRC.replace("10", "11"), name="t")
    assert len(_entries(cache_dir)) == 2


@pytest.fixture
def disk_reads(cache_dir, monkeypatch):
    """An empty memo over an empty cache dir; counts ``programs`` loads."""
    reads = []
    fetch = cache.Programs.fetch
    monkeypatch.setattr(
        cache.Programs, "fetch", lambda self, key: reads.append(key) or fetch(self, key)
    )
    return reads


def test_memo_returns_the_identical_object_with_one_disk_read(disk_reads):
    first = compile_source(SRC, name="t")
    assert compile_source(SRC, name="t") is first
    assert len(disk_reads) == 1  # the cold lookup that missed; none since
    # A new process (an empty memo) reads the entry the first one wrote.
    cache._memo.clear()
    reloaded = compile_source(SRC, name="t")
    assert reloaded is not first and reloaded.asm == first.asm
    assert compile_source(SRC, name="t") is reloaded
    assert len(disk_reads) == 2


def test_memo_is_bypassed_wherever_the_disk_cache_is(disk_reads, tmp_path, monkeypatch):
    first = compile_source(SRC, name="t")
    # A different cache directory is a different entry.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    moved = compile_source(SRC, name="t")
    assert moved is not first
    assert len(_entries(tmp_path / "elsewhere")) == 1
    # A disabled cache disables the memo with it.
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert compile_source(SRC, name="t") is not compile_source(SRC, name="t")
    # ... as does a different name or toolchain (both are in the entry's key).
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert compile_source(SRC, name="u") is not moved
    monkeypatch.setattr(compiler, "_fingerprint", "0" * 64)
    assert compile_source(SRC, name="t") is not moved


def test_memo_miss_on_a_corrupt_entry_recompiles(disk_reads, cache_dir):
    good = compile_source(SRC, name="t")
    (entry,) = _entries(cache_dir)
    entry.write_bytes(b"not a pickle")
    cache._memo.clear()  # a new process meets the damaged file
    rebuilt = compile_source(SRC, name="t")
    assert rebuilt is not good
    assert rebuilt.program.encoded_text() == good.program.encoded_text()
    assert compile_source(SRC, name="t") is rebuilt


def test_memo_is_bounded(disk_reads):
    for i in range(cache._MEMO_MAX + 3):
        compile_source(SRC.replace("10", str(100 + i)), name="t")
    assert len(cache._memo) == cache._MEMO_MAX


@pytest.mark.parametrize("scheme", ["cc", "s2"])
def test_engines_sharing_a_memoised_program_match_fresh_programs(
    disk_reads, tmp_path, scheme
):
    """Back-to-back engines on one memoised Program — predecode tables
    built by the first, reused by the second — run exactly like engines on
    freshly loaded Programs, also across a restore."""

    from repro.core.checkpoint import load_checkpoint
    from tests.lattice import assert_same_run, build

    def run(program, **sim):
        return build(program, sim.pop("scheme", scheme), 4, cores=4, seed=11, **sim).run()

    def fresh():
        return compiler.compile_source(LOCK_SRC, name="sync").program

    shared = compile_source(LOCK_SRC, name="sync").program
    assert compile_source(LOCK_SRC, name="sync").program is shared
    first = run(shared)
    tables = shared._predecoded
    second = run(shared)
    assert shared._predecoded is tables  # reused
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
