"""Shared pytest configuration for the test tree."""

import json

import pytest

from repro.cache import cache_root


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="Rewrite the golden files (tests/**/goldens/) from this run "
        "instead of comparing against them.",
    )


def load_or_update(request, path, key, fresh):
    """The golden at *key* of the JSON file *path*, which is *fresh* after
    ``--update-goldens`` writes it there (the file keeps its other keys)."""
    goldens = json.loads(path.read_text()) if path.exists() else {}
    if request.config.getoption("--update-goldens"):
        goldens[key] = fresh
        path.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    assert key in goldens, f"no golden {key!r} in {path}: generate it with --update-goldens"
    return goldens[key]


@pytest.fixture(autouse=True, scope="session")
def session_cache_root(tmp_path_factory):
    """Tier-1 is hermetic: the session runs under a fresh cache root, so no
    record an earlier run left behind answers a test, and no test leaves one
    behind.  Its ``programs`` section is the configured root's, shared: a
    compiled program is keyed by its source and the toolchain, so a shared
    one is never stale.  A disabled cache (``REPRO_CACHE_DIR=""``) stays
    disabled; tests that need a root of their own still set one."""
    shared = cache_root()
    if shared is None:
        yield None
        return
    programs = (shared / "programs").resolve()  # a relative root is the cwd's
    programs.mkdir(parents=True, exist_ok=True)
    root = tmp_path_factory.mktemp("cache")
    (root / "programs").symlink_to(programs, target_is_directory=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(root))
        yield root
