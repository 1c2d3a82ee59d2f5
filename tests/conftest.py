"""Shared pytest configuration for the test tree."""

import json


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
