"""Shared fixtures for the benchmark harness.

Scale selection: ``REPRO_SCALE=tiny|small|paper`` (default ``tiny`` here so
``pytest benchmarks/ --benchmark-only`` completes in minutes; use ``small``
or ``paper`` for numbers closer to the publication's regime).

Every bench writes its rendered table(s) into ``reports/`` so the regenerated
artifacts are inspectable regardless of pytest's output capture.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro._util import atomic_write_text

REPORTS = pathlib.Path(__file__).resolve().parent.parent / "reports"


def bench_scale() -> str:
    return os.environ.get("REPRO_SCALE", "tiny")


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session")
def jobs() -> int:
    """Worker processes every bench hands ``run_sweep``: the reports are
    ``--jobs``-invariant, so this only buys wall time."""
    return min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    REPORTS.mkdir(exist_ok=True)
    return REPORTS


def write_report(report_dir: pathlib.Path, name: str, text: str) -> None:
    path = report_dir / name
    # Atomic publish: an interrupted bench run never leaves a torn report.
    atomic_write_text(path, text + "\n")
    print(f"\n[report written to {path}]\n{text}")
