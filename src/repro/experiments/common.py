"""Shared experiment vocabulary: the evaluation's scheme/host grids, the
default scale, and the two derived quantities every experiment reports.

An experiment is a grid of :class:`repro.jobs.JobSpec`, one call to
:func:`repro.experiments.parallel.resolve` that turns it into point
documents (the result store is the only memo: a sealed record is a lookup,
anything else simulates once), a render over :func:`speedup` /
:func:`error` of those documents, and the paper's claims on them
(:func:`claim_table`).
"""

from __future__ import annotations

import os
from collections.abc import Callable

from repro.workloads.registry import BENCHMARKS

__all__ = [
    "SCHEMES",
    "HOST_COUNTS",
    "BENCHMARKS",
    "claim_table",
    "default_scale",
    "error",
    "speedup",
]

#: The paper's scheme set (Figure 8 legend order).
SCHEMES = ("cc", "q10", "l10", "s9", "s9*", "s100", "su")

#: Figure 8's X axis.
HOST_COUNTS = (2, 4, 8)


def default_scale() -> str:
    """Workload scale for experiments; override with REPRO_SCALE=tiny|small|paper."""
    return os.environ.get("REPRO_SCALE", "small")


def speedup(base: dict, doc: dict) -> float:
    """Simulation speedup of point *doc* over *base* (Figure 8): the ratio of
    their modeled simulation times."""
    return base["host_time"] / doc["host_time"]


def error(gold: dict, doc: dict) -> float:
    """Relative execution-time error of point *doc* against the cc run *gold*
    (Table 3)."""
    return abs(doc["execution_cycles"] - gold["execution_cycles"]) / gold["execution_cycles"]


def claim_table(experiment: str, claims: dict[str, tuple[Callable, Callable]]) -> dict:
    """One experiment's claims as ``{"<experiment>.<name>": (numbers, test)}``:
    *numbers* maps the experiment's document to the values a claim compares
    (a dict), *test* says whether those values bear the claim out."""
    return {f"{experiment}.{name}": claim for name, claim in claims.items()}
