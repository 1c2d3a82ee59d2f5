"""Process-parallel experiment sweeps with deterministic merging.

An experiment is an entry of the grid table (``_EXPERIMENTS``: its points,
its seed rule, its derived metrics), the document :func:`run_sweep` makes of
it, and a ``render_*(document)`` in the module named after the table or
figure.  Every grid is embarrassingly parallel: each (workload, scheme,
host-core-count) point is an independent simulation.  This module shards
those points over a :class:`ProcessPoolExecutor` and merges the per-point
results into one JSON document that is **byte-identical whatever the job
count** (``--jobs 1`` serial in-process vs ``--jobs N``):

* the point list is built up front by the same code on both paths, its seeds
  fixed by the grid table — *derived* (SHA-256) from the base seed and the
  point's coordinates, or the plain base seed — never by worker identity or
  scheduling order;
* each simulation is deterministic given (spec, seed), so a point's metric
  dict is the same in any process;
* merging orders points by their config key and the document is rendered
  with ``sort_keys=True``, so encounter order cannot leak into the bytes.

Every point is a :class:`repro.jobs.JobSpec` and :func:`resolve` is the one
way an experiment turns a list of them into documents: each goes through the
content-addressed job layer (``jobs.execute``, DESIGN.md §12), so a point
whose record already sits in ``.repro_cache/results/`` is a store lookup, not
a simulation — a repeated sweep is served entirely from the store and still
renders byte-identical JSON.  Workers also share the on-disk compile cache,
so N workers compiling the same benchmark pay one compile between them.

**Re-running a killed sweep** (DESIGN.md §8): each point's worker seals its
record into the result store *before* it returns, so the store is the only
record of a finished point.  Re-run the same command and every point that
finished is a store hit; only the in-flight points simulate again, and the
document renders **byte-identically** to an uninterrupted sweep.  Crashed
workers (a died process takes the whole ``ProcessPoolExecutor`` down) are
retried with a fresh pool and exponential backoff, bounded by
``max_retries`` per point; genuine point errors (a failed simulation)
propagate immediately, they are never retried.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from typing import NamedTuple

from repro._util import Backoff, sha256_hex
from repro.experiments.ablations import ADAPTIVE_QUANTA
from repro.experiments.common import (
    BENCHMARKS, HOST_COUNTS, SCHEMES, default_scale, error, speedup,
)
from repro.experiments.table3 import CONSERVATIVE_SCHEMES, ERROR_SCHEMES
from repro.jobs.spec import JobSpec

__all__ = [
    "SWEEP_EXPERIMENTS",
    "SweepError",
    "build_points",
    "derive_seed",
    "point_document",
    "point_key",
    "resolve",
    "run_sweep",
    "sweep_to_json",
]


class SweepError(RuntimeError):
    """A sweep could not finish (worker crashes exceeded the retry budget)."""


def derive_seed(base_seed: int, workload: str, scheme: str, host_cores: int) -> int:
    """Per-point seed, stable across runs and independent of worker identity."""
    digest = sha256_hex(f"{base_seed}:{workload}:{scheme}:{host_cores}")
    return 1 + int.from_bytes(bytes.fromhex(digest[:8]), "little") % (2**31 - 1)


def point_key(spec: JobSpec) -> str:
    """The merge/order key: one stable string per grid coordinate."""
    key = f"{spec.workload}/{spec.scheme}/h{spec.host_cores}"
    if spec.fastforward:
        key += "/ff"
    if spec.core_model != "inorder":
        key += f"/{spec.core_model}"
    return key


def point_document(spec: JobSpec, record: dict) -> dict:
    """A sweep point's JSON document, reduced from a job-store record.

    Pure function of (spec, record) with only deterministic record fields
    — provenance (wall times) never leaks in, which is what keeps a
    store-served sweep byte-identical to a cold one.
    """
    metrics = record["metrics"]
    return {
        "spec": {
            "workload": spec.workload,
            "scheme": spec.scheme,
            "host_cores": spec.host_cores,
            "scale": spec.scale,
            "seed": spec.seed,
            "fastforward": spec.fastforward,
            "core_model": spec.core_model,
        },
        "completed": record["completed"],
        "execution_cycles": metrics["execution_cycles"],
        "global_time": metrics["global_time"],
        "instructions": metrics["instructions"],
        "host_time": metrics["host_time"],
        "kips": metrics["kips"],
        "violations": metrics["violations"],
        "workload_violations": metrics["workload_violations"],
        "output_sha256": record["output_sha256"],
        "stats": record["stats"],
        "stats_digest": record["stats_digest"],
    }


def _resolve_point(spec: JobSpec) -> tuple[dict, bool]:
    """(document, store_hit) of one point: a store hit, else a direct run
    sealed into the store before this returns.

    Module-level (picklable) so ProcessPoolExecutor can ship it to workers;
    also the serial path, so jobs=1 and jobs=N run the identical code.
    """
    _maybe_crash(spec)
    # Looked up per call: bench/tracer.py wraps ``repro.jobs.execute`` from outside.
    from repro.jobs import ResultStore, execute

    outcome = execute(spec, store=ResultStore.default())
    return point_document(spec, outcome.record), outcome.hit


def _maybe_crash(spec: JobSpec) -> None:
    """Worker-crash fault injection (the sweep-level sibling of
    :mod:`repro.faults`): if ``REPRO_SWEEP_CRASH_POINT`` names this point's
    key and the ``REPRO_SWEEP_CRASH_ONCE`` marker file does not exist yet,
    create the marker and die without cleanup — exactly what a segfaulting
    or OOM-killed worker looks like to the parent pool.  Used by the
    kill-and-rerun tests and the CI resilience job; inert in normal runs.
    """
    target = os.environ.get("REPRO_SWEEP_CRASH_POINT")
    if not target or target != point_key(spec):
        return
    marker = os.environ.get("REPRO_SWEEP_CRASH_ONCE")
    if marker:
        if os.path.exists(marker):
            return  # already crashed once; behave this time
        open(marker, "w").close()
    os._exit(13)


# ----------------------------------------------------------------- grids
# A grid is the list of its points' coordinates (JobSpec keywords); scale
# and seed are build_points' to fill in.
def _figure8_grid(
    *,
    benchmarks: tuple[str, ...] = BENCHMARKS,
    schemes: tuple[str, ...] = SCHEMES,
    host_counts: tuple[int, ...] = HOST_COUNTS,
) -> list[dict]:
    return [
        dict(workload=bench, scheme=scheme, host_cores=hosts)
        for bench in benchmarks
        for scheme, hosts in [("cc", 1)] + [(s, h) for s in schemes for h in host_counts]
    ]


def _table2_grid(*, benchmarks: tuple[str, ...] = BENCHMARKS) -> list[dict]:
    return [dict(workload=bench, scheme="cc", host_cores=1) for bench in benchmarks]


def _table3_grid(
    *,
    benchmarks: tuple[str, ...] = BENCHMARKS,
    schemes: tuple[str, ...] = ("cc",) + ERROR_SCHEMES + CONSERVATIVE_SCHEMES,
    host_cores: int = 8,
) -> list[dict]:
    return [
        dict(workload=bench, scheme=scheme, host_cores=host_cores)
        for bench in benchmarks
        for scheme in schemes
    ]


def _against_cc(workload: str, schemes: list[str], host_cores: int) -> list[dict]:
    """*schemes* at *host_cores* behind their two cc references: the speedup
    base on one host core and the error gold on *host_cores*."""
    return [
        dict(workload=workload, scheme=scheme, host_cores=hosts)
        for scheme, hosts in [("cc", 1), ("cc", host_cores)]
        + [(scheme, host_cores) for scheme in schemes]
    ]


def _slack_sweep_grid(
    *, workload: str = "fft", slacks: tuple[int, ...] = (1, 4, 9, 25, 100, 400), host_cores: int = 8
) -> list[dict]:
    return _against_cc(workload, [f"s{n}" for n in slacks] + ["su"], host_cores)


def _critical_latency_grid(
    *, workload: str = "fft", slacks: tuple[int, ...] = (2, 5, 9, 15, 30, 60), host_cores: int = 8
) -> list[dict]:
    """Oldest-first bounded slack on both sides of the critical latency (10)."""
    return _against_cc(workload, [f"s{n}*" for n in slacks], host_cores)


def _adaptive_quantum_grid(
    *, workload: str = "fft", configs: tuple[str, ...] = ADAPTIVE_QUANTA, host_cores: int = 8
) -> list[dict]:
    return _against_cc(workload, list(configs), host_cores)


def _fastforward_grid(
    *, workload: str = "water", scheme: str = "s100", host_cores: int = 8
) -> list[dict]:
    return [
        dict(workload=workload, scheme=name, host_cores=host_cores, fastforward=fastforward)
        for name, fastforward in (("cc", False), (scheme, False), (scheme, True))
    ]


def _coremodel_grid(
    *,
    benchmarks: tuple[str, ...] = BENCHMARKS,
    schemes: tuple[str, ...] = ("cc", "q10", "s9", "su"),
    host_cores: int = 8,
) -> list[dict]:
    return [
        dict(workload=bench, scheme=scheme, host_cores=host_cores, core_model=model)
        for bench in benchmarks
        for model in ("inorder", "ooo")
        for scheme in schemes
    ]


class _Experiment(NamedTuple):
    grid: Callable[..., list[dict]]
    #: Per-point :func:`derive_seed` seeds, else every point runs under the
    #: plain base seed (what the committed T2 / A2-A5 reports are pinned to).
    derived_seeds: bool
    #: The cross-point metrics :func:`_derive_metrics` reports.
    speedup: bool
    error: bool


#: Every experiment there is (DESIGN.md §4): its grid, its seed rule and
#: which derived metrics its document carries.
_EXPERIMENTS = {
    "figure8": _Experiment(_figure8_grid, True, speedup=True, error=False),
    "table2": _Experiment(_table2_grid, False, speedup=False, error=False),
    "table3": _Experiment(_table3_grid, True, speedup=False, error=True),
    "ablations": _Experiment(_slack_sweep_grid, True, speedup=True, error=True),
    "critical_latency": _Experiment(_critical_latency_grid, False, speedup=True, error=True),
    "fastforward": _Experiment(_fastforward_grid, False, speedup=False, error=True),
    "coremodel": _Experiment(_coremodel_grid, False, speedup=False, error=False),
    "adaptive_quantum": _Experiment(_adaptive_quantum_grid, False, speedup=True, error=True),
}

SWEEP_EXPERIMENTS = tuple(_EXPERIMENTS)


def build_points(experiment: str, scale: str, base_seed: int, **kwargs) -> list[JobSpec]:
    """The full point list for *experiment* (identical on every path).

    The single grid authority.  ``kwargs`` subset or move the grid (e.g.
    ``host_counts=(2, 8)`` for a cheaper Figure 8, ``workload=``/``slacks=``
    for the slack sweeps).
    """
    if experiment not in _EXPERIMENTS:
        raise ValueError(
            f"unknown sweep experiment {experiment!r} (expected one of {SWEEP_EXPERIMENTS})"
        )
    entry = _EXPERIMENTS[experiment]
    return [
        JobSpec(
            scale=scale,
            seed=derive_seed(base_seed, at["workload"], at["scheme"], at["host_cores"])
            if entry.derived_seeds
            else base_seed,
            **at,
        )
        for at in entry.grid(**kwargs)
    ]


# ----------------------------------------------------------------- derived
def _derive_metrics(experiment: str, merged: dict) -> dict:
    """Cross-point metrics (speedups, errors) from the merged point dict:
    the one place a speedup or an error is computed."""
    want = _EXPERIMENTS[experiment]
    speedups: dict = {}
    errors: dict = {}
    for key, point in merged.items():
        spec = point["spec"]
        # The references themselves carry no metric; Figure 8 plots cc at H > 1.
        if spec["scheme"] == "cc" and (want.error or spec["host_cores"] == 1):
            continue
        if want.speedup:
            speedups[key] = speedup(merged[f"{spec['workload']}/cc/h1"], point)
        if want.error:
            gold = merged[f"{spec['workload']}/cc/h{spec['host_cores']}"]
            errors[key] = error(gold, point)
    derived: dict = {}
    if want.speedup:
        derived["speedup_over_cc1"] = speedups
    if want.error:
        derived["error_vs_cc"] = errors
    return derived


# --------------------------------------------------------------- top level
def _run_points_parallel(
    specs: list[JobSpec], *, jobs: int, max_retries: int
) -> list[tuple[dict, bool]]:
    """Futures-based scheduler with crash recovery.

    One worker dying (segfault, OOM kill) poisons the whole
    ``ProcessPoolExecutor`` — every outstanding future raises
    :class:`BrokenProcessPool`.  Finished points are already harvested (and
    sealed in the store by their workers), so recovery is: discard the pool,
    wait out an exponential backoff, and resubmit only the unfinished
    points, at most *max_retries* extra attempts per point.  Exceptions
    **raised by a point** (simulation error, output mismatch) are real
    failures and propagate on first occurrence.
    """
    # Imported here: the pool machinery (multiprocessing, logging) is a tenth
    # of CLI start-up, and the CLI imports this module for its experiment names.
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    done: dict[int, tuple[dict, bool]] = {}
    todo = list(range(len(specs)))
    attempts = dict.fromkeys(todo, 0)
    backoff = Backoff(base=0.5, cap=8.0)
    while True:
        executor = ProcessPoolExecutor(max_workers=jobs)
        futures = {executor.submit(_resolve_point, specs[i]): i for i in todo}
        try:
            for future in as_completed(futures):
                done[futures[future]] = future.result()  # point errors propagate here
        except BrokenProcessPool:
            pass
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        todo = [i for i in todo if i not in done]
        if not todo:
            return [done[i] for i in range(len(specs))]
        for index in todo:
            attempts[index] += 1
            if attempts[index] > max_retries:
                raise SweepError(
                    f"point {point_key(specs[index])} lost its worker "
                    f"{attempts[index]} times (max_retries={max_retries})"
                )
        backoff.sleep()


def resolve(
    specs: list[JobSpec],
    *,
    jobs: int = 1,
    max_retries: int = 2,
    telemetry: dict | None = None,
) -> dict[str, dict]:
    """``{point_key: document}`` of *specs*: the one way an experiment
    obtains its points.  Two specs :func:`point_key` cannot tell apart are a
    ``ValueError`` — one document would silently answer for both.

    ``jobs <= 1`` resolves every point serially in-process, otherwise over
    the crash-recovering pool; either way the documents are identical (see
    the module docstring for why).  Nothing but the result store remembers a
    finished point: a repeated request is a store hit, and re-running a
    killed sweep simulates only what had not finished.

    *telemetry*, when given, receives out-of-band execution counters —
    ``store_hits`` / ``store_misses`` — kept outside the documents on
    purpose: a warm sweep must render the same bytes as a cold one, so how
    each point was served cannot live in the payload.
    """
    keys = [point_key(spec) for spec in specs]
    if len(set(keys)) != len(keys):
        twice = sorted({key for key in keys if keys.count(key) > 1})
        raise ValueError(f"specs share a point key: {', '.join(twice)}")
    if jobs <= 1:
        served = [_resolve_point(spec) for spec in specs]
    else:
        served = _run_points_parallel(specs, jobs=jobs, max_retries=max_retries)
    if telemetry is not None:
        telemetry["store_hits"] = sum(hit for _, hit in served)
        telemetry["store_misses"] = len(served) - telemetry["store_hits"]
    return {key: doc for key, (doc, _) in zip(keys, served)}


def run_sweep(
    experiment: str,
    *,
    jobs: int = 1,
    scale: str | None = None,
    base_seed: int = 1,
    max_retries: int = 2,
    telemetry: dict | None = None,
    **kwargs,
) -> dict:
    """Run a full experiment sweep, sharded over *jobs* processes: the grid
    (``kwargs`` subset it, see :func:`build_points`), :func:`resolve`, and
    the cross-point metrics, as one byte-stable document."""
    scale = scale or default_scale()
    specs = build_points(experiment, scale, base_seed, **kwargs)
    docs = resolve(specs, jobs=jobs, max_retries=max_retries, telemetry=telemetry)
    merged = {key: docs[key] for key in sorted(docs)}
    return {
        "experiment": experiment,
        "scale": scale,
        "base_seed": base_seed,
        "points": merged,
        "derived": _derive_metrics(experiment, merged),
    }


def sweep_to_json(payload: dict) -> str:
    """Canonical byte-stable rendering of a sweep document."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
