"""Process-parallel experiment sweeps with deterministic merging.

The Figure 8 / Table 3 / ablation grids are embarrassingly parallel: every
(workload, scheme, host-core-count) point is an independent simulation.
This module shards those points over a :class:`ProcessPoolExecutor` and
merges the per-point results into one JSON document that is **byte-identical
whatever the job count** (``--jobs 1`` serial in-process vs ``--jobs N``):

* the point list is built up front by the same code on both paths, with the
  per-point seed *derived* (SHA-256) from the base seed and the point's
  coordinates — never from worker identity or scheduling order;
* each simulation is deterministic given (spec, seed), so a point's metric
  dict is the same in any process;
* merging orders points by their config key and the document is rendered
  with ``sort_keys=True``, so encounter order cannot leak into the bytes.

Every point resolves through the content-addressed job layer
(:mod:`repro.jobs`, DESIGN.md §12): ``run_point`` wraps its
:class:`PointSpec` into a :class:`JobSpec` and calls ``execute()``, so a
point whose record already sits in ``.repro_cache/results/`` is a store
lookup, not a simulation — a repeated sweep is served entirely from the
store and still renders byte-identical JSON.  Workers also share the
on-disk compile cache, so N workers compiling the same benchmark pay one
compile between them.

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

import gc
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass

from repro._util import Backoff, sha256_hex
from repro.core.config import SimConfig
from repro.core.engine import SequentialEngine
from repro.experiments.common import BENCHMARKS, HOST_COUNTS, SCHEMES, default_scale

__all__ = [
    "ABLATION_SLACKS",
    "PointSpec",
    "SWEEP_EXPERIMENTS",
    "SweepError",
    "TABLE3_SCHEMES",
    "build_points",
    "derive_seed",
    "execute_point",
    "point_document",
    "point_job",
    "point_key",
    "run_point",
    "run_sweep",
    "sweep_to_json",
]


class SweepError(RuntimeError):
    """A sweep could not finish (worker crashes exceeded the retry budget)."""


def _capture_sweep_traces(specs: list["PointSpec"], base_seed: int) -> None:
    """Make sure a valid capture exists per distinct (workload, scale).

    Captures land in the content-keyed ``.repro_cache/traces/`` store
    (:mod:`repro.trace.store`), keyed on (program digest, workload config,
    seed) — so a second sweep over the same workloads performs **zero**
    captures.  Nothing is handed to the points: each one finds the capture
    through the job layer's own discovery (``execute(trace="auto")``), which
    is seed-agnostic because the stream is scheme- and sim-seed-invariant —
    per-point derived seeds all replay the one capture.  The capture itself
    runs under ``su`` (the cheapest scheme) purely for speed.
    """
    from repro.trace import format as tformat
    from repro.trace.store import trace_key, trace_store_path
    from repro.workloads.registry import make_workload

    combos = sorted({(s.workload, s.scale) for s in specs if s.core_model == "inorder"})
    for wl_name, scale in combos:
        workload = make_workload(wl_name, scale=scale)
        digest = tformat.program_digest(workload.program)
        source = {"workload": wl_name, "scale": scale}
        path = trace_store_path(trace_key(digest, source, base_seed))
        if path is None:
            return  # on-disk caching disabled: points run directly
        if path.exists():
            try:
                if tformat.read_trace(str(path)).header.get("program_digest") == digest:
                    continue
            except tformat.TraceError:
                pass  # corrupt or stale entry: recapture below
        result = SequentialEngine(
            workload.program,
            sim=SimConfig(
                scheme="su", seed=base_seed, trace_mode="capture",
                trace_path=str(path),
                trace_source=json.dumps(source, sort_keys=True),
            ),
        ).run()
        if not result.completed:
            raise SweepError(f"trace capture for {wl_name}/{scale} did not complete")


#: Slack bounds of the ablation (A1) sweep grid — single-sourced here;
#: :mod:`repro.experiments.ablations` builds the same grid through
#: :func:`build_points`.
ABLATION_SLACKS = (1, 4, 9, 25, 100, 400)

#: Table 3's scheme columns (error + conservative), in grid order.
TABLE3_SCHEMES = ("cc", "s9", "s100", "su", "q10", "l10", "s9*")

SWEEP_EXPERIMENTS = ("figure8", "table3", "ablations")


@dataclass(frozen=True)
class PointSpec:
    """One independent simulation point (picklable; sent to workers).

    A thin grid-coordinate view over :class:`repro.jobs.JobSpec`:
    :func:`point_job` is the (total) mapping onto the canonical job
    identity, and every field here is digest-relevant there.
    """

    workload: str
    scheme: str
    host_cores: int
    scale: str
    seed: int
    fastforward: bool = False
    core_model: str = "inorder"


def derive_seed(base_seed: int, workload: str, scheme: str, host_cores: int) -> int:
    """Per-point seed, stable across runs and independent of worker identity."""
    digest = sha256_hex(f"{base_seed}:{workload}:{scheme}:{host_cores}")
    return 1 + int.from_bytes(bytes.fromhex(digest[:8]), "little") % (2**31 - 1)


def point_key(spec: PointSpec) -> str:
    """The merge/order key: one stable string per grid coordinate."""
    key = f"{spec.workload}/{spec.scheme}/h{spec.host_cores}"
    if spec.fastforward:
        key += "/ff"
    return key


def point_job(spec: PointSpec):
    """The canonical job identity of one grid point."""
    from repro.jobs import JobSpec

    return JobSpec(
        workload=spec.workload,
        scale=spec.scale,
        scheme=spec.scheme,
        seed=spec.seed,
        host_cores=spec.host_cores,
        core_model=spec.core_model,
        fastforward=spec.fastforward,
    )


def point_document(spec: PointSpec, record: dict) -> dict:
    """A sweep point's JSON document, reduced from a job-store record.

    Pure function of (spec, record) with only deterministic record fields
    — provenance (wall times, trace paths) never leaks in, which is what
    keeps a store-served sweep byte-identical to a cold one.
    """
    metrics = record["metrics"]
    return {
        "spec": asdict(spec),
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


def execute_point(spec: PointSpec):
    """Resolve one point through the job layer: its ``JobOutcome``.

    A store hit, else a replay of whatever matching capture the trace store
    holds (``trace="auto"``; a stale capture degrades to a direct run
    inside ``execute()``), else a direct run — sealed into the store before
    this returns.
    """
    _maybe_crash(spec)
    from repro.jobs import ResultStore, execute

    return execute(point_job(spec), store=ResultStore.default(), trace="auto")


def _run_point_ex(spec: PointSpec) -> tuple[dict, bool]:
    """(document, store_hit) of one point.

    Module-level (picklable) so ProcessPoolExecutor can ship it to workers;
    also the serial path, so jobs=1 and jobs=N run the identical code.
    """
    outcome = execute_point(spec)
    return point_document(spec, outcome.record), outcome.hit


def run_point(spec: PointSpec) -> dict:
    """Simulate (or serve from the result store) one point's document."""
    return _run_point_ex(spec)[0]


def _maybe_crash(spec: PointSpec) -> None:
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
def _figure8_points(
    scale: str,
    base_seed: int,
    *,
    benchmarks: tuple[str, ...] = BENCHMARKS,
    schemes: tuple[str, ...] = SCHEMES,
    host_counts: tuple[int, ...] = HOST_COUNTS,
) -> list[PointSpec]:
    points = []
    for bench in benchmarks:
        points.append(
            PointSpec(bench, "cc", 1, scale, derive_seed(base_seed, bench, "cc", 1))
        )
        for scheme in schemes:
            for hosts in host_counts:
                points.append(
                    PointSpec(
                        bench, scheme, hosts, scale,
                        derive_seed(base_seed, bench, scheme, hosts),
                    )
                )
    return points


def _table3_points(
    scale: str,
    base_seed: int,
    *,
    benchmarks: tuple[str, ...] = BENCHMARKS,
    schemes: tuple[str, ...] = TABLE3_SCHEMES,
    host_cores: int = 8,
) -> list[PointSpec]:
    points = []
    for bench in benchmarks:
        for scheme in schemes:
            points.append(
                PointSpec(
                    bench, scheme, host_cores, scale,
                    derive_seed(base_seed, bench, scheme, host_cores),
                )
            )
    return points


def _ablation_points(
    scale: str,
    base_seed: int,
    workload: str = "fft",
    *,
    slacks: tuple[int, ...] = ABLATION_SLACKS,
    host_cores: int = 8,
) -> list[PointSpec]:
    schemes = ["cc"] + [f"s{n}" for n in slacks] + ["su"]
    points = [
        PointSpec(workload, "cc", 1, scale, derive_seed(base_seed, workload, "cc", 1))
    ]
    for scheme in schemes:
        points.append(
            PointSpec(
                workload, scheme, host_cores, scale,
                derive_seed(base_seed, workload, scheme, host_cores),
            )
        )
    return points


def build_points(experiment: str, scale: str, base_seed: int, **kwargs) -> list[PointSpec]:
    """The full point list for *experiment* (identical on every path).

    The single grid authority: the sweep runner AND the single-experiment
    modules (figure8/table3/ablations) build their point lists here, so
    the two paths can never drift.  ``kwargs`` subset the grid (e.g.
    ``host_counts=(2, 8)`` for a cheaper Figure 8, ``workload=``/
    ``slacks=`` for the ablation sweep).
    """
    if experiment == "figure8":
        return _figure8_points(scale, base_seed, **kwargs)
    if experiment == "table3":
        return _table3_points(scale, base_seed, **kwargs)
    if experiment == "ablations":
        return _ablation_points(scale, base_seed, **kwargs)
    raise ValueError(
        f"unknown sweep experiment {experiment!r} (expected one of {SWEEP_EXPERIMENTS})"
    )


# ----------------------------------------------------------------- derived
def _derive_metrics(experiment: str, merged: dict) -> dict:
    """Cross-point metrics (speedups, errors) from the merged point dict."""
    derived: dict = {}
    if experiment == "figure8":
        speedups: dict = {}
        for key, point in merged.items():
            spec = point["spec"]
            if spec["scheme"] == "cc" and spec["host_cores"] == 1:
                continue
            base = merged[f"{spec['workload']}/cc/h1"]
            speedups[key] = base["host_time"] / point["host_time"]
        derived["speedup_over_cc1"] = speedups
    elif experiment == "table3":
        errors: dict = {}
        for key, point in merged.items():
            spec = point["spec"]
            if spec["scheme"] == "cc":
                continue
            gold = merged[f"{spec['workload']}/cc/h{spec['host_cores']}"]
            errors[key] = (
                abs(point["execution_cycles"] - gold["execution_cycles"])
                / gold["execution_cycles"]
                if gold["execution_cycles"]
                else 0.0
            )
        derived["error_vs_cc"] = errors
    elif experiment == "ablations":
        speedups = {}
        errors = {}
        for key, point in merged.items():
            spec = point["spec"]
            if spec["scheme"] == "cc":
                continue
            base = merged[f"{spec['workload']}/cc/h1"]
            gold = merged[f"{spec['workload']}/cc/h8"]
            speedups[key] = base["host_time"] / point["host_time"]
            errors[key] = (
                abs(point["execution_cycles"] - gold["execution_cycles"])
                / gold["execution_cycles"]
                if gold["execution_cycles"]
                else 0.0
            )
        derived["speedup_over_cc1"] = speedups
        derived["error_vs_cc"] = errors
    return derived


# --------------------------------------------------------------- top level
def _run_points_parallel(
    specs: list[PointSpec], *, jobs: int, max_retries: int
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
    done: dict[int, tuple[dict, bool]] = {}
    todo = list(range(len(specs)))
    attempts = dict.fromkeys(todo, 0)
    backoff = Backoff(base=0.5, cap=8.0)
    while True:
        # gc.freeze: what the fork handed over (modules, numpy) is exempt
        # from the collections the job layer runs between engines — ~2 ms
        # each instead of ~13.
        executor = ProcessPoolExecutor(max_workers=jobs, initializer=gc.freeze)
        futures = {executor.submit(_run_point_ex, specs[i]): i for i in todo}
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


def run_sweep(
    experiment: str,
    *,
    jobs: int = 1,
    scale: str | None = None,
    base_seed: int = 1,
    max_retries: int = 2,
    trace: bool = False,
    telemetry: dict | None = None,
    **kwargs,
) -> dict:
    """Run a full experiment sweep, sharded over *jobs* processes.

    ``jobs <= 1`` runs every point serially in-process; either way the
    returned document is identical (see the module docstring for why).
    Nothing but the result store remembers a finished point: re-running a
    killed sweep serves what finished as store hits and simulates the rest.

    With *trace*, one functional capture per (workload, scale) is taken up
    front in the parent — trivially exactly-once whatever the job count —
    and every in-order point (all schemes, host counts and ff variants)
    replays it.

    *telemetry*, when given, receives out-of-band execution counters —
    ``store_hits`` / ``store_misses`` — kept outside the returned document
    on purpose: a warm sweep must render the same bytes as a cold one, so
    how each point was served cannot live in the payload.
    """
    scale = scale or default_scale()
    specs = build_points(experiment, scale, base_seed, **kwargs)
    if trace:
        _capture_sweep_traces(specs, base_seed)

    if jobs <= 1:
        served = [_run_point_ex(spec) for spec in specs]
    else:
        served = _run_points_parallel(specs, jobs=jobs, max_retries=max_retries)

    if telemetry is not None:
        telemetry["store_hits"] = sum(hit for _, hit in served)
        telemetry["store_misses"] = len(served) - telemetry["store_hits"]

    docs = {point_key(spec): doc for spec, (doc, _) in zip(specs, served)}
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
