"""The memoized execution pipeline: job in, sealed record out.

``execute(spec, store)`` is the one path every entry point shares
(DESIGN.md §12), and it is *hit or run*:

1. **Store hit** — a sealed record for the job key exists: return it
   without simulating.
2. **Miss** — run the engine directly, verify the output against the
   workload's numpy oracle, pack the record (metrics, per-core summaries,
   flat stats, stats digest, the rendered stats document, output
   fingerprint, provenance) and publish it to the store atomically.

``execute(spec, store, trace=path)`` is the explicit replay tool (DESIGN.md
§11): it re-times the capture at *path* under the job's configuration and
hands back the same record shape, but **neither reads nor writes the
store** — a replayed run prints the capture run's values, so it is not a
run of this job's key, and a sealed record must be attributable to one.

``execute_functional`` is the bench-shaped sibling: it always runs (wall
time is the product) but records the functional outcome in the same store,
so repeated benches double as determinism checks — a stored record that
disagrees with a fresh run is surfaced as drift.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace

import repro
from repro._util import output_digest
from repro.jobs.spec import JobSpec, digest_payload, job_key, spec_program
from repro.jobs.store import ResultStore

__all__ = ["JobOutcome", "execute", "execute_functional", "record_summary"]


@dataclass
class JobOutcome:
    """What one ``execute`` call produced."""

    key: str
    record: dict
    #: True when the record came straight from the store (nothing ran).
    hit: bool
    #: The live engine/functional result — ``None`` on a hit.
    result: object = None
    #: Functional-record drift against a previously stored record
    #: (``execute_functional`` only): list of human-readable mismatches.
    drift: list = field(default_factory=list)


def _timing_record(
    payload: dict, result, *, trace: "str | None", wall_time: float
) -> dict:
    stats = result.stats
    return {
        "spec": payload,
        "completed": result.completed,
        "metrics": {
            "execution_cycles": stats["target.execution_cycles"],
            "global_time": stats["target.global_time"],
            "instructions": stats["target.instructions"],
            "host_time": stats["host.makespan"],
            "host_utilization": result.host_utilization,
            "kips": result.kips,
            "violations": (
                stats["violations.simulation_state"]
                + stats["violations.system_state"]
                + stats["violations.workload_state"]
            ),
            "workload_violations": stats["violations.workload_state"],
            "output_len": len(result.output),
        },
        "cores": [
            {
                "core": c.core_id,
                "committed": c.committed,
                "cycles": c.cycles,
                "l1_accesses": c.l1_accesses,
                "l1_misses": c.l1_misses,
            }
            for c in result.cores
        ],
        "output_sha256": output_digest(result.output),
        "stats": stats,
        "stats_digest": result.stats_sha256,
        "stats_dump": result.dump_json(),
        "provenance": {
            "repro_version": repro.__version__,
            "engine": "direct" if trace is None else "replay",
            "trace_path": trace,
            "wall_time_s": wall_time,
            "created_unix": time.time(),
        },
    }


def execute(
    spec: JobSpec, store: "ResultStore | None" = None, *, trace: "str | None" = None
) -> JobOutcome:
    """Resolve *spec* to a result record: a store hit, else a direct run.

    *store* defaults to ``None``: caching is disabled and every call runs.
    With *trace* (a capture path) the job is replayed from that file and the
    store is left exactly as it was found; a capture that cannot serve the
    job (another program, core model or core count; a damaged file) raises
    ``EngineError``/``TraceError``.
    """
    if spec.mode != "timing":
        raise ValueError(f"execute() runs timing jobs; got mode={spec.mode!r}")
    workload = spec_program(spec)
    from repro.trace.format import program_digest as _pd

    pdigest = _pd(workload.program)
    key = job_key(spec, program_digest=pdigest)
    if trace is not None:
        trace, store = str(trace), None
    elif store is not None:
        record = store.load(key)
        if record is not None:
            return JobOutcome(key=key, record=record, hit=True)

    from repro.core.engine import SequentialEngine

    # An engine is a cyclic graph that owns its target-memory image, and a
    # job on a warm Program (lang/memo.py) allocates too little for the
    # collector to run by itself: free the previous job's engine before
    # building this one, or a loop of jobs piles them up.
    gc.collect()
    t0 = time.perf_counter()
    result = SequentialEngine(
        workload.program,
        target=spec.target_config(),
        host=spec.host_config(),
        sim=replace(
            spec.sim_config(),
            trace_mode="off" if trace is None else "replay",
            trace_path=trace,
            trace_source=None,
        ),
    ).run()
    wall_time = time.perf_counter() - t0
    problems = workload.mismatches(result.output)
    if problems:
        raise AssertionError(
            f"{spec.workload} mis-executed under {spec.scheme}: "
            + "; ".join(problems)
        )
    record = _timing_record(
        digest_payload(spec, pdigest), result, trace=trace, wall_time=wall_time
    )
    if store is not None:
        record = store.put(key, record)  # hand back the sealed form
    return JobOutcome(key=key, record=record, hit=False, result=result)


def execute_functional(
    spec: JobSpec,
    store: "ResultStore | None" = None,
    *,
    dispatch: str = "predecoded",
) -> JobOutcome:
    """Run *spec* functionally (no timing model), recording the outcome.

    Always runs — the caller is measuring wall time — but routes identity
    and persistence through the same store as timing jobs.  If a stored
    record disagrees with the fresh run on any deterministic field, the
    mismatches come back in ``outcome.drift`` (a determinism bug surfaced,
    not silently overwritten).
    """
    if spec.mode != "functional":
        raise ValueError(
            f"execute_functional() runs functional jobs; got mode={spec.mode!r}"
        )
    from repro.cpu.interp import run_functional
    from repro.trace.format import program_digest as _pd

    workload = spec_program(spec)
    pdigest = _pd(workload.program)
    key = job_key(spec, program_digest=pdigest)
    prior = store.load(key) if store is not None else None

    t0 = time.perf_counter()
    result = run_functional(workload.program, dispatch=dispatch)
    wall_time = time.perf_counter() - t0

    record = {
        "spec": digest_payload(spec, pdigest),
        "completed": result.exit_code in (0, None),
        "metrics": {
            "instructions": result.instructions,
            "exit_code": result.exit_code,
            "output_len": len(result.output),
        },
        "output_sha256": output_digest(result.output),
        "stats": {},
        "stats_digest": "",
        "provenance": {
            "repro_version": repro.__version__,
            "engine": "functional",
            "dispatch": dispatch,
            "wall_time_s": wall_time,
            "kips": result.instructions / wall_time / 1000.0 if wall_time else 0.0,
            "created_unix": time.time(),
        },
    }
    drift = []
    if prior is not None:
        for field_path in ("metrics", "output_sha256"):
            if prior.get(field_path) != record[field_path]:
                drift.append(
                    f"{field_path}: stored {prior.get(field_path)!r} "
                    f"!= fresh {record[field_path]!r}"
                )
    if store is not None:
        record = store.put(key, record)
    return JobOutcome(
        key=key,
        record=record,
        hit=prior is not None,
        result=result,
        drift=drift,
    )


def record_summary(record: dict) -> str:
    """The one-line run summary, reconstructed from a stored record.

    Field-for-field the format of :meth:`SimulationResult.summary`, so a
    served `run` prints the same line a fresh one would.
    """
    m, stats = record["metrics"], record["stats"]
    violations = (
        f"violations: simulation={stats.get('violations.simulation_state', 0)} "
        f"system={stats.get('violations.system_state', 0)} "
        f"workload={stats.get('violations.workload_state', 0)} "
        f"fastforwards={stats.get('violations.fastforwards', 0)}"
    )
    spec = record["spec"]
    return (
        f"[{spec['sim']['scheme']} H={spec['host']['num_cores']}] "
        f"T_target={m['execution_cycles']} cyc, instr={m['instructions']}, "
        f"T_host={m['host_time']:.0f} u ({m['kips']:.1f} KIPS), "
        f"util={m['host_utilization']:.2f}, {violations}"
    )
