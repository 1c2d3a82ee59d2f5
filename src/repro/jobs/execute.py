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

The engine a miss builds lives and dies inside ``execute``: the caller gets
the record, never the engine graph.  An engine owns no reference cycle, so
it — target image included — is freed the moment ``execute`` returns; no
module calls the garbage collector.  Whoever needs to look at a run while it
is in flight (the pool worker's progress beat, DESIGN.md §13) passes
``watch=``, which is called once with the freshly built engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import repro
from repro._util import output_digest
from repro.cache import program_image
from repro.core.results import kips, summary_line
from repro.jobs.spec import JobSpec, digest_payload, job_key, spec_program
from repro.jobs.store import ResultStore

__all__ = ["JobOutcome", "execute", "record_summary"]


@dataclass
class JobOutcome:
    """What one ``execute`` call produced."""

    key: str
    record: dict
    #: True when the record came straight from the store (nothing ran).
    hit: bool


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
            "host_utilization": stats["host.utilization"],
            "kips": kips(stats),
            "violations": (
                stats["violations.simulation_state"]
                + stats["violations.system_state"]
                + stats["violations.workload_state"]
            ),
            "workload_violations": stats["violations.workload_state"],
            "output_len": len(result.output),
        },
        "cores": result.cores,
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
    spec: JobSpec,
    store: "ResultStore | None" = None,
    *,
    trace: "str | None" = None,
    watch=None,
) -> JobOutcome:
    """Resolve *spec* to a result record: a store hit, else a direct run.

    *store* defaults to ``None``: caching is disabled and every call runs.
    With *trace* (a capture path) the job is replayed from that file and the
    store is left exactly as it was found; a capture that cannot serve the
    job (another program, core model or core count; a damaged file) raises
    ``EngineError``/``TraceError``.  *watch*, if given, is called with the
    engine of a miss before it runs (never on a hit); the engine does not
    outlive this call otherwise.
    """
    workload = spec_program(spec)
    pdigest = program_image(workload.program)[0]
    key = job_key(spec, program_digest=pdigest)
    if trace is not None:
        trace, store = str(trace), None
    elif store is not None:
        record = store.load(key)
        if record is not None:
            return JobOutcome(key=key, record=record, hit=True)

    from repro.core.engine import SequentialEngine

    t0 = time.perf_counter()
    engine = SequentialEngine(
        workload.program,
        target=spec.target_config(),
        host=spec.host_config(),
        sim=replace(
            spec.sim_config(),
            trace_mode="off" if trace is None else "replay",
            trace_path=trace,
            trace_source=None,
        ),
    )
    if watch is not None:
        watch(engine)
    result = engine.run()
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
    return JobOutcome(key=key, record=record, hit=False)


def record_summary(record: dict) -> str:
    """The one-line run summary of a stored record: the live result's line,
    read from the same dump."""
    return summary_line(record["stats"])
