"""Trace capture + replay (DESIGN.md §11).

Record the scheme-invariant committed-op stream of one workload execution
once (:mod:`repro.trace.capture`, hooked at the timing-core → memory seam),
then re-simulate it under any scheme / slack window / memory configuration
without re-executing the functional cores (:mod:`repro.trace.replay`).
The on-disk format lives in :mod:`repro.trace.format`.  Replay is an explicit
tool (``run --replay-trace``, ``jobs.execute(trace=path)``): nothing replays
by itself and no replayed record enters the result store.
"""

from repro.trace.format import Trace, TraceError, program_digest, read_trace, trace_info, write_trace

__all__ = [
    "Trace", "TraceError", "program_digest", "read_trace", "trace_info",
    "write_trace",
]
