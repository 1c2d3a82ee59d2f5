"""Capture side of the trace subsystem: commit-stream recorders.

One :class:`CoreRecorder` per core hangs off the timing core's optional
``tracer`` hook (``None`` by default — direct runs pay one attribute
check per commit site and nothing else).  The recorder collects the
*pacing-invariant* committed-op stream: latency-1 register commits are
coalesced into ``OP_RUN`` segments, memory ops record their effective
address and unit latency at issue (hit/miss is re-decided at replay),
and syscalls record their *resolved* arguments so no architectural state
is needed to re-enact them (DESIGN.md §11).

What makes the stream scheme-invariant: the simulation seed only jitters
modeled host costs, and scheme choice only re-times the same committed
instructions — neither changes which instructions commit, in what
per-core order, with which addresses.  (Double-capture equality under
different schemes/seeds is pinned by tests/trace/test_capture_replay.py.)
The one caveat is control flow derived from emulation results that
depend on cross-core interleaving — ``clock()`` values or concurrent
``sbrk`` returns; no registered workload does either.
"""

from __future__ import annotations

from repro.sysapi.syscalls import Sys
from repro.trace.format import (
    ACC_AMO, ACC_LOAD, ACC_STORE,
    OP_EXIT, OP_HALT, OP_JOIN, OP_MEM, OP_MULTI, OP_PRINT, OP_RUN,
    OP_SPAWN, OP_SYNC, OP_SYS,
)

__all__ = ["CoreRecorder", "TraceRecorder", "record_syscall"]

_PLAIN_SYS = frozenset((Sys.SBRK, Sys.CLOCK, Sys.THREAD_ID, Sys.NUM_THREADS))
_SYNC_SYS = frozenset((
    Sys.LOCK_INIT, Sys.LOCK_ACQ, Sys.LOCK_REL,
    Sys.BARRIER_INIT, Sys.BARRIER_WAIT,
    Sys.SEMA_INIT, Sys.SEMA_WAIT, Sys.SEMA_SIGNAL,
))


class CoreRecorder:
    """Accumulates one core's committed-op stream in commit order."""

    __slots__ = ("ops", "_run")

    def __init__(self) -> None:
        self.ops: list[tuple] = []
        self._run = 0

    # Latency-1 register commits coalesce; anything else flushes the run.
    def run(self, latency: int) -> None:
        if latency == 1:
            self._run += 1
        else:
            if self._run:
                self.ops.append((OP_RUN, self._run))
                self._run = 0
            self.ops.append((OP_MULTI, latency))

    def _flush(self) -> None:
        if self._run:
            self.ops.append((OP_RUN, self._run))
            self._run = 0

    def mem(self, acc: int, latency: int, addr: int) -> None:
        self._flush()
        self.ops.append((OP_MEM, acc, latency, addr))

    def emit(self, op: tuple) -> None:
        self._flush()
        self.ops.append(op)

    def halt(self) -> None:
        self._flush()
        self.ops.append((OP_HALT,))

    def finish(self) -> list[tuple]:
        self._flush()
        return self.ops


class TraceRecorder:
    """Per-run recorder set: one :class:`CoreRecorder` per target core."""

    def __init__(self, num_cores: int) -> None:
        self.cores = [CoreRecorder() for _ in range(num_cores)]

    def finish(self) -> list[list[tuple]]:
        return [rec.finish() for rec in self.cores]


def mem_acc(info) -> int:
    """Access class of a memory instruction (AMOs are read-modify-write)."""
    if info.is_amo:
        return ACC_AMO
    return ACC_STORE if info.is_store else ACC_LOAD


def record_syscall(rec: CoreRecorder, num: int, a0: int, a1: int, fa0: float,
                   system, state) -> None:
    """Record one resolved syscall after :class:`SystemEmulation` handled it.

    *a0/a1/fa0* are the pre-call argument registers; *state* is post-call,
    which is how spawn learns the assigned tid (and through the thread
    table, the claimed core).  Recording resolved values — the printed
    value, the spawn target, the sync object address — is what lets replay
    run with no registers and no memory image at all.
    """
    sys = Sys(num)
    if sys is Sys.EXIT:
        rec.emit((OP_EXIT,))
    elif sys is Sys.PRINT_INT:
        rec.emit((OP_PRINT, 0, a0))
    elif sys is Sys.PRINT_FLOAT:
        rec.emit((OP_PRINT, 1, fa0))
    elif sys is Sys.PRINT_CHAR:
        rec.emit((OP_PRINT, 2, a0 & 0x10FFFF))
    elif sys in _PLAIN_SYS:
        rec.emit((OP_SYS, int(num)))
    elif sys is Sys.THREAD_SPAWN:
        tid = state.x[10]  # post-call a0 = the new thread id
        rec.emit((OP_SPAWN, system.threads[tid].core, tid))
    elif sys is Sys.THREAD_JOIN:
        rec.emit((OP_JOIN, a0))
    elif sys in _SYNC_SYS:
        rec.emit((OP_SYNC, int(num), a0, a1))
    else:  # pragma: no cover - SystemEmulation already rejected it
        raise ValueError(f"unrecordable syscall {num}")
