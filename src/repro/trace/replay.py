"""Replay side: feed recorded commit streams back through the live engine.

:class:`ReplayCore` is the second front end of the in-order pipeline
(:class:`repro.cpu.inorder.InOrderPipeline`): where
:class:`~repro.cpu.inorder.InOrderCore` learns the next instruction by
executing the program, it decodes the next op of a recorded committed-op
stream.  Everything after that — L1 state machines, coherence races, miss
issue and completion, syscall blocking and resume, spin accounting — is the
*same code* as a direct run, and everything outside the core (slack windows,
violation tracking, synchronization) runs live in the surrounding engine.
The bar is observational indistinguishability at the CoreThread seam: same
per-turn ``BatchStats``, same OutQ events at the same local times, same
wakes.  That is what makes replay stats digests byte-identical to direct
runs (tests/trace/test_capture_replay.py pins every scheme family on every
registered workload).

:class:`ReplaySystem` is the image-free half of the system emulation
(:class:`repro.sysapi.system.SystemBase`: a real :class:`SyncEmulation` —
contention and FIFO hand-off depend only on who-called-when, which replay
reproduces — the thread table and the output stream) driven from recorded,
resolved arguments; all it adds is thread placement as recorded instead of
allocated.  It installs as ``engine.system``, so the sync stats group and
``merged_output`` behave exactly as they do for direct program runs.
"""

from __future__ import annotations

from typing import Callable

from repro.core.events import Event
from repro.cpu.inorder import InOrderPipeline
from repro.cpu.interfaces import CorePhase
from repro.cpu.l1cache import AccessResult, L1Cache
from repro.sysapi.system import SysAction, SysResult, SystemBase
from repro.trace.format import (
    ACC_AMO, ACC_LOAD, ACC_STORE,
    OP_EXIT, OP_HALT, OP_JOIN, OP_MEM, OP_MULTI, OP_PRINT, OP_RUN,
    OP_SPAWN, OP_SYNC, OP_SYS, TraceError,
)
from repro.violations.detect import WordOrderTracker

__all__ = ["ReplayCore", "ReplaySystem"]


class ReplaySystem(SystemBase):
    """System-emulation re-enactment over recorded, resolved syscalls."""

    error = TraceError

    def spawn(self, child_core: int, tid: int, ts: int) -> SysResult:
        # The capture run's core/tid assignment is replayed verbatim (it is
        # deterministic in the direct run too: spawn claims the lowest idle
        # core in call order), so recorded join targets resolve exactly.
        if child_core in self._core_to_tid or tid in self.threads:
            raise TraceError(
                f"replay spawn of thread {tid} on busy core {child_core} — "
                f"the trace does not match this execution"
            )
        return self.start_thread(child_core, tid, 0, 0, ts)


class ReplayCore(InOrderPipeline):
    """The in-order pipeline over a recorded committed-op stream.

    Missing is exactly what replay avoids paying for: architectural state —
    registers, memory image, predecode.
    """

    def __init__(
        self,
        core_id: int,
        ops: list[tuple],
        l1d: L1Cache,
        emit: Callable[[Event], None],
        system: ReplaySystem,
        *,
        word_tracker: WordOrderTracker,
    ) -> None:
        super().__init__(core_id, l1d, emit, system, word_tracker)
        self._ops = ops
        self._ip = 0
        self._run_left = 0

    def advance(self, now: int, limit: int, stats) -> int:
        """Consume ops over ``[now, limit)``; returns the cycles consumed.

        Same contract as :meth:`InOrderCore.advance` (the docstring there
        is the specification) over ops instead of instructions: ``OP_RUN``
        cycles in bulk, ``OP_MULTI`` and hit ``OP_MEM`` with their drain as
        a skip stretch, a miss issued and charged, everything else left to
        :meth:`step`.  The direct core may split a run across block/closure
        boundaries differently, but per-turn BatchStats and event moments
        are identical because both are cut by the same *limit*.
        """
        if self._pending is not None or self._blocked:
            return 0
        ops = self._ops
        nops = len(ops)
        ip = self._ip
        left = self._run_left
        l1d = self.l1d
        hit_latency = l1d.config.hit_latency
        busy = self._busy_until
        committed = skipped = stretches = 0
        t = now
        while t < limit:
            if left:
                n = left if left <= limit - t else limit - t
                left -= n
                t += n
                busy = t - 1
                committed += n
                continue
            if ip >= nops:
                break
            op = ops[ip]
            code = op[0]
            if code == OP_RUN:
                left = op[1]
                ip += 1
                continue
            if code == OP_MULTI:
                latency = op[1]
            elif code == OP_MEM and op[1] != ACC_AMO:
                acc, latency, addr = op[1], op[2], op[3]
                result = l1d.access(addr, acc != ACC_LOAD)
                if result is not AccessResult.HIT:
                    self._issue_miss(acc, addr, acc != ACC_LOAD, result, t)
                    ip += 1
                    t += 1
                    break
                self._retire_mem(acc, addr, t)
                if hit_latency > latency:
                    latency = hit_latency
            else:
                break
            ip += 1
            committed += 1
            busy = t + latency - 1
            t += 1
            if t <= busy and t < limit:
                wait = (busy + 1 if busy < limit else limit) - t
                skipped += wait
                stretches += 1
                t += wait
        self._ip = ip
        self._run_left = left
        self._busy_until = busy
        self.committed += committed
        cycles = t - now
        stats.cycles += cycles
        stats.committed += committed
        stats.active_cycles += cycles - skipped
        stats.skipped_cycles += skipped
        stats.skip_stretches += stretches
        return cycles

    # ------------------------------------------------------------ front end
    def _fetch_execute(self, now: int) -> tuple[int, bool]:
        left = self._run_left
        if left:
            self._run_left = left - 1
            self._busy_until = now
            self.committed += 1
            return 1, True
        ops = self._ops
        ip = self._ip
        if ip >= len(ops):
            raise TraceError(
                f"replay core {self.core_id}: op stream exhausted without halt "
                f"(truncated or mismatched trace)"
            )
        op = ops[ip]
        self._ip = ip + 1
        code = op[0]
        if code == OP_RUN:
            self._run_left = op[1] - 1
            self._busy_until = now
            self.committed += 1
            return 1, True
        if code == OP_MEM:
            acc, latency, addr = op[1], op[2], op[3]
            result = self.l1d.access(addr, acc != ACC_LOAD)
            if result is not AccessResult.HIT:
                self._issue_miss(acc, addr, acc != ACC_LOAD, result, now)
                return 0, True
            self._retire_mem(acc, addr, now)
            hit = self.l1d.config.hit_latency
            self._busy_until = max(
                self._busy_until, now + (hit if hit > latency else latency) - 1
            )
            self.committed += 1
            return 1, True
        if code == OP_MULTI:
            self._busy_until = now + op[1] - 1
            self.committed += 1
            return 1, True
        if code == OP_HALT:
            self.phase = CorePhase.HALTED
            self.committed += 1
            return 1, True
        system = self.system
        if code == OP_SYNC:
            result = system.sync_call(op[1], op[2], op[3], self.core_id, now)
        elif code == OP_PRINT:
            kind, value = op[1], op[2]
            system.output.append(
                (self.core_id, chr(value & 0x10FFFF) if kind == 2 else value)
            )
            result = SysResult(SysAction.PROCEED)
        elif code == OP_SYS:
            result = SysResult(SysAction.PROCEED)
        elif code == OP_SPAWN:
            result = system.spawn(op[1], op[2], now)
        elif code == OP_JOIN:
            result = system.join(self.core_id, op[1])
        elif code == OP_EXIT:
            result = system.exit(self.core_id, now)
        else:
            raise TraceError(
                f"replay core {self.core_id}: unknown op {code}"
            )
        return self._finish_syscall(result, now)

    def _retire_mem(self, acc: int, addr: int, now: int) -> None:
        # Tracker touches in the direct core's order (an AMO observes as a
        # load, then as a store): its counters and the fast-forward
        # bookkeeping must match the direct run touch for touch.
        tracker = self.word_tracker
        if acc != ACC_STORE:
            tracker.observe_load(addr, self.core_id, now)
        if acc != ACC_LOAD:
            ff = tracker.observe_store(addr, self.core_id, now)
            if ff:
                self._busy_until = now + ff
