"""Replay side: feed recorded commit streams back through the live engine.

:class:`ReplayCore` satisfies the CoreModel protocol (step / wait_state /
skip / advance / deliver_response / …) by consuming a recorded
committed-op stream instead of fetching instructions.  Everything outside
the fetch/execute stage — L1 state machines, coherence traffic, slack
windows, violation tracking, synchronization — runs
*live* in the surrounding engine, exactly as in a direct run.  The bar is
observational indistinguishability at the CoreThread seam: same per-turn
``BatchStats``, same OutQ events at the same local times, same wakes.
That is what makes replay stats digests byte-identical to direct runs
(tests/trace/test_roundtrip.py pins every scheme family).

:class:`ReplaySystem` re-enacts the system-emulation side from recorded,
resolved arguments: a real :class:`SyncEmulation` (contention and FIFO
hand-off depend only on who-called-when, which replay reproduces), the
workload thread table (spawn targets and tids are recorded, so the table
evolves identically), and the output stream (printed values are recorded
verbatim).  It installs as ``engine.system``, so the sync stats group
and ``merged_output`` behave exactly as they do for direct program runs.
"""

from __future__ import annotations

from typing import Callable

from repro.core.events import EvKind, Event
from repro.cpu.interfaces import WAIT_EXTERNAL, CorePhase
from repro.cpu.l1cache import MESI, AccessResult, L1Cache, L1Config
from repro.sysapi.sync import SyncEmulation
from repro.sysapi.syscalls import SYSCALL_COST_CYCLES, Sys
from repro.sysapi.system import SysAction, SysResult, SystemEmulation, _Thread
from repro.trace.format import (
    ACC_AMO, ACC_LOAD,
    OP_EXIT, OP_HALT, OP_JOIN, OP_MEM, OP_MULTI, OP_PRINT, OP_RUN,
    OP_SPAWN, OP_SYNC, OP_SYS, OP_THALT, OP_THINK, OP_TLOAD, OP_TSTORE,
    Trace, TraceError,
)
from repro.violations.detect import WordOrderTracker

__all__ = ["ReplayCore", "ReplaySystem", "rebuild_trace_cores"]

_GRANT_TO_MESI = {"M": MESI.MODIFIED, "E": MESI.EXCLUSIVE, "S": MESI.SHARED}


class ReplaySystem:
    """System-emulation re-enactment over recorded, resolved syscalls."""

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        self.sync = SyncEmulation()
        self.output: list[tuple[int, object]] = []
        self.threads: dict[int, _Thread] = {0: _Thread(tid=0, core=0)}
        self._core_to_tid: dict[int, int] = {0: 0}
        #: engine hook: activate_context(core, pc, arg, ts)
        self.activate_context: Callable[[int, int, int, int], None] | None = None
        self.spawned = 0

    # Inspection API shared with SystemEmulation (engine/result callers).
    def live_threads(self) -> int:
        return sum(1 for t in self.threads.values() if t.state == "running")

    def output_of(self, core: int) -> list:
        return [v for c, v in self.output if c == core]

    def merged_output(self) -> list:
        return [v for _, v in self.output]

    # ------------------------------------------------------------- re-enact
    def spawn(self, parent_core: int, child_core: int, tid: int, ts: int) -> SysResult:
        # The capture run's core/tid assignment is replayed verbatim (it is
        # deterministic in the direct run too: spawn claims the lowest idle
        # core in call order), so recorded join targets resolve exactly.
        if child_core in self._core_to_tid or tid in self.threads:
            raise TraceError(
                f"replay spawn of thread {tid} on busy core {child_core} — "
                f"the trace does not match this execution"
            )
        self.threads[tid] = _Thread(tid=tid, core=child_core)
        self._core_to_tid[child_core] = tid
        self.spawned += 1
        if self.activate_context is None:
            raise RuntimeError("ReplaySystem.activate_context is not bound")
        self.activate_context(child_core, 0, 0, ts)
        return SysResult(SysAction.PROCEED, cost=SYSCALL_COST_CYCLES * 4)

    def join(self, core: int, tid: int) -> SysResult:
        thread = self.threads.get(tid)
        if thread is None:
            raise TraceError(f"replay join on unrecorded thread {tid}")
        if thread.state == "exited":
            return SysResult(SysAction.PROCEED)
        thread.joiners.append(core)
        return SysResult(SysAction.BLOCK)

    def exit(self, core: int, ts: int) -> SysResult:
        tid = self._core_to_tid.get(core)
        if tid is None:
            raise TraceError(f"replay exit from core {core} with no workload thread")
        thread = self.threads[tid]
        thread.state = "exited"
        thread.exit_ts = ts
        wakes = [(joiner, ts + 2) for joiner in thread.joiners]
        thread.joiners = []
        del self._core_to_tid[core]
        return SysResult(SysAction.EXIT, wakes=wakes)

    def sync_call(self, num: int, addr: int, aux: int, core: int, ts: int) -> SysResult:
        sync = self.sync
        sysno = Sys(num)
        if sysno is Sys.LOCK_INIT:
            result = sync.lock_init(addr)
        elif sysno is Sys.LOCK_ACQ:
            result = sync.lock_acquire(addr, core, ts)
        elif sysno is Sys.LOCK_REL:
            result = sync.lock_release(addr, core, ts)
        elif sysno is Sys.BARRIER_INIT:
            result = sync.barrier_init(addr, aux)
        elif sysno is Sys.BARRIER_WAIT:
            result = sync.barrier_wait(addr, core, ts)
        elif sysno is Sys.SEMA_INIT:
            result = sync.sema_init(addr, aux)
        elif sysno is Sys.SEMA_WAIT:
            result = sync.sema_wait(addr, core, ts)
        elif sysno is Sys.SEMA_SIGNAL:
            result = sync.sema_signal(addr, core, ts)
        else:
            raise TraceError(f"unknown recorded sync op {num}")
        return SystemEmulation._from_sync(result)


class ReplayCore:
    """CoreModel over a recorded committed-op stream.

    Every timing decision mirrors :class:`repro.cpu.inorder.InOrderCore`
    case for case (the docstring there is the specification): latency-1
    commits, multi-cycle busy drains, L1 hit/miss issue and completion
    timing, blocking-syscall resume, spin accounting.  The only thing
    missing is architectural state — registers, memory image, predecode —
    which is exactly the cost replay avoids.
    """

    def __init__(
        self,
        core_id: int,
        ops: list[tuple],
        l1d: L1Cache,
        emit: Callable[[Event], None],
        system: ReplaySystem,
        *,
        word_tracker: WordOrderTracker | None = None,
        fastforward: bool = False,
    ) -> None:
        self.core_id = core_id
        self.l1d = l1d
        self.emit = emit
        self.system = system
        self.word_tracker = word_tracker
        self.fastforward = fastforward
        if fastforward:
            # A fast-forwarded store moves ``_busy_until``: keep the
            # per-instruction path, as the direct core does.
            self.advance = None

        self.phase = CorePhase.IDLE
        self.committed = 0
        self.stall_cycles = 0
        self.pending_wakes: list[tuple[int, int]] = []

        self._ops = ops
        self._ip = 0
        self._run_left = 0
        self._busy_until = -1
        self._pending: tuple[int, int, int] | None = None  # (block, acc, addr)
        self._resp: Event | None = None
        self._pending_inval = False
        self._pending_down = False
        self._blocked = False
        self._release_ts: int | None = None

    # ------------------------------------------------------------ lifecycle
    def activate(self, pc: int, arg: int, ts: int) -> None:
        if self.phase not in (CorePhase.IDLE, CorePhase.HALTED):
            raise RuntimeError(f"replay core {self.core_id} activated while {self.phase}")
        if self._pending is not None or self._blocked:
            raise RuntimeError(f"replay core {self.core_id} reactivated with in-flight state")
        self._busy_until = -1
        self.phase = CorePhase.ACTIVE

    # ------------------------------------------------------------- delivery
    def deliver_response(self, event: Event) -> None:
        if self._pending is None:
            raise RuntimeError(f"replay core {self.core_id}: response {event} with nothing pending")
        self._resp = event

    def apply_invalidation(self, addr: int) -> None:
        if self._pending is not None and self.l1d.block_addr(addr) == self._pending[0]:
            self._pending_inval = True
        self.l1d.invalidate(addr)

    def apply_downgrade(self, addr: int) -> None:
        if self._pending is not None and self.l1d.block_addr(addr) == self._pending[0]:
            self._pending_down = True
        self.l1d.downgrade(addr)

    def release(self, release_ts: int) -> None:
        self._release_ts = release_ts

    @property
    def spinning(self) -> bool:
        return self._blocked

    # ---------------------------------------------------- batched stepping
    def wait_state(self, now: int) -> tuple[int, bool] | None:
        if self._blocked:
            release = self._release_ts
            if release is None:
                return WAIT_EXTERNAL, True
            if release > now:
                return release, True
            return None
        if self._pending is not None:
            if self._resp is not None:
                return None
            return WAIT_EXTERNAL, False
        if now <= self._busy_until:
            return self._busy_until + 1, False
        return None

    def skip(self, n: int) -> None:
        if self._blocked or self._pending is not None:
            self.stall_cycles += n

    def advance(self, now: int, limit: int, stats) -> int:
        """Consume ops over ``[now, limit)``; returns the cycles consumed.

        Case-for-case mirror of :meth:`InOrderCore.advance` (the docstring
        there is the specification): ``OP_RUN`` cycles in bulk, ``OP_MULTI``
        and hit ``OP_MEM`` with their drain as a skip stretch, a miss issued
        and charged, everything else left to :meth:`step`.  The direct core
        may split a run across block/closure boundaries differently, but
        per-turn BatchStats and event moments are identical because both
        are cut by the same *limit*.
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
                    self._issue_miss(acc, addr, result, t)
                    ip += 1
                    t += 1
                    break
                self._observe(acc, addr, t)
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

    # ----------------------------------------------------------------- step
    def step(self, now: int) -> tuple[int, bool]:
        if self.phase in (CorePhase.IDLE, CorePhase.HALTED):
            return 0, False
        if self._blocked:
            if self._release_ts is not None and now >= self._release_ts:
                # Finish the blocking syscall: resume costs this cycle.
                self._blocked = False
                self._release_ts = None
                self._busy_until = now
                self.phase = CorePhase.ACTIVE
                self.committed += 1
                return 1, True
            self.stall_cycles += 1
            return 0, True
        if self._pending is not None:
            if self._resp is not None:
                return self._complete_mem(now)
            self.stall_cycles += 1
            return 0, False
        if now <= self._busy_until:
            return 0, False
        return self._exec_next(now)

    def _exec_next(self, now: int) -> tuple[int, bool]:
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
            return self._exec_mem(op[1], op[2], op[3], now)
        if code == OP_MULTI:
            self._busy_until = now + op[1] - 1
            self.committed += 1
            return 1, True
        if code == OP_SYNC:
            return self._apply_sys(
                self.system.sync_call(op[1], op[2], op[3], self.core_id, now), now
            )
        if code == OP_PRINT:
            kind, value = op[1], op[2]
            self.system.output.append(
                (self.core_id, chr(value & 0x10FFFF) if kind == 2 else value)
            )
            self._busy_until = now + SYSCALL_COST_CYCLES - 1
            self.committed += 1
            return 1, True
        if code == OP_SYS:
            self._busy_until = now + SYSCALL_COST_CYCLES - 1
            self.committed += 1
            return 1, True
        if code == OP_SPAWN:
            return self._apply_sys(
                self.system.spawn(self.core_id, op[1], op[2], now), now
            )
        if code == OP_JOIN:
            return self._apply_sys(self.system.join(self.core_id, op[1]), now)
        if code == OP_EXIT:
            result = self.system.exit(self.core_id, now)
            if result.wakes:
                self.pending_wakes.extend(result.wakes)
            self.phase = CorePhase.HALTED
            self.committed += 1
            return 1, True
        if code == OP_HALT:
            self.phase = CorePhase.HALTED
            self.committed += 1
            return 1, True
        raise TraceError(
            f"replay core {self.core_id}: op {code} is not a program-flavor op"
        )

    def _apply_sys(self, result: SysResult, now: int) -> tuple[int, bool]:
        if result.wakes:
            self.pending_wakes.extend(result.wakes)
        if result.action is SysAction.BLOCK:
            # _release_ts deliberately not reset (mirrors InOrderCore: the
            # wake may already have arrived in the threaded engine).
            self._blocked = True
            self.phase = CorePhase.STALLED
            return 0, True
        self._busy_until = now + result.cost - 1
        self.committed += 1
        return 1, True

    # ------------------------------------------------------------- memory ops
    def _exec_mem(self, acc: int, latency: int, addr: int, now: int) -> tuple[int, bool]:
        result = self.l1d.access(addr, acc != ACC_LOAD)
        if result is AccessResult.HIT:
            self._observe(acc, addr, now)
            hit = self.l1d.config.hit_latency
            self._busy_until = max(
                self._busy_until, now + (hit if hit > latency else latency) - 1
            )
            self.committed += 1
            return 1, True
        self._issue_miss(acc, addr, result, now)
        return 0, True

    def _issue_miss(self, acc: int, addr: int, result: AccessResult, now: int) -> None:
        block = self.l1d.block_addr(addr)
        if result is AccessResult.UPGRADE:
            kind = EvKind.UPGRADE
        else:
            kind = EvKind.GETX if acc != ACC_LOAD else EvKind.GETS
        self.emit(Event(kind, block, self.core_id, now))
        self._pending = (block, acc, addr)
        self.phase = CorePhase.STALLED

    def _complete_mem(self, now: int) -> tuple[int, bool]:
        pending = self._pending
        resp = self._resp
        assert pending is not None and resp is not None
        self._pending = None
        self._resp = None
        grant = _GRANT_TO_MESI.get(resp.grant or "")
        if grant is None:
            raise RuntimeError(f"replay core {self.core_id}: response without grant: {resp}")
        block, acc, addr = pending
        victim = self.l1d.fill(block, grant)
        if victim is not None:
            self.emit(Event(EvKind.PUTM, victim, self.core_id, now))
        if self._pending_inval:
            self.l1d.invalidate(block)
        elif self._pending_down:
            self.l1d.downgrade(block)
        self._pending_inval = self._pending_down = False
        self.phase = CorePhase.ACTIVE
        self._observe(acc, addr, now)
        self._busy_until = max(self._busy_until, now + self.l1d.config.hit_latency - 1)
        self.committed += 1
        return 1, True

    def _observe(self, acc: int, addr: int, now: int) -> None:
        """Violation-tracker touch mirroring ``_apply_mem_functional``.

        Same call order (AMO = load-then-store observation) and the same
        fastforward busy write, which the caller folds its own latency
        into with ``max`` exactly like the direct core.  The tracker's
        counters and fastforward bookkeeping must match the direct run
        touch for touch.
        """
        tracker = self.word_tracker
        if tracker is None:
            return
        if acc == ACC_AMO:
            tracker.observe_load(addr, self.core_id, now)
            ff = tracker.observe_store(addr, self.core_id, now)
            if ff and self.fastforward:
                self._busy_until = now + ff
        elif acc == ACC_LOAD:
            tracker.observe_load(addr, self.core_id, now)
        else:
            ff = tracker.observe_store(addr, self.core_id, now)
            if ff and self.fastforward:
                self._busy_until = now + ff


def rebuild_trace_cores(trace: Trace) -> list:
    """Trace flavor: reconstruct literal TraceCores from the serialized
    scripts."""
    from repro.workloads.synthetic import TraceCore

    kinds = {OP_THINK: "think", OP_TLOAD: "load", OP_TSTORE: "store", OP_THALT: "halt"}
    cores = []
    l1_configs = trace.header.get("l1_per_core") or []
    for core_id, ops in enumerate(trace.core_ops):
        script: list[tuple] = []
        for op in ops:
            kind = kinds.get(op[0])
            if kind is None:
                raise TraceError(
                    f"trace-flavor file holds a program-flavor op ({op[0]}) — corrupt header?"
                )
            script.append((kind,) if len(op) == 1 else (kind, op[1]))
        l1 = None
        if core_id < len(l1_configs):
            l1 = L1Cache(L1Config(**l1_configs[core_id]))
        cores.append(TraceCore(core_id, script, l1))
    return cores
