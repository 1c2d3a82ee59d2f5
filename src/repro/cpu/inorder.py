"""In-order, stall-on-miss timing core.

One instruction in flight: fetch/execute at the head cycle, then stay busy
for the instruction's unit latency; loads/stores access the private L1 and,
on a miss, issue a request into the core thread's OutQ and stall until the
manager's response arrives (paper §2.2's "simple in-order core that stalls
on a cache miss").

Functional effects follow isochrone semantics (paper §3.2): values are read
and written in the shared functional memory at the simulated moment the
access completes — L1 hits at the execute cycle, misses when the response is
applied.

The model is cut where trace capture cuts it (DESIGN.md §11):
:class:`InOrderPipeline` owns everything that happens *after* an instruction
is known, and a front end decides what the next instruction is —
:class:`InOrderCore` by executing the program,
:class:`repro.trace.replay.ReplayCore` by decoding a recorded commit stream.
"""

from __future__ import annotations

from typing import Callable

from repro.cpu.arch import ArchState, TargetMemory
from repro.cpu.funcsim import NEXT, do_amo, do_load, do_store, effective_address, execute
from repro.cpu.interfaces import WAIT_EXTERNAL, CorePhase
from repro.cpu.l1cache import AccessResult, L1Cache
from repro.cpu.predecode import (
    K_ECALL, K_HALT, K_JUMP, K_STORE, predecode_program,
)
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.program import TEXT_BASE, Program
from repro.mem.directory import EvKind, Event
from repro.sysapi.system import SysAction, SysResult, SystemBase, SystemEmulation
from repro.trace.capture import mem_acc, record_syscall
from repro.violations.detect import WordOrderTracker

__all__ = ["InOrderCore", "InOrderPipeline"]

class _PendingMem:
    """The one request in flight: *op* is the front end's token for the
    access to retire once *block* has been filled into the L1."""

    __slots__ = ("op", "addr", "block")

    def __init__(self, op, addr: int, block: int) -> None:
        self.op = op
        self.addr = addr
        self.block = block


class InOrderPipeline:
    """The stall-on-miss pipeline behind a front end.

    A front end supplies ``_fetch_execute(now)`` (decide the instruction at
    the head cycle and hand it to the pipeline), the retire hooks below it
    and its own ``advance(now, limit, stats)`` hot loop
    (:class:`~repro.cpu.interfaces.CoreModel`).  Shadowing that method with
    the *instance* attribute ``advance = None`` keeps a core on the
    per-instruction path: CoreThread hoists ``getattr(model, "advance",
    None)``, so there is no per-cycle gate.
    """

    def __init__(
        self,
        core_id: int,
        l1d: L1Cache,
        emit: Callable[[Event], None],
        system: SystemBase,
        word_tracker: WordOrderTracker,
    ) -> None:
        self.core_id = core_id
        self.l1d = l1d
        self.emit = emit
        self.system = system
        self.word_tracker = word_tracker
        if word_tracker.fastforward:
            # A fast-forwarded store moves ``_busy_until`` (``_retire_mem``),
            # which an ``advance`` loop keeps in a local.
            self.advance = None

        self.phase = CorePhase.IDLE
        self.committed = 0
        self.stall_cycles = 0
        self.pending_wakes: list[tuple[int, int]] = []

        self._busy_until = -1
        self._pending: _PendingMem | None = None
        self._resp: Event | None = None
        # Coherence messages that raced ahead of the in-flight grant (MESI
        # IM->I / IM->S transients): applied right after the fill so the
        # granted data is used once and the stolen line is not kept.
        self._pending_inval = False
        self._pending_down = False
        self._blocked = False
        self._release_ts: int | None = None

    # ------------------------------------------------------------ lifecycle
    def activate(self, pc: int, arg: int, ts: int) -> None:
        if self.phase not in (CorePhase.IDLE, CorePhase.HALTED):
            raise RuntimeError(f"core {self.core_id} activated while {self.phase}")
        if self._pending is not None or self._blocked:
            raise RuntimeError(f"core {self.core_id} reactivated with in-flight state")
        self._busy_until = -1
        self.phase = CorePhase.ACTIVE

    # ------------------------------------------------------------- delivery
    def deliver_response(self, event: Event) -> None:
        if self._pending is None:
            raise RuntimeError(f"core {self.core_id}: response {event} with nothing pending")
        self._resp = event

    def apply_invalidation(self, addr: int) -> None:
        if self._pending is not None and self.l1d.block_addr(addr) == self._pending.block:
            self._pending_inval = True
        self.l1d.invalidate(addr)

    def apply_downgrade(self, addr: int) -> None:
        if self._pending is not None and self.l1d.block_addr(addr) == self._pending.block:
            self._pending_down = True
        self.l1d.downgrade(addr)

    def release(self, release_ts: int) -> None:
        """Arm the wake-up for a BLOCK-ed syscall.

        May legitimately arrive *before* this core observes the BLOCK result
        when cores run on real threads (``tests/core/threaded_harness.py``:
        the releaser runs concurrently); the value is consumed exactly once
        when the blocking syscall finishes.
        """
        self._release_ts = release_ts

    @property
    def spinning(self) -> bool:
        """True while blocked in a sync spin loop (full host cost class)."""
        return self._blocked

    # ---------------------------------------------------- batched stepping
    def wait_state(self, now: int) -> tuple[int, bool] | None:
        """Classify the current cycle for the run-ahead fast path.

        Pure wait stretches (frozen pipeline, spin wait, multi-cycle op) are
        reported with their resume time so the CoreThread can jump them in
        one call; ``None`` demands a real :meth:`step`.
        """
        if self._blocked:
            release = self._release_ts
            if release is None:
                return WAIT_EXTERNAL, True  # spinning until an external wake
            if release > now:
                return release, True  # spinning until a known release
            return None  # finish the blocking syscall this cycle
        if self._pending is not None:
            if self._resp is not None:
                return None  # complete the memory access this cycle
            return WAIT_EXTERNAL, False  # frozen pipeline, response pending
        if now <= self._busy_until:
            return self._busy_until + 1, False  # multi-cycle op in flight
        return None

    def skip(self, n: int) -> None:
        """Account *n* wait cycles at once (≡ n wait ``step`` calls)."""
        if self._blocked or self._pending is not None:
            self.stall_cycles += n

    def step(self, now: int) -> tuple[int, bool]:
        if self.phase in (CorePhase.IDLE, CorePhase.HALTED):
            return 0, False
        if self._blocked:
            if self._release_ts is not None and now >= self._release_ts:
                self._blocked = False
                self._release_ts = None
                self.phase = CorePhase.ACTIVE
                return self._proceed(now, 1)  # resume costs this cycle
            # A blocked workload thread spins in target code (load flag,
            # branch): the core thread simulates real instructions, so the
            # host pays full per-cycle cost.  This is what keeps de-facto
            # slack bounded under SU on a fair host (paper §4.2.2's
            # "surprisingly low" unbounded-slack errors) — unlike memory
            # stalls, where the frozen pipeline is cheap to simulate.
            self.stall_cycles += 1
            return 0, True
        if self._pending is not None:
            if self._resp is not None:
                return self._complete_mem(now)
            self.stall_cycles += 1
            return 0, False
        if now <= self._busy_until:
            return 0, False  # frozen while a multi-cycle op drains (cheap)
        return self._fetch_execute(now)

    def cycle(self, now: int) -> tuple[int, bool] | None:
        """``wait_state``, then ``skip(1)`` or ``step``, in one call: None
        for a wait cycle (already accounted), else ``step(now)``'s result."""
        if self._blocked:
            release = self._release_ts
            if release is None or release > now:
                self.stall_cycles += 1
                return None
            self._blocked = False
            self._release_ts = None
            self.phase = CorePhase.ACTIVE
            return self._proceed(now, 1)
        if self._pending is not None:
            if self._resp is not None:
                return self._complete_mem(now)
            self.stall_cycles += 1
            return None
        if now <= self._busy_until:
            return None
        if self.phase in (CorePhase.IDLE, CorePhase.HALTED):
            return 0, False
        return self._fetch_execute(now)

    # ------------------------------------------------------------ front end
    def _fetch_execute(self, now: int) -> tuple[int, bool]:
        """Decide the instruction at head cycle *now* and run it through the
        pipeline; returns ``step``'s ``(committed, active)``."""
        raise NotImplementedError

    def _retire_mem(self, op, addr: int, now: int) -> None:
        """The access *op* at *addr* completes at *now*: touch the violation
        tracker, then whatever architectural state the front end keeps.

        A fast-forwarded store leaves its compensation in ``_busy_until``
        (``now + ff`` when ``observe_store`` returns a nonzero *ff*, which
        only a fast-forwarding tracker does); the pipeline folds its own
        latency in with ``max``, never overwrites.
        """
        raise NotImplementedError

    def _retire_syscall(self) -> None:
        """A non-blocking or resumed ``ecall`` retires."""

    # ----------------------------------------------------------- sub-phases
    def _issue_miss(self, op, addr: int, is_write: bool, result: AccessResult, now: int) -> None:
        block = self.l1d.block_addr(addr)
        if result is AccessResult.UPGRADE:
            kind = EvKind.UPGRADE
        else:
            kind = EvKind.GETX if is_write else EvKind.GETS
        self.emit(Event(kind, block, self.core_id, now))
        self._pending = _PendingMem(op, addr, block)
        self.phase = CorePhase.STALLED

    def _complete_mem(self, now: int) -> tuple[int, bool]:
        pending = self._pending
        resp = self._resp
        assert pending is not None and resp is not None
        self._pending = None
        self._resp = None
        l1d = self.l1d
        victim = l1d.fill(pending.block, resp.grant)
        if victim is not None:
            self.emit(Event(EvKind.PUTM, victim, self.core_id, now))
        if self._pending_inval:
            l1d.invalidate(pending.block)
        elif self._pending_down:
            l1d.downgrade(pending.block)
        self._pending_inval = self._pending_down = False
        self.phase = CorePhase.ACTIVE
        self._retire_mem(pending.op, pending.addr, now)
        self._busy_until = max(self._busy_until, now + l1d.config.hit_latency - 1)
        self.committed += 1
        return 1, True

    def _finish_syscall(self, result: SysResult, now: int) -> tuple[int, bool]:
        """Apply what the system emulation answered to an ``ecall``."""
        if result.wakes:
            self.pending_wakes.extend(result.wakes)
        if result.action is SysAction.EXIT:
            self.phase = CorePhase.HALTED
            self.committed += 1
            return 1, True
        if result.action is SysAction.BLOCK:
            # Do not reset _release_ts: with cores on real threads the wake
            # may already have arrived; it is cleared on consumption.
            self._blocked = True
            self.phase = CorePhase.STALLED
            return 0, True
        return self._proceed(now, result.cost)

    def _proceed(self, now: int, cost: int) -> tuple[int, bool]:
        self._retire_syscall()
        self._busy_until = now + cost - 1
        self.committed += 1
        return 1, True


class InOrderCore(InOrderPipeline):
    """One target core executing the program, with a private L1 D-cache."""

    def __init__(
        self,
        core_id: int,
        program: Program,
        memory: TargetMemory,
        l1d: L1Cache,
        emit: Callable[[Event], None],
        system: SystemEmulation,
        *,
        word_tracker: WordOrderTracker,
        dispatch: str = "predecoded",
        tracer=None,
    ) -> None:
        super().__init__(core_id, l1d, emit, system, word_tracker)
        self.program = program
        self.memory = memory
        # Optional trace-capture recorder (repro.trace.capture.CoreRecorder).
        # None on direct runs: every commit site pays one `is not None` check.
        self._rec = tracer
        self.state: ArchState | None = None
        self._text = program.text
        # Predecoded per-PC function tables — what :meth:`advance` runs on.
        # The oracle dispatch keeps the per-instruction path (so does
        # fast-forwarding: InOrderPipeline.__init__).
        if dispatch not in ("predecoded", "oracle"):
            raise ValueError(f"unknown dispatch mode {dispatch!r}")
        self._bind_tables(dispatch == "predecoded")
        if self._kinds is None:
            self.advance = None

    # ------------------------------------------------------------- pickling
    def _bind_tables(self, predecoded: bool) -> None:
        """(Re-)derive the program-memoised dispatch tables."""
        if predecoded:
            pre = predecode_program(self.program)
            self._kinds: list | None = pre.kinds
            self._runs = pre.runs
            self._eas = pre.eas
            self._applies = pre.applies
            self._latencies = pre.latencies
        else:
            self._kinds = None

    def __getstate__(self):
        # The predecoded dispatch tables are generated functions — unpicklable
        # and derived purely from the program, so checkpoints drop them and
        # __setstate__ re-derives via the program-memoised predecode pass.
        state = dict(self.__dict__)
        predecoded = state.pop("_kinds", None) is not None
        for key in ("_runs", "_eas", "_applies", "_latencies"):
            state.pop(key, None)
        state["_pickle_predecoded"] = predecoded
        return state

    def __setstate__(self, state) -> None:
        predecoded = state.pop("_pickle_predecoded")
        self.__dict__.update(state)
        self._bind_tables(predecoded)

    # ------------------------------------------------------------ lifecycle
    def activate(self, pc: int, arg: int, ts: int) -> None:
        assert self.state is not None, "bind a context before activating"
        super().activate(pc, arg, ts)
        self.state.pc = pc
        self.state.halted = False
        self.state.set_x(10, arg)  # a0

    def bind_context(self, state: ArchState) -> None:
        self.state = state

    # ---------------------------------------------------- batched stepping
    def advance(self, now: int, limit: int, stats) -> int:
        """Commit instruction after instruction over ``[now, limit)``;
        returns the cycles consumed, accounted into *stats*.

        Observationally ≡ the ``wait_state``/``skip``/``step`` sequence
        :meth:`CoreThread.step_many` would run over the same cycles, minus
        the Python frames: per-PC functions, L1-hit loads/stores inline, and
        the drain of a multi-cycle op accounted as the skip stretch it is
        (cut at *limit*, remainder left in ``_busy_until``).  *limit* is the
        first cycle the outside world could touch — turn budget, window
        edge, next queued InQ event — so every interaction lands on the
        same cycle as per-instruction stepping.  Returns early after
        issuing an L1 miss/upgrade (issue cycle charged, ``_pending`` set)
        and in front of anything only :meth:`step` handles: ecall, halt,
        AMO, a pc outside the text; 0 when that is the first thing here,
        or when a response or a blocking syscall is waiting to be finished.
        """
        if self._pending is not None or self._blocked:
            return 0
        state = self.state
        x = state.x
        f = state.f
        pc = state.pc
        kinds = self._kinds
        size = len(kinds)
        runs = self._runs
        eas = self._eas
        applies = self._applies
        latencies = self._latencies
        memory = self.memory
        l1d = self.l1d
        hit_latency = l1d.config.hit_latency
        tracker = self.word_tracker
        core_id = self.core_id
        rec = self._rec
        busy = self._busy_until
        committed = skipped = stretches = 0
        t = now
        while t < limit:
            index = (pc - TEXT_BASE) >> 3
            if pc & 7 or not 0 <= index < size:
                break
            kind = kinds[index]
            if kind <= K_JUMP:  # register-only: simple / branch / jump
                target = runs[index](x, f)
                pc = pc + INSTRUCTION_BYTES if target is None else target
                latency = latencies[index]
                if rec is not None:
                    rec.run(latency)
            elif kind <= K_STORE:  # load / store
                addr = eas[index](x)
                is_write = kind == K_STORE
                if rec is not None:
                    info = self._text[index].info
                    rec.mem(mem_acc(info), info.latency, addr)
                result = l1d.access(addr, is_write)
                if result is not AccessResult.HIT:
                    self._issue_miss(self._text[index], addr, is_write, result, t)
                    t += 1
                    break
                if is_write:
                    tracker.observe_store(addr, core_id, t)
                else:
                    tracker.observe_load(addr, core_id, t)
                applies[index](x, f, memory, addr)
                pc += INSTRUCTION_BYTES
                latency = latencies[index]
                if hit_latency > latency:
                    latency = hit_latency
            else:
                break
            committed += 1
            busy = t + latency - 1
            t += 1
            if t <= busy and t < limit:
                wait = (busy + 1 if busy < limit else limit) - t
                skipped += wait
                stretches += 1
                t += wait
        state.pc = pc
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
    def _fetch(self, pc: int) -> Instruction:
        index = (pc - TEXT_BASE) >> 3
        if not 0 <= index < len(self._text) or pc & 7:
            raise RuntimeError(f"core {self.core_id}: PC {pc:#x} outside text segment")
        return self._text[index]

    def _fetch_execute(self, now: int) -> tuple[int, bool]:
        assert self.state is not None
        state = self.state
        pc = state.pc
        kinds = self._kinds
        if kinds is not None:
            index = (pc - TEXT_BASE) >> 3
            if not 0 <= index < len(kinds) or pc & 7:
                self._fetch(pc)  # raises the canonical out-of-text error
            kind = kinds[index]
            if kind <= K_JUMP:  # register-only: simple / branch / jump
                target = self._runs[index](state.x, state.f)
                state.pc = pc + INSTRUCTION_BYTES if target is None else target
                self._busy_until = now + self._latencies[index] - 1
                self.committed += 1
                if self._rec is not None:
                    self._rec.run(self._latencies[index])
                return 1, True
            if kind == K_ECALL:
                return self._execute_syscall(now)
            if kind == K_HALT:
                state.halted = True
                self.phase = CorePhase.HALTED
                self.committed += 1
                if self._rec is not None:
                    self._rec.halt()
                return 1, True
            return self._execute_mem(self._text[index], now, self._eas[index](state.x))

        insn = self._fetch(pc)
        info = insn.info
        if info.is_load or info.is_store:
            return self._execute_mem(insn, now)

        outcome = execute(state, insn)  # register-only semantics
        if outcome.is_syscall:
            return self._execute_syscall(now)
        if outcome.is_halt:
            self.phase = CorePhase.HALTED
            self.committed += 1
            if self._rec is not None:
                self._rec.halt()
            return 1, True
        state.pc = state.pc + INSTRUCTION_BYTES if outcome.next_pc is NEXT else outcome.next_pc
        self._busy_until = now + info.latency - 1
        self.committed += 1
        if self._rec is not None:
            self._rec.run(info.latency)
        return 1, True

    def _execute_mem(self, insn: Instruction, now: int, addr: int | None = None) -> tuple[int, bool]:
        assert self.state is not None
        info = insn.info
        if addr is None:
            addr = effective_address(self.state, insn)
        if self._rec is not None:
            self._rec.mem(mem_acc(info), info.latency, addr)
        is_write = info.is_store  # AMOs count as writes for coherence
        result = self.l1d.access(addr, is_write)
        if result is AccessResult.HIT:
            self._retire_mem(insn, addr, now)
            self._busy_until = max(
                self._busy_until, now + max(self.l1d.config.hit_latency, info.latency) - 1
            )
            self.committed += 1
            return 1, True
        self._issue_miss(insn, addr, is_write, result, now)
        return 0, True  # the issue cycle itself is active work

    def _retire_mem(self, insn: Instruction, addr: int, now: int) -> None:
        """Touch the shared functional memory at simulated time *now*."""
        state = self.state
        assert state is not None
        tracker = self.word_tracker
        info = insn.info
        if info.is_amo:
            tracker.observe_load(addr, self.core_id, now)
            ff = tracker.observe_store(addr, self.core_id, now)
            if ff:
                self._busy_until = now + ff
            do_amo(state, insn, self.memory, addr)
        elif info.is_store:
            ff = tracker.observe_store(addr, self.core_id, now)
            if ff:
                self._busy_until = now + ff
            do_store(state, insn, self.memory, addr)
        else:
            tracker.observe_load(addr, self.core_id, now)
            do_load(state, insn, self.memory, addr)
        state.pc += INSTRUCTION_BYTES

    def _retire_syscall(self) -> None:
        self.state.pc += INSTRUCTION_BYTES

    def _execute_syscall(self, now: int) -> tuple[int, bool]:
        assert self.state is not None
        rec = self._rec
        if rec is not None:
            # Snapshot the argument registers before the emulation mutates
            # them (spawn writes the tid into a0); recorded post-call so the
            # resolved result (assigned tid/core) is available.
            x = self.state.x
            num, a0, a1, fa0 = x[17], x[10], x[11], self.state.f[10]
        result = self.system.syscall(self.core_id, self.state, now)
        if rec is not None:
            record_syscall(rec, num, a0, a1, fa0, self.system, self.state)
        if result.action is SysAction.EXIT:
            self.state.halted = True
        return self._finish_syscall(result, now)
