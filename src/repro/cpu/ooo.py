"""Out-of-order core model (the paper's NetBurst-like configuration:
4-wide, 64 in-flight instructions, non-blocking L1 with MSHRs, branch
prediction).

Modeling approach — *architectural execution with a dataflow timing
overlay*:

* instructions execute **functionally in program order at dispatch** (this
  gives oracle-path fetch; mispredictions charge a fetch-bubble penalty when
  the predictor disagrees with the actual outcome);
* **timing** is an out-of-order dataflow overlay: a 64-entry ROB tracks
  register dependencies through a last-writer table, instructions "execute"
  on their unit when their producers complete, loads issue to the
  non-blocking L1 (MSHR-limited) or forward from older in-flight stores, and
  up to 4 instructions commit per cycle in order;
* **shared-memory moments** follow the slack semantics that matter to the
  paper: store values sit in a store buffer and reach the shared functional
  memory only at *commit* (their timed moment); loads read memory at
  dispatch through the store buffer.  Relative to the paper's
  exec-at-execution-unit rule this reads racy loads a few cycles early —
  a documented deviation (DESIGN.md §2) that only affects data races, whose
  value under slack is undefined anyway.
* syscalls and AMOs serialise the pipeline (dispatch waits for an empty
  ROB), which makes them equivalent to committing in order.

The overlay is *scheduled, not scanned* (DESIGN.md §5, "OoO scoreboard"):
an entry counts its unfinished producers (``pending``) and each in-flight
producer lists its ``consumers``; issued entries wait in a heap keyed
``(done_at, seq)``; the completion pass pops what is due, wakes the
consumers that reach zero into a ``seq``-ordered ready list, and only then
does the issue pass walk that list oldest-first.  ``advance`` runs whole
stretches of cycles on top of ``step``; the scan-based model this replaced
is the test oracle ``tests/cpu/ooo_reference.py``.
"""

from __future__ import annotations

import struct
from bisect import insort
from collections import deque
from heapq import heappop, heappush
from typing import Callable

from repro.core.events import EvKind, Event
from repro.cpu.arch import ArchState, TargetMemory
from repro.cpu.branch import GsharePredictor
from repro.cpu.funcsim import NEXT, do_amo, effective_address, execute
from repro.cpu.interfaces import CorePhase
from repro.cpu.l1cache import AccessResult, L1Cache
from repro.cpu.predecode import (
    K_AMO,
    K_BRANCH,
    K_ECALL,
    K_HALT,
    K_JUMP,
    K_LOAD,
    K_SIMPLE,
    K_STORE,
    dispatch_plan,
    predecode_program,
)
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import Op
from repro.isa.program import TEXT_BASE, Program
from repro.sysapi.system import SysAction, SystemEmulation
from repro.violations.detect import WordOrderTracker

__all__ = ["OoOCore"]

_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")

# What ``_issue_load`` did with a ready load.
_RETRY = 0   # refused (MSHR file full): stays ready, takes no issue slot
_ISSUED = 1  # took an issue slot and left the ready list
_PARKED = 2  # waits on its forwarding store's data: left the list, no slot

_FAR = 1 << 62
_ACTIVE = CorePhase.ACTIVE
# The dispatch loop singles out the rare kinds with one comparison.
assert min(K_AMO, K_ECALL, K_HALT) > max(K_SIMPLE, K_BRANCH, K_JUMP, K_LOAD, K_STORE)


class _RobEntry:
    #: Everything but ``consumers`` travels in an entry's own pickle; the
    #: owning core writes those links as ROB positions, so pickling an entry
    #: never reaches another one (depth independent of ``ooo_rob``).
    _FLAT = (
        "seq", "latency", "slot", "done", "pending",
        "is_load", "is_store", "addr", "block", "store_value", "store_is_float",
        "waiting_mem",
    )
    __slots__ = _FLAT + ("consumers",)

    def __init__(self, seq: int, latency: int, slot: int) -> None:
        self.seq = seq
        self.latency = latency
        self.slot = slot            # last-writer slot of the destination, or -1
        self.done = False           # result available, awaiting commit
        self.pending = 0            # producers (or forwarding store) not done yet
        self.consumers: list[_RobEntry] = []  # woken when this entry completes
        self.is_load = False
        self.is_store = False
        self.addr = -1
        self.block = -1
        self.store_value: int | float | None = None
        self.store_is_float = False
        self.waiting_mem = False    # store blocked at commit on a miss

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self._FLAT)

    def __setstate__(self, state) -> None:
        for name, value in zip(self._FLAT, state):
            setattr(self, name, value)
        self.consumers = []


class OoOCore:
    """One NetBurst-like out-of-order target core."""

    #: Target cycles per engine turn at most (after the scheme's grant and
    #: the fault wrappers): the turn structure, and so every host-model call,
    #: the per-cycle model was calibrated with (DESIGN.md §5).
    TURN_CHUNK = 8

    def __init__(
        self,
        core_id: int,
        program: Program,
        memory: TargetMemory,
        l1d: L1Cache,
        emit: Callable[[Event], None],
        system: SystemEmulation,
        *,
        width: int = 4,
        rob_size: int = 64,
        mshrs: int = 8,
        mispredict_penalty: int = 8,
        word_tracker: WordOrderTracker,
        dispatch: str = "predecoded",
    ) -> None:
        if dispatch not in ("predecoded", "oracle"):
            raise ValueError(f"unknown dispatch mode {dispatch!r}")
        self.core_id = core_id
        self.program = program
        self.memory = memory
        self.l1d = l1d
        self.emit = emit
        self.system = system
        self.width = width
        self.rob_size = rob_size
        self.mshr_limit = mshrs
        self.predictor = GsharePredictor()
        self.mispredict_penalty = mispredict_penalty
        self.word_tracker = word_tracker

        self.state: ArchState | None = None
        self.phase = CorePhase.IDLE
        self.committed = 0
        self.stall_cycles = 0
        self.mispredicts = 0
        self.pending_wakes: list[tuple[int, int]] = []

        self._text = program.text
        self._bind_tables(dispatch == "predecoded")
        self._rob: deque[_RobEntry] = deque()
        self._seq = 0
        #: Youngest in-flight writer per register: x0-31, then f0-31.
        self._last_writer: list[_RobEntry | None] = [None] * 64
        #: Issued entries with a known completion: (done_at, seq, entry) heap.
        self._completing: list[tuple[int, int, _RobEntry]] = []
        #: Entries whose producers are all done: (seq, entry), oldest first.
        self._ready: list[tuple[int, _RobEntry]] = []
        self._fetch_stall_until = -1
        self._store_buffer: deque[_RobEntry] = deque()  # program order
        self._mshrs: dict[int, list[_RobEntry]] = {}  # block -> waiting loads
        self._pending_store: _RobEntry | None = None  # store blocked at commit
        self._blocked = False
        self._release_ts: int | None = None
        self._halt_pending = False
        self._draining = False  # a serialising instruction waits for the ROB

    def _bind_tables(self, predecoded: bool) -> None:
        """Per-PC tables: functions for the architectural backbone, address
        functions and the dispatch plan.  ``dispatch="oracle"`` has none —
        it interprets through funcsim and derives each plan on the fly."""
        pre = predecode_program(self.program) if predecoded else None
        self._runs: list | None = pre and pre.runs
        self._eas: list | None = pre and pre.eas
        self._plans: list | None = pre and pre.plans

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        # As in InOrderCore: the predecoded per-PC tables are dropped and
        # re-derived from the (pickled) program on restore.  Producer ->
        # consumer links are written as ROB positions (see _RobEntry).
        state = dict(self.__dict__)
        state["_pickle_predecoded"] = state.pop("_runs") is not None
        del state["_eas"], state["_plans"]
        rob = self._rob
        head = rob[0].seq if rob else 0
        state["_pickle_consumers"] = [
            [consumer.seq - head for consumer in producer.consumers] for producer in rob
        ]
        return state

    def __setstate__(self, state) -> None:
        predecoded = state.pop("_pickle_predecoded")
        consumers = state.pop("_pickle_consumers")
        self.__dict__.update(state)
        self._bind_tables(predecoded)
        rob = list(self._rob)
        for entry, positions in zip(rob, consumers):
            entry.consumers = [rob[i] for i in positions]

    # ------------------------------------------------------------ lifecycle
    def bind_context(self, state: ArchState) -> None:
        self.state = state

    def activate(self, pc: int, arg: int, ts: int) -> None:
        if self.phase not in (CorePhase.IDLE, CorePhase.HALTED):
            raise RuntimeError(f"core {self.core_id} activated while {self.phase}")
        assert self.state is not None
        if self._rob or self._blocked or self._mshrs:
            raise RuntimeError(f"core {self.core_id} reactivated with in-flight state")
        self.state.pc = pc
        self.state.halted = False
        self.state.set_x(10, arg)
        self._fetch_stall_until = -1
        self._halt_pending = False
        self.phase = CorePhase.ACTIVE

    # ------------------------------------------------------------- delivery
    def deliver_response(self, event: Event) -> None:
        block = event.addr
        victim = self.l1d.fill(block, event.grant)
        if victim is not None:
            self.emit(Event(EvKind.PUTM, victim, self.core_id, event.ts))
        for entry in self._mshrs.pop(block, ()):
            # Data arrives at the response timestamp: the load completes in
            # the completion pass of the cycle that routed the event.
            heappush(self._completing, (event.ts, entry.seq, entry))
        if self._pending_store is not None and self._pending_store.block == block:
            self._pending_store.waiting_mem = False

    def apply_invalidation(self, addr: int) -> None:
        self.l1d.invalidate(addr)

    def apply_downgrade(self, addr: int) -> None:
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
        return self._blocked

    def wait_state(self, now: int) -> None:
        """Never a ``skip`` stretch: every OoO cycle is charged active or
        idle at full host cost, through ``step``/``advance``."""
        return None

    def stall_hint(self, now: int) -> int | None:
        if self._blocked and self._release_ts is not None and self._release_ts > now:
            return self._release_ts
        return None

    # ----------------------------------------------------------------- step
    def step(self, now: int) -> tuple[int, bool]:
        if self.phase is not _ACTIVE:
            if not self._blocked:  # idle or halted
                return 0, False
            if self._release_ts is not None and now >= self._release_ts:
                return self._finish_blocking_syscall(now)
            self.stall_cycles += 1
            return 0, True
        # Each stage sits behind an O(1) "anything to do" test.
        before = self.committed
        rob = self._rob
        if rob and rob[0].done:
            self._commit(now)
        completing = self._completing
        if self._ready or (completing and completing[0][0] <= now):
            self._complete_and_issue(now)
        dispatched = 0
        if (
            now >= self._fetch_stall_until
            and not self._halt_pending
            and len(rob) < self.rob_size
            and not (rob and self._draining)
        ):
            dispatched = self._dispatch(now)
        committed = self.committed - before
        if self._halt_pending and not rob:
            self.phase = CorePhase.HALTED
        if committed or dispatched:
            return committed, True
        self.stall_cycles += 1
        return 0, self._stall_is_active()

    def _stall_is_active(self) -> bool:
        """A stall cycle with work in the ROB is full-cost unless the core
        waits purely on memory responses (cheap)."""
        store = self._pending_store
        return bool(self._rob) and not (
            self._mshrs or (store is not None and store.waiting_mem)
        )

    def advance(self, now: int, limit: int, stats) -> int:
        """Run the cycles of ``[now, limit)`` exactly as that many ``step``
        calls plus the caller's ``stall_hint`` jumps would, fold them into
        *stats* (``cycles``/``active_cycles``/``idle_cycles``/``committed``)
        and return how many ran.  The caller guarantees nothing reaches the
        InQ before *limit*.  Returns early after the cycle that halts the
        core or leaves ``pending_wakes``.

        What is *not* stepped: a blocked core's spin (``stall_cycles`` counts
        stepped cycles only — with a known release that is one spin cycle,
        then an uncounted jump; with none yet, every cycle), and pure-wait
        stretches in which no stage can act before the next completion or
        the end of a fetch stall.  A full MSHR file (the refused load has
        already touched the L1) and an AMO waiting for its fill (it
        re-accesses the L1 every cycle) keep an entry ready / the fetch stall
        one cycle out, so those stretches are stepped.
        """
        t = now
        committed = active = 0
        rob = self._rob
        completing = self._completing
        while t < limit:
            if (
                self.phase is _ACTIVE
                and not self._ready
                and not (rob and rob[0].done and not rob[0].waiting_mem)
                and (not completing or completing[0][0] > t)
            ):
                # Nothing to commit, complete or issue.  Dispatch waits for a
                # commit (pending halt, full ROB, serialising instruction) or
                # for the end of a fetch stall; if that is ahead too, every
                # cycle up to it or to the next completion is the same stall
                # cycle.
                if self._halt_pending or len(rob) >= self.rob_size or (rob and self._draining):
                    until = _FAR
                else:
                    until = self._fetch_stall_until
                if until > t:
                    if completing and completing[0][0] < until:
                        until = completing[0][0]
                    n = min(until, limit) - t
                    self.stall_cycles += n
                    if self._stall_is_active():
                        active += n
                    t += n
                    continue
            c, a = self.step(t)
            committed += c
            active += a
            t += 1
            if self.phase is CorePhase.HALTED:
                break
            if self._blocked:
                release = self._release_ts
                if release is None:
                    # Only the engine can arm the release, after this turn.
                    n = limit - t
                    self.stall_cycles += n
                else:
                    n = max(min(release, limit) - t, 0)
                active += n
                t += n
            if self.pending_wakes:
                break
        n = t - now
        stats.cycles += n
        stats.active_cycles += active
        stats.idle_cycles += n - active
        stats.committed += committed
        return n

    # --------------------------------------------------------------- commit
    def _commit(self, now: int) -> None:
        rob = self._rob
        last_writer = self._last_writer
        room = self.width
        while rob and room:
            entry = rob[0]
            if not entry.done or (entry.is_store and not self._commit_store(entry, now)):
                break
            rob.popleft()
            slot = entry.slot
            if slot >= 0 and last_writer[slot] is entry:
                last_writer[slot] = None
            room -= 1
        self.committed += self.width - room

    def _commit_store(self, entry: _RobEntry, now: int) -> bool:
        """Perform the store's memory moment; False if blocked on a miss."""
        if entry.waiting_mem:
            return False
        if self._pending_store is entry:
            # Response arrived: retry the access below.
            self._pending_store = None
        result = self.l1d.access(entry.addr, True)
        if result is not AccessResult.HIT:
            kind = EvKind.UPGRADE if result is AccessResult.UPGRADE else EvKind.GETX
            self.emit(Event(kind, entry.block, self.core_id, now))
            entry.waiting_mem = True
            self._pending_store = entry
            return False
        # Memory write moment (isochrone): commit time.
        ff = self.word_tracker.observe_store(entry.addr, self.core_id, now)
        if ff:
            self._fetch_stall_until = max(self._fetch_stall_until, now + ff)
        if entry.store_is_float:
            self.memory.store_float(entry.addr, entry.store_value)
        else:
            self.memory.store_word(entry.addr, entry.store_value)
        assert self._store_buffer[0] is entry
        self._store_buffer.popleft()
        return True

    # ------------------------------------------------------ execute / issue
    def _complete_and_issue(self, now: int) -> None:
        completing = self._completing
        ready = self._ready
        # Completion first: a producer finishing at ``now`` lets its
        # consumers issue at ``now``.
        while completing and completing[0][0] <= now:
            entry = heappop(completing)[2]
            entry.done = True
            for consumer in entry.consumers:
                consumer.pending -= 1
                if not consumer.pending:
                    insort(ready, (consumer.seq, consumer))
        slots = self.width
        i = 0
        while i < len(ready) and slots:
            entry = ready[i][1]
            if entry.is_load:
                outcome = self._issue_load(entry, now)
                if outcome == _RETRY:
                    i += 1
                    continue
                del ready[i]
                if outcome == _PARKED:
                    continue
            else:
                del ready[i]
                heappush(completing, (now + entry.latency, entry.seq, entry))
            slots -= 1

    def _issue_load(self, entry: _RobEntry, now: int) -> int:
        # Store-to-load forwarding from the youngest older store to this addr.
        seq = entry.seq
        addr = entry.addr
        for store in reversed(self._store_buffer):
            if store.seq < seq and store.addr == addr:
                if store.done:
                    heappush(self._completing, (now + 1, seq, entry))
                    return _ISSUED
                # Wait for the store's data as one more consumer: it
                # completes in the pass that precedes an issue pass, so the
                # load forwards in the cycle a per-cycle retry would succeed.
                store.consumers.append(entry)
                entry.pending = 1
                return _PARKED
        mshrs = self._mshrs
        waiters = mshrs.get(entry.block)
        if waiters is not None:
            waiters.append(entry)  # parked on the MSHR until the response
            return _ISSUED
        result = self.l1d.access(addr, False)
        if result is AccessResult.HIT:
            heappush(self._completing, (now + self.l1d.config.hit_latency, seq, entry))
            return _ISSUED
        if len(mshrs) >= self.mshr_limit:
            return _RETRY  # structural stall: retry next cycle
        self.emit(Event(EvKind.GETS, entry.block, self.core_id, now))
        mshrs[entry.block] = [entry]
        return _ISSUED

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, now: int) -> int:
        """Dispatch up to ``width`` instructions in program order.  The
        caller has checked the fetch stall, the pending halt and ROB room."""
        state = self.state
        assert state is not None
        x = state.x
        f = state.f
        text = self._text
        plans = self._plans
        runs = self._runs
        eas = self._eas
        rob = self._rob
        last_writer = self._last_writer
        ready = self._ready
        room = min(self.width, self.rob_size - len(rob))
        seq = self._seq
        dispatched = 0
        while dispatched < room:
            pc = state.pc
            index = (pc - TEXT_BASE) >> 3
            if not 0 <= index < len(text) or pc & 7:
                raise RuntimeError(f"core {self.core_id}: PC {pc:#x} outside text segment")
            insn = text[index]
            kind, latency, reads, slot = (
                plans[index] if plans is not None else dispatch_plan(insn)
            )
            if kind >= K_AMO:  # K_AMO, K_ECALL or K_HALT
                if kind == K_HALT:
                    # Born done, never woken: it only has to reach the ROB head.
                    state.halted = True
                    self._halt_pending = True
                    entry = _RobEntry(seq, latency, slot)
                    seq += 1
                    entry.done = True
                    rob.append(entry)
                    dispatched += 1
                else:
                    # Serialise: wait for an empty ROB (the flag spares the
                    # cycles in between this fetch).
                    self._draining = bool(rob)
                    if not rob:
                        dispatched += self._dispatch_serialised(insn, kind, now)
                break
            entry = _RobEntry(seq, latency, slot)
            seq += 1
            # Timing dependencies via the last-writer table.
            pending = 0
            for read in reads:
                writer = last_writer[read]
                if writer is not None and not writer.done:
                    writer.consumers.append(entry)
                    pending += 1
            # Architectural (functional) execution, in program order.
            end_group = False
            if kind == K_LOAD or kind == K_STORE:
                addr = eas[index](x) if eas is not None else effective_address(state, insn)
                entry.addr = addr
                entry.block = self.l1d.block_addr(addr)
                if kind == K_LOAD:
                    entry.is_load = True
                    self._functional_load(addr, slot, now)
                else:
                    entry.is_store = True
                    if insn.op is Op.FSD:
                        entry.store_is_float = True
                        entry.store_value = f[insn.rs2]
                    else:
                        entry.store_value = x[insn.rs2]
                    self._store_buffer.append(entry)
                state.pc = pc + INSTRUCTION_BYTES
            else:
                if runs is not None:
                    target = runs[index](x, f)
                else:
                    target = execute(state, insn).next_pc
                    if target is NEXT:
                        target = None
                if kind == K_SIMPLE:
                    state.pc = pc + INSTRUCTION_BYTES
                else:
                    taken = target is not None
                    if kind == K_BRANCH:
                        predicted = self.predictor.predict(pc, insn.imm)
                        self.predictor.update(pc, taken, predicted)
                    else:
                        predicted = True  # jal/jalr: always predicted taken
                    state.pc = target if taken else pc + INSTRUCTION_BYTES
                    if predicted != taken:
                        self.mispredicts += 1
                        self._fetch_stall_until = now + self.mispredict_penalty
                        # A zero penalty leaves no fetch bubble.
                        end_group = self._fetch_stall_until > now
                    else:
                        # Correctly-predicted taken branch: one
                        # fetch-redirect bubble ends the dispatch group.
                        end_group = taken
            if slot >= 0:
                last_writer[slot] = entry
            if pending:
                entry.pending = pending
            else:
                ready.append((entry.seq, entry))  # youngest: stays sorted
            rob.append(entry)
            dispatched += 1
            if end_group:
                break
        self._seq = seq
        return dispatched

    def _functional_load(self, addr: int, slot: int, now: int) -> None:
        """Architectural load at dispatch, seeing in-flight older stores.
        *slot* is the destination's last-writer slot (f registers from 32,
        -1 for x0, whose access still happens)."""
        state = self.state
        self.word_tracker.observe_load(addr, self.core_id, now)
        to_float = slot >= 32
        for store in reversed(self._store_buffer):
            if store.addr == addr:
                value = store.store_value
                if store.store_is_float != to_float:
                    # Reinterpret the forwarded bits, as memory would.
                    if to_float:
                        value = _F64.unpack(_I64.pack(value))[0]
                    else:
                        value = _I64.unpack(_F64.pack(value))[0]
                break
        else:
            value = self.memory.load_float(addr) if to_float else self.memory.load_word(addr)
        if to_float:
            state.f[slot - 32] = value
        elif slot > 0:
            state.x[slot] = value

    # ----------------------------------------------------------- serialised
    def _dispatch_serialised(self, insn: Instruction, kind: int, now: int) -> int:
        """AMOs and syscalls: ROB is empty, handle like an in-order core."""
        assert self.state is not None
        state = self.state
        if kind == K_AMO:
            if self._eas is not None:
                addr = self._eas[(state.pc - TEXT_BASE) >> 3](state.x)
            else:
                addr = effective_address(state, insn)
            result = self.l1d.access(addr, True)
            if result is not AccessResult.HIT:
                block = self.l1d.block_addr(addr)
                kind = EvKind.UPGRADE if result is AccessResult.UPGRADE else EvKind.GETX
                if block not in self._mshrs:
                    self.emit(Event(kind, block, self.core_id, now))
                    self._mshrs[block] = []  # retry dispatch after the fill
                self._fetch_stall_until = now + 1
                return 0
            self.word_tracker.observe_load(addr, self.core_id, now)
            ff = self.word_tracker.observe_store(addr, self.core_id, now)
            if ff:
                self._fetch_stall_until = max(self._fetch_stall_until, now + ff)
            do_amo(state, insn, self.memory, addr)
            state.pc += INSTRUCTION_BYTES
            self.committed += 1
            self._fetch_stall_until = now + self.l1d.config.hit_latency
            return 1
        # ECALL
        result = self.system.syscall(self.core_id, state, now)
        if result.wakes:
            self.pending_wakes.extend(result.wakes)
        if result.action is SysAction.EXIT:
            self.phase = CorePhase.HALTED
            state.halted = True
            self.committed += 1
            return 1
        if result.action is SysAction.BLOCK:
            # Do not reset _release_ts: the wake may already have arrived
            # (cores on real threads); it is cleared on consumption.
            self._blocked = True
            self.phase = CorePhase.STALLED
            return 0
        state.pc += INSTRUCTION_BYTES
        self._fetch_stall_until = now + result.cost
        self.committed += 1
        return 1

    def _finish_blocking_syscall(self, now: int) -> tuple[int, bool]:
        assert self.state is not None
        self._blocked = False
        self._release_ts = None
        self.state.pc += INSTRUCTION_BYTES
        self.phase = CorePhase.ACTIVE
        self.committed += 1
        return 1, True
