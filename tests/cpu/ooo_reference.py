"""The scan-based out-of-order core: ``repro.cpu.ooo``'s differential oracle.

This is the model ``src/repro/cpu/ooo.py`` held until the event-driven
scoreboard replaced it, unchanged in behaviour: every cycle walks the ROB
twice (complete, then issue), re-evaluates each waiting entry's ``deps`` and
is stepped one Python call at a time (no ``advance``).
``tests/cpu/test_ooo_differential.py`` runs it against the shipped core.  The
edits are mechanical: the last-writer key tables ``PredecodedProgram`` no
longer carries are built here (``_key_tables``), and the core carries the two
turn-loop members every model answers (``TURN_CHUNK``, and a ``wait_state``
that is always ``None``).

Out-of-order core model (the paper's NetBurst-like configuration:
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
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.cpu.arch import ArchState, TargetMemory
from repro.cpu.branch import GsharePredictor
from repro.cpu.funcsim import NEXT, do_amo, effective_address, execute
from repro.cpu.interfaces import CorePhase
from repro.cpu.l1cache import AccessResult, L1Cache
from repro.cpu.predecode import predecode_program
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import Op
from repro.isa.program import TEXT_BASE, Program
from repro.mem.directory import EvKind, Event
from repro.sysapi.system import SysAction, SystemEmulation
from repro.violations.detect import WordOrderTracker

__all__ = ["OoOCore"]


def _key_tables(program: Program) -> tuple[list, list]:
    """Per-index last-writer keys: ``read_keys[i]`` in oracle scan order
    (x reads then f reads, duplicates preserved, x0 dropped — its write is
    never registered), ``write_keys[i]`` the destination's key or None."""
    read_keys: list = []
    write_keys: list = []
    for insn in program.text:
        info = insn.info
        keys = [("x", reg) for field in info.reads_int if (reg := getattr(insn, field))]
        keys += [("f", getattr(insn, field)) for field in info.reads_float]
        read_keys.append(tuple(keys))
        if info.writes_int:
            write_keys.append(("x", insn.rd) if insn.rd else None)
        elif info.writes_float:
            write_keys.append(("f", insn.rd))
        else:
            write_keys.append(None)
    return read_keys, write_keys


# Entry states.
_WAITING = 0    # operands not ready
_READY = 1      # may issue
_EXECUTING = 2  # on a unit until done_at
_DONE = 3       # result available, awaiting commit


class _RobEntry:
    __slots__ = (
        "insn", "seq", "state", "done_at", "deps",
        "is_load", "is_store", "addr", "block", "store_value", "store_is_float",
        "waiting_mem", "forwarded_from",
    )

    def __init__(self, insn: Instruction, seq: int) -> None:
        self.insn = insn
        self.seq = seq
        self.state = _WAITING
        self.done_at = -1
        self.deps: list[_RobEntry] = []
        self.is_load = False
        self.is_store = False
        self.addr = -1
        self.block = -1
        self.store_value: int | float | None = None
        self.store_is_float = False
        self.waiting_mem = False
        self.forwarded_from: "_RobEntry | None" = None


class OoOCore:
    """One NetBurst-like out-of-order target core."""

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
        # Predecoded closure tables: the architectural backbone executes via
        # specialized closures; the dataflow timing overlay is unchanged.
        if dispatch == "predecoded":
            pre = predecode_program(program)
            self._runs: list | None = pre.runs
            self._eas: list | None = pre.eas
            # Dispatch-plan tables: per-index last-writer keys precomputed
            # once per program, so the per-dispatch dependency scan walks a
            # ready-made tuple instead of an OPINFO getattr chain.
            self._read_keys, self._write_keys = _key_tables(program)
        elif dispatch == "oracle":
            self._runs = None
            self._eas = None
            self._read_keys = None
            self._write_keys = None
        else:
            raise ValueError(f"unknown dispatch mode {dispatch!r}")
        self._rob: deque[_RobEntry] = deque()
        self._seq = 0
        self._last_writer: dict[tuple[str, int], _RobEntry] = {}
        self._fetch_stall_until = -1
        self._store_buffer: list[_RobEntry] = []  # program order
        self._mshrs: dict[int, list[_RobEntry]] = {}  # block -> waiting loads
        self._pending_store: _RobEntry | None = None  # store blocked at commit
        self._blocked = False
        self._release_ts: int | None = None
        self._halt_pending = False

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        # As in InOrderCore: the predecoded per-PC closures are dropped and
        # re-derived from the (pickled) program on restore.
        state = dict(self.__dict__)
        predecoded = state.pop("_runs", None) is not None
        state.pop("_eas", None)
        state.pop("_read_keys", None)
        state.pop("_write_keys", None)
        state["_pickle_predecoded"] = predecoded
        return state

    def __setstate__(self, state) -> None:
        predecoded = state.pop("_pickle_predecoded")
        self.__dict__.update(state)
        if predecoded:
            pre = predecode_program(self.program)
            self._runs = pre.runs
            self._eas = pre.eas
            self._read_keys, self._write_keys = _key_tables(self.program)
        else:
            self._runs = None
            self._eas = None
            self._read_keys = None
            self._write_keys = None

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
        waiters = self._mshrs.pop(block, [])
        for entry in waiters:
            entry.waiting_mem = False
            # Data arrives at the response timestamp; completion next cycle.
            entry.state = _EXECUTING
            entry.done_at = event.ts
        if self._pending_store is not None and self._pending_store.block == block:
            self._pending_store.waiting_mem = False

    def apply_invalidation(self, addr: int) -> None:
        self.l1d.invalidate(addr)

    def apply_downgrade(self, addr: int) -> None:
        self.l1d.downgrade(addr)

    def release(self, release_ts: int) -> None:
        """Arm the wake-up for a BLOCK-ed syscall.

        May legitimately arrive *before* this core observes the BLOCK result
        in the threaded engine (the releaser runs concurrently); the value is
        consumed exactly once when the blocking syscall finishes.
        """
        self._release_ts = release_ts

    @property
    def spinning(self) -> bool:
        return self._blocked

    def wait_state(self, now: int) -> None:
        return None

    def stall_hint(self, now: int) -> int | None:
        if self._blocked and self._release_ts is not None and self._release_ts > now:
            return self._release_ts
        return None

    # ----------------------------------------------------------------- step
    def step(self, now: int) -> tuple[int, bool]:
        if self.phase in (CorePhase.IDLE, CorePhase.HALTED):
            return 0, False
        if self._blocked:
            if self._release_ts is not None and now >= self._release_ts:
                return self._finish_blocking_syscall(now)
            self.stall_cycles += 1
            return 0, True
        before = self.committed
        self._commit(now)
        self._complete_and_issue(now)
        dispatched = self._dispatch(now)
        committed = self.committed - before
        if self._halt_pending and not self._rob:
            self.phase = CorePhase.HALTED
        active = bool(committed or dispatched or self._rob)
        if not committed and not dispatched:
            self.stall_cycles += 1
            # Waiting purely on memory responses: cheap stall cycle.
            if self._mshrs or (self._pending_store is not None and self._pending_store.waiting_mem):
                active = False
        return committed, active

    cycle = step  # ``wait_state`` is always None

    # --------------------------------------------------------------- commit
    def _commit(self, now: int) -> int:
        committed = 0
        while self._rob and committed < self.width:
            entry = self._rob[0]
            if entry.state is not _DONE or entry.done_at > now:
                break
            if entry.is_store:
                if not self._commit_store(entry, now):
                    break
            self._rob.popleft()
            key_candidates = [k for k, v in self._last_writer.items() if v is entry]
            for k in key_candidates:
                del self._last_writer[k]
            committed += 1
            self.committed += 1
        return committed

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
            self.memory.store_float(entry.addr, float(entry.store_value))
        else:
            self.memory.store_word(entry.addr, int(entry.store_value))
        assert self._store_buffer and self._store_buffer[0] is entry
        self._store_buffer.pop(0)
        return True

    # ------------------------------------------------------ execute / issue
    def _complete_and_issue(self, now: int) -> None:
        issued = 0
        for entry in self._rob:
            if entry.state is _EXECUTING and entry.done_at <= now:
                entry.state = _DONE
        for entry in self._rob:
            if issued >= self.width:
                break
            if entry.state is not _WAITING:
                continue
            if any(dep.state is not _DONE or dep.done_at > now for dep in entry.deps):
                continue
            if entry.is_load:
                if not self._issue_load(entry, now):
                    continue
                issued += 1
            else:
                entry.state = _EXECUTING
                entry.done_at = now + entry.insn.latency
                issued += 1

    def _issue_load(self, entry: _RobEntry, now: int) -> bool:
        # Store-to-load forwarding from the youngest older store to this addr.
        for store in reversed(self._store_buffer):
            if store.seq < entry.seq and store.addr == entry.addr:
                if store.state is _DONE or (store.state is _EXECUTING and store.done_at <= now):
                    entry.state = _EXECUTING
                    entry.done_at = now + 1
                    entry.forwarded_from = store
                    return True
                return False  # wait for the store's data
        if entry.block in self._mshrs:
            self._mshrs[entry.block].append(entry)
            entry.state = _EXECUTING  # parked on the MSHR
            entry.done_at = 1 << 60
            entry.waiting_mem = True
            return True
        result = self.l1d.access(entry.addr, False)
        if result is AccessResult.HIT:
            entry.state = _EXECUTING
            entry.done_at = now + self.l1d.config.hit_latency
            return True
        if len(self._mshrs) >= self.mshr_limit:
            return False  # structural stall: retry next cycle
        self.emit(Event(EvKind.GETS, entry.block, self.core_id, now))
        self._mshrs[entry.block] = [entry]
        entry.state = _EXECUTING
        entry.done_at = 1 << 60
        entry.waiting_mem = True
        return True

    # -------------------------------------------------------------- dispatch
    def _fetch(self, pc: int) -> Instruction:
        index = (pc - TEXT_BASE) >> 3
        if not 0 <= index < len(self._text) or pc & 7:
            raise RuntimeError(f"core {self.core_id}: PC {pc:#x} outside text segment")
        return self._text[index]

    def _dispatch(self, now: int) -> int:
        assert self.state is not None
        if now < self._fetch_stall_until or self._halt_pending:
            return 0
        state = self.state
        runs = self._runs
        read_keys = self._read_keys
        write_keys = self._write_keys
        last_writer = self._last_writer
        index = -1
        dispatched = 0
        while dispatched < self.width and len(self._rob) < self.rob_size:
            insn = self._fetch(state.pc)
            info = insn.info
            if info.is_amo or insn.op is Op.ECALL:
                if self._rob:
                    break  # serialise: wait for an empty ROB
                handled = self._dispatch_serialised(insn, now)
                dispatched += handled
                break
            entry = _RobEntry(insn, self._seq)
            self._seq += 1
            # Timing dependencies via the last-writer table: the predecoded
            # dispatch plan walks ready-made key tuples; the oracle path
            # scans the OPINFO read fields.  Both visit the same keys in the
            # same order (x reads then f reads, duplicates preserved).
            if runs is not None:
                index = (state.pc - TEXT_BASE) >> 3
                for key in read_keys[index]:
                    writer = last_writer.get(key)
                    if writer is not None:
                        entry.deps.append(writer)
                wkey = write_keys[index]
            else:
                for reg_kind, fields in (("x", info.reads_int), ("f", info.reads_float)):
                    for field in fields:
                        reg = getattr(insn, field)
                        writer = last_writer.get((reg_kind, reg))
                        if writer is not None:
                            entry.deps.append(writer)
                if info.writes_int:
                    wkey = ("x", insn.rd) if insn.rd else None
                elif info.writes_float:
                    wkey = ("f", insn.rd)
                else:
                    wkey = None
            if info.is_load or info.is_store:
                if runs is not None:
                    entry.addr = self._eas[index](state.x)
                else:
                    entry.addr = effective_address(state, insn)
                entry.block = self.l1d.block_addr(entry.addr)
                entry.is_load = info.is_load
                entry.is_store = info.is_store

            # Architectural (functional) execution, in program order.  The
            # predecoded path synthesises the oracle's (is_halt, taken,
            # target) triple from the closure's return value.
            if entry.is_load:
                self._functional_load(insn, entry.addr, now)
            elif entry.is_store:
                entry.store_is_float = insn.op is Op.FSD
                entry.store_value = (
                    state.f[insn.rs2] if entry.store_is_float else state.x[insn.rs2]
                )
                self._store_buffer.append(entry)
            executed = False
            is_halt = taken = False
            target: int | None = None
            if not entry.is_load and not entry.is_store:
                executed = True
                if runs is not None:
                    run = runs[index]
                    if run is None:  # halt (ecall/AMO serialised earlier)
                        state.halted = True
                        is_halt = True
                    else:
                        target = run(state.x, state.f)
                        taken = target is not None
                else:
                    outcome = execute(state, insn)
                    is_halt = outcome.is_halt
                    taken = outcome.taken
                    target = outcome.next_pc if outcome.next_pc is not NEXT else None
                if is_halt:
                    self._halt_pending = True
                    entry.state = _DONE
                    entry.done_at = now
                    self._rob.append(entry)
                    dispatched += 1
                    break
            if entry.is_load or entry.is_store:
                state.pc += INSTRUCTION_BYTES
            elif executed and info.is_branch:
                branch_pc = state.pc
                if insn.op in (Op.JAL, Op.JALR):
                    predicted = True  # unconditional: always predicted taken
                else:
                    predicted = self.predictor.predict(branch_pc, insn.imm)
                    self.predictor.update(branch_pc, taken, predicted)
                state.pc = target if taken else state.pc + INSTRUCTION_BYTES
                if predicted != taken:
                    self.mispredicts += 1
                    self._fetch_stall_until = now + self.mispredict_penalty
                elif taken:
                    # Correctly-predicted taken branch: one fetch-redirect
                    # bubble ends this cycle's dispatch group.
                    self._rob.append(entry)
                    dispatched += 1
                    if wkey is not None:
                        last_writer[wkey] = entry
                    break
            elif executed:
                state.pc = state.pc + INSTRUCTION_BYTES if target is None else target
            # Register the destination for dependents.
            if wkey is not None:
                last_writer[wkey] = entry
            self._rob.append(entry)
            dispatched += 1
            if info.is_branch and self._fetch_stall_until > now:
                break  # fetch bubble after a mispredicted branch
        return dispatched

    def _functional_load(self, insn: Instruction, addr: int, now: int) -> None:
        """Architectural load at dispatch, seeing in-flight older stores."""
        assert self.state is not None
        self.word_tracker.observe_load(addr, self.core_id, now)
        for store in reversed(self._store_buffer):
            if store.addr == addr:
                if insn.op is Op.FLD:
                    value = store.store_value
                    self.state.f[insn.rd] = (
                        float(value)
                        if store.store_is_float
                        else self._bits_to_float(int(value))
                    )
                else:
                    value = store.store_value
                    self.state.set_x(
                        insn.rd,
                        int(value) if not store.store_is_float else self._float_to_bits(float(value)),
                    )
                return
        if insn.op is Op.FLD:
            self.state.f[insn.rd] = self.memory.load_float(addr)
        else:
            self.state.set_x(insn.rd, self.memory.load_word(addr))

    @staticmethod
    def _bits_to_float(bits: int) -> float:
        import struct

        return struct.unpack("<d", struct.pack("<q", bits))[0]

    @staticmethod
    def _float_to_bits(value: float) -> int:
        import struct

        return struct.unpack("<q", struct.pack("<d", value))[0]

    # ----------------------------------------------------------- serialised
    def _dispatch_serialised(self, insn: Instruction, now: int) -> int:
        """AMOs and syscalls: ROB is empty, handle like an in-order core."""
        assert self.state is not None
        state = self.state
        if insn.info.is_amo:
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
            # (threaded engine); it is cleared on consumption.
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
