"""System emulation: the syscall router shared by every core thread.

SlackSim emulates system functions *outside* the simulator (paper §4).
:class:`SystemEmulation` owns everything a syscall can touch: the
synchronization primitives (Table 1), the workload thread table
(spawn/join/exit), the shared heap break, and the output streams.  It
serves the slack engine's core threads and the functional interpreter
(:mod:`repro.cpu.interp`, one core) alike.  Calls take effect in simulation
order; the real-thread test harness (``tests/core/threaded_harness.py``)
wraps each call in one host mutex.  A target program's fault raises
:class:`TargetError`.

Workload threads map 1:1 onto target cores (the paper runs 8 workload
threads on an 8-core target): ``spawn`` claims the lowest idle core.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro._util import align_up
from repro.cpu.arch import ArchState, REG_A0, REG_A7
from repro.sysapi.loader import LoadedImage
from repro.sysapi.sync import SyncAction, SyncEmulation
from repro.sysapi.syscalls import SYSCALL_COST_CYCLES, Sys, TargetError

__all__ = ["SystemBase", "SystemEmulation", "SysAction", "SysResult", "TargetError"]


class SysAction(enum.Enum):
    PROCEED = "proceed"  # advance pc after `cost` cycles
    BLOCK = "block"      # thread waits; a wake order will arrive later
    EXIT = "exit"        # workload thread terminated


@dataclass
class SysResult:
    action: SysAction
    cost: int = SYSCALL_COST_CYCLES
    #: (core, release_ts) wake orders produced by this call.
    wakes: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class _Thread:
    tid: int
    core: int
    state: str = "running"  # running | exited
    joiners: list[int] = field(default_factory=list)  # cores blocked in join
    exit_ts: int = 0


class SystemBase:
    """The image-free half of the system emulation.

    Sync emulation, the workload thread table, the output streams and the
    inspection API: everything a syscall touches that needs neither
    registers nor a memory image.  :class:`SystemEmulation` adds those for
    direct runs; trace replay (:class:`repro.trace.replay.ReplaySystem`)
    drives this half alone, from recorded and already resolved arguments.
    """

    #: What an inconsistent call raises: the target program's fault in a
    #: direct run, a mismatched trace under replay.
    error: type[Exception] = TargetError

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        self.sync = SyncEmulation()
        self.output: list[tuple[int, object]] = []  # (core, value)
        self.threads: dict[int, _Thread] = {0: _Thread(tid=0, core=0)}
        self._core_to_tid: dict[int, int] = {0: 0}
        #: engine hook: activate_context(core, pc, arg, ts); bound by the
        #: engine's ``run()`` for the duration of the run only.
        self.activate_context: Callable[[int, int, int, int], None] | None = None
        self.spawned = 0

    def __getstate__(self):
        """Checkpoint hook: the spawn hook belongs to the run that is being
        checkpointed; the restored engine's ``run()`` binds its own."""
        state = dict(self.__dict__)
        state["activate_context"] = None
        return state

    # ----------------------------------------------------------- inspection
    def live_threads(self) -> int:
        return sum(1 for t in self.threads.values() if t.state == "running")

    def output_of(self, core: int) -> list:
        return [v for c, v in self.output if c == core]

    def merged_output(self) -> list:
        return [v for _, v in self.output]

    # ----------------------------------------------------------------- sync
    def sync_call(self, num: int, addr: int, aux: int, core: int, ts: int) -> SysResult:
        """Table 1 synchronization API: syscall *num* on the object at *addr*
        (*aux*: a barrier's participant count, a semaphore's initial value)."""
        sync = self.sync
        try:
            if num == Sys.LOCK_INIT:
                result = sync.lock_init(addr)
            elif num == Sys.LOCK_ACQ:
                result = sync.lock_acquire(addr, core, ts)
            elif num == Sys.LOCK_REL:
                result = sync.lock_release(addr, core, ts)
            elif num == Sys.BARRIER_INIT:
                result = sync.barrier_init(addr, aux)
            elif num == Sys.BARRIER_WAIT:
                result = sync.barrier_wait(addr, core, ts)
            elif num == Sys.SEMA_INIT:
                result = sync.sema_init(addr, aux)
            elif num == Sys.SEMA_WAIT:
                result = sync.sema_wait(addr, core, ts)
            elif num == Sys.SEMA_SIGNAL:
                result = sync.sema_signal(addr, core, ts)
            else:
                raise TargetError(f"core {core}: syscall {num} is not a synchronization call")
        except TargetError as exc:
            # SyncEmulation blames the target program; under replay the
            # same misuse is a mismatched trace.
            if self.error is TargetError:
                raise
            raise self.error(*exc.args) from exc
        if result.action is SyncAction.BLOCK:
            return SysResult(SysAction.BLOCK)
        return SysResult(SysAction.PROCEED, cost=result.cost, wakes=list(result.wakes))

    # --------------------------------------------------------------- threads
    def start_thread(self, core: int, tid: int, entry: int, arg: int, ts: int) -> SysResult:
        """Enter thread *tid* on idle *core* and start it at *entry*."""
        self.threads[tid] = _Thread(tid=tid, core=core)
        self._core_to_tid[core] = tid
        self.spawned += 1
        if self.activate_context is None:
            raise RuntimeError(f"{type(self).__name__}.activate_context is not bound")
        self.activate_context(core, entry, arg, ts)
        return SysResult(SysAction.PROCEED, cost=SYSCALL_COST_CYCLES * 4)

    def join(self, core: int, tid: int) -> SysResult:
        thread = self.threads.get(tid)
        if thread is None:
            raise self.error(f"core {core}: join on unknown thread {tid}")
        if thread.state == "exited":
            return SysResult(SysAction.PROCEED)
        thread.joiners.append(core)
        return SysResult(SysAction.BLOCK)

    def exit(self, core: int, ts: int) -> SysResult:
        tid = self._core_to_tid.get(core)
        if tid is None:
            raise self.error(f"exit from core {core} with no workload thread")
        thread = self.threads[tid]
        thread.state = "exited"
        thread.exit_ts = ts
        wakes = [(joiner, ts + 2) for joiner in thread.joiners]
        thread.joiners = []
        # The core becomes idle again (excluded from global time).
        del self._core_to_tid[core]
        return SysResult(SysAction.EXIT, wakes=wakes)


class SystemEmulation(SystemBase):
    """Syscall dispatch over a loaded image: :class:`SystemBase` plus the
    shared heap break, tid/core allocation and register write-back."""

    def __init__(self, image: LoadedImage, num_cores: int) -> None:
        super().__init__(num_cores)
        self.image = image
        self.brk = image.heap_start
        self._next_tid = 1

    def syscall(self, core: int, state: ArchState, ts: int) -> SysResult:
        """Handle the ``ecall`` trapped by *core* at local time *ts*.

        Register convention: number in a7, args a0..a2 / fa0, result a0.
        All registers except a0 are preserved (the compiler relies on this).
        """
        num = state.x[REG_A7]
        a0 = state.x[REG_A0]
        a1 = state.x[11]
        try:
            sys = Sys(num)
        except ValueError:
            raise TargetError(f"core {core}: unknown syscall {num} at pc {state.pc:#x}") from None

        if sys is Sys.EXIT:
            return self.exit(core, ts)
        if sys is Sys.PRINT_INT:
            self.output.append((core, a0))
            return SysResult(SysAction.PROCEED)
        if sys is Sys.PRINT_FLOAT:
            self.output.append((core, state.f[10]))
            return SysResult(SysAction.PROCEED)
        if sys is Sys.PRINT_CHAR:
            self.output.append((core, chr(a0 & 0x10FFFF)))
            return SysResult(SysAction.PROCEED)
        if sys is Sys.SBRK:
            old = self.brk
            new = align_up(old + a0, 64)
            if new >= self.image.stacks_bottom:
                raise TargetError(f"core {core}: sbrk({a0}) exhausts the shared heap")
            self.brk = new
            state.set_x(REG_A0, old)
            return SysResult(SysAction.PROCEED)
        if sys is Sys.CLOCK:
            state.set_x(REG_A0, ts)
            return SysResult(SysAction.PROCEED)
        if sys is Sys.THREAD_ID:
            state.set_x(REG_A0, self._core_to_tid.get(core, core))
            return SysResult(SysAction.PROCEED)
        if sys is Sys.NUM_THREADS:
            state.set_x(REG_A0, len(self.threads))
            return SysResult(SysAction.PROCEED)
        if sys is Sys.THREAD_SPAWN:
            return self._spawn(state, a0, a1, ts)
        if sys is Sys.THREAD_JOIN:
            return self.join(core, a0)
        return self.sync_call(sys, a0, a1, core, ts)

    def _spawn(self, state: ArchState, entry: int, arg: int, ts: int) -> SysResult:
        free = [c for c in range(self.num_cores) if c not in self._core_to_tid]
        if not free:
            raise TargetError(
                f"spawn: no idle core for a new workload thread "
                f"({len(self.threads)} threads on {self.num_cores} cores)"
            )
        tid = self._next_tid
        self._next_tid += 1
        result = self.start_thread(free[0], tid, entry, arg, ts)
        state.set_x(REG_A0, tid)
        return result
