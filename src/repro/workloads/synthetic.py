"""Synthetic trace-driven workloads.

A :class:`TraceCore` plays a scripted sequence of operations without any ISA
state — the cheapest way to drive the slack engine in tests and ablations
where only the synchronization/memory *pattern* matters:

* ``("think", n)`` — n busy cycles of pure compute;
* ``("load", addr)`` / ``("store", addr)`` — one shared-memory access
  through a private L1 (GETS/GETX/UPGRADE traffic like the ISA cores);
* ``("halt",)`` — the workload thread finishes.

:func:`sharing_workload` generates a parametric multi-core mix of private
and shared accesses — the knob for contention ablations.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.events import EvKind, Event
from repro.cpu.interfaces import WAIT_EXTERNAL, CorePhase
from repro.cpu.l1cache import MESI, AccessResult, L1Cache, L1Config

__all__ = ["TraceCore", "sharing_workload", "pingpong_workload", "uniform_think_workload"]

_GRANT_TO_MESI = {"M": MESI.MODIFIED, "E": MESI.EXCLUSIVE, "S": MESI.SHARED}


class TraceCore:
    """Scripted core model implementing the CoreModel protocol."""

    def __init__(self, core_id: int, script: list[tuple], l1: L1Cache | None = None) -> None:
        self.core_id = core_id
        self.script = script
        self.l1 = l1 or L1Cache(L1Config(size_bytes=8 * 1024, assoc=2))
        self.emit: Callable[[Event], None] | None = None  # bound by the engine
        self.phase = CorePhase.IDLE
        self.committed = 0
        self.pending_wakes: list[tuple[int, int]] = []
        self._pc = 0
        self._busy_until = -1
        self._pending_block: int | None = None
        self._resp: Event | None = None
        # Coherence messages that raced ahead of an in-flight grant (the
        # MESI IM->I / IM->S transients): remembered and applied right after
        # the fill, so the granted data is used exactly once and the stolen
        # line is not silently kept.
        self._pending_inval = False
        self._pending_down = False

    # --------------------------------------------------------- CoreModel API
    def activate(self, pc: int, arg: int, ts: int) -> None:
        self.phase = CorePhase.ACTIVE

    def deliver_response(self, event: Event) -> None:
        if self._pending_block is None:
            raise RuntimeError(f"trace core {self.core_id}: unexpected response")
        self._resp = event

    def apply_invalidation(self, addr: int) -> None:
        if self._pending_block is not None and self.l1.block_addr(addr) == self._pending_block:
            self._pending_inval = True
            return
        self.l1.invalidate(addr)

    def apply_downgrade(self, addr: int) -> None:
        if self._pending_block is not None and self.l1.block_addr(addr) == self._pending_block:
            self._pending_down = True
            return
        self.l1.downgrade(addr)

    def release(self, release_ts: int) -> None:
        raise RuntimeError("trace cores do not use blocking syscalls")

    def wait_state(self, now: int) -> tuple[int, bool] | None:
        """Batched-stepping protocol (see :mod:`repro.cpu.interfaces`)."""
        if self._pending_block is not None:
            if self._resp is not None:
                return None  # fill the line this cycle
            return WAIT_EXTERNAL, False  # stalled on the manager's response
        if now <= self._busy_until:
            return self._busy_until + 1, False  # thinking
        return None

    def skip(self, n: int) -> None:
        """n wait cycles change no scripted state (≡ n wait ``step`` calls)."""

    def _fill(self, now: int) -> None:
        """Install the granted line, then apply a coherence message that
        raced ahead of the grant."""
        block = self._pending_block
        victim = self.l1.fill(block, _GRANT_TO_MESI[self._resp.grant or "E"])
        if victim is not None:
            self.emit(Event(EvKind.PUTM, victim, self.core_id, now))
        if self._pending_inval:
            self.l1.invalidate(block)
        elif self._pending_down:
            self.l1.downgrade(block)
        self._pending_inval = self._pending_down = False
        self._pending_block = None
        self._resp = None
        self.phase = CorePhase.ACTIVE
        self.committed += 1

    def _issue(self, addr: int, is_write: bool, result: AccessResult, now: int) -> None:
        """Send an L1 miss or upgrade to the manager and stall on it."""
        block = self.l1.block_addr(addr)
        if result is AccessResult.UPGRADE:
            kind = EvKind.UPGRADE
        else:
            kind = EvKind.GETX if is_write else EvKind.GETS
        self.emit(Event(kind, block, self.core_id, now))
        self._pending_block = block
        self.phase = CorePhase.STALLED

    def step(self, now: int) -> tuple[int, bool]:
        if self.phase in (CorePhase.IDLE, CorePhase.HALTED):
            return 0, False
        if self._pending_block is not None:
            if self._resp is None:
                return 0, False
            self._fill(now)
            return 1, True
        if now <= self._busy_until:
            return 0, False  # thinking: cheap wait cycle (matches wait_state)
        if self._pc >= len(self.script):
            self.phase = CorePhase.HALTED
            return 0, True
        op = self.script[self._pc]
        self._pc += 1
        kind = op[0]
        if kind == "think":
            cycles = int(op[1])
            self._busy_until = now + cycles - 1
            self.committed += cycles
            return cycles, True
        if kind in ("load", "store"):
            addr = int(op[1])
            is_write = kind == "store"
            result = self.l1.access(addr, is_write)
            if result is AccessResult.HIT:
                self.committed += 1
                return 1, True
            self._issue(addr, is_write, result, now)
            return 0, True
        if kind == "halt":
            self.phase = CorePhase.HALTED
            return 0, True
        raise ValueError(f"unknown trace op {op!r}")

    def advance(self, now: int, limit: int, stats) -> int:
        """Run ``[now, limit)`` as the ``wait_state``/``skip``/``step``
        sequence would (the protocol in :mod:`repro.cpu.interfaces`): finish
        a granted fill, then L1 hits and think stretches (cut at *limit*,
        remainder left in ``_busy_until``), up to and including the cycle
        that issues a miss.  Stops in front of a halt or the end of the
        script; returns the cycles run, accounted into *stats*."""
        t = now
        start = self.committed
        if self._pending_block is not None:
            if self._resp is None:
                return 0
            self._fill(t)
            t += 1
        committed = self.committed
        script = self.script
        size = len(script)
        pc = self._pc
        access = self.l1.access
        busy = self._busy_until
        skipped = stretches = 0
        while t < limit and pc < size:
            op = script[pc]
            kind = op[0]
            if kind == "think":
                pc += 1
                cycles = int(op[1])
                committed += cycles
                busy = t + cycles - 1
                t += 1
                if t <= busy and t < limit:
                    wait = (busy + 1 if busy < limit else limit) - t
                    skipped += wait
                    stretches += 1
                    t += wait
            elif kind == "load" or kind == "store":
                pc += 1
                addr = int(op[1])
                is_write = kind == "store"
                result = access(addr, is_write)
                t += 1
                if result is AccessResult.HIT:
                    committed += 1
                    continue
                self._issue(addr, is_write, result, t - 1)
                break
            else:
                break  # halt (or a bad op): step's to handle
        self._pc = pc
        self._busy_until = busy
        self.committed = committed
        stats.committed += committed - start
        cycles = t - now
        stats.cycles += cycles
        stats.active_cycles += cycles - skipped
        stats.skipped_cycles += skipped
        stats.skip_stretches += stretches
        return cycles


def uniform_think_workload(num_cores: int, cycles: int) -> list[TraceCore]:
    """Pure-compute cores: the embarrassingly-parallel baseline."""
    return [TraceCore(i, [("think", cycles), ("halt",)]) for i in range(num_cores)]


def sharing_workload(
    num_cores: int,
    ops_per_core: int,
    *,
    shared_fraction: float = 0.2,
    write_fraction: float = 0.3,
    think_cycles: int = 4,
    shared_blocks: int = 16,
    seed: int = 1,
) -> list[TraceCore]:
    """Parametric mix of private and shared accesses with think time."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cores = []
    for core in range(num_cores):
        script: list[tuple] = []
        private_base = 0x10_0000 + core * 0x1_0000
        for _ in range(ops_per_core):
            if think_cycles:
                script.append(("think", int(rng.integers(1, think_cycles + 1))))
            shared = rng.random() < shared_fraction
            write = rng.random() < write_fraction
            if shared:
                addr = 0x20_0000 + int(rng.integers(0, shared_blocks)) * 64
            else:
                addr = private_base + int(rng.integers(0, 64)) * 64
            script.append(("store" if write else "load", addr))
        script.append(("halt",))
        cores.append(TraceCore(core, script))
    return cores


def pingpong_workload(num_cores: int, rounds: int, *, block: int = 0x20_0000) -> list[TraceCore]:
    """All cores repeatedly write one block: worst-case coherence ping-pong.

    Per-core think times are deliberately skewed so cores desynchronise under
    slack and requests reach the manager out of timestamp order.
    """
    cores = []
    spread = 12
    for core in range(num_cores):
        script: list[tuple] = []
        for r in range(rounds):
            script.append(("think", 1 + (core * spread + r) % (spread * num_cores)))
            script.append(("store", block))
        script.append(("halt",))
        cores.append(TraceCore(core, script))
    return cores
