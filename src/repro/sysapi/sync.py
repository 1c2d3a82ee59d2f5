"""Emulation of the paper's Table 1 synchronization API.

Locks, barriers and semaphores are emulated *outside* the simulated target
(paper §4): calls take effect in the order the simulation reaches them
(simulation-time order), which is exactly why slack schemes can reorder
acquisitions relative to cycle-by-cycle simulation and perturb workload
timing (§3.2.3).

All methods return a :class:`SyncResult`:

* ``PROCEED``: the caller continues after ``cost`` target cycles;
* ``BLOCK``: the caller's workload thread must wait; a later call by another
  core produces a wake order ``(core, release_ts)``.

The real-thread test harness (``tests/core/threaded_harness.py``) serialises
calls with one host mutex (the emulation layer is atomic by construction).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

__all__ = ["SyncEmulation", "SyncAction", "SyncResult", "SyncStats"]

#: Target cycles for an uncontended acquire / release / signal.
SYNC_OP_COST = 2
#: Target cycles from a release to the woken waiter resuming.
HANDOFF_COST = 2


class SyncAction(enum.Enum):
    PROCEED = "proceed"
    BLOCK = "block"


@dataclass
class SyncResult:
    action: SyncAction
    #: Target cycles charged to the caller (PROCEED only).
    cost: int = SYNC_OP_COST
    #: (core, release_ts) orders for threads this call woke up.
    wakes: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class SyncStats:
    lock_acquires: int = 0
    lock_contended: int = 0
    barrier_episodes: int = 0
    sema_waits: int = 0
    sema_blocked: int = 0


class _Lock:
    __slots__ = ("holder", "waiters")

    def __init__(self) -> None:
        self.holder: int | None = None
        self.waiters: deque[int] = deque()


class _Barrier:
    __slots__ = ("count", "arrived", "generation")

    def __init__(self, count: int) -> None:
        self.count = count
        self.arrived: list[tuple[int, int]] = []  # (core, arrival_ts)
        self.generation = 0


class _Sema:
    __slots__ = ("value", "waiters")

    def __init__(self, value: int) -> None:
        self.value = value
        self.waiters: deque[int] = deque()


class SyncEmulation:
    """Shared synchronization state, keyed by target address."""

    def __init__(self) -> None:
        self._locks: dict[int, _Lock] = {}
        self._barriers: dict[int, _Barrier] = {}
        self._semas: dict[int, _Sema] = {}
        self.stats = SyncStats()

    # ----------------------------------------------------------------- locks
    def lock_init(self, addr: int) -> SyncResult:
        self._locks[addr] = _Lock()
        return SyncResult(SyncAction.PROCEED)

    def _lock(self, addr: int) -> _Lock:
        lock = self._locks.get(addr)
        if lock is None:  # tolerate implicit init (C programs often do)
            lock = self._locks[addr] = _Lock()
        return lock

    def lock_acquire(self, addr: int, core: int, ts: int) -> SyncResult:
        lock = self._lock(addr)
        self.stats.lock_acquires += 1
        if lock.holder is None:
            lock.holder = core
            return SyncResult(SyncAction.PROCEED)
        if lock.holder == core:
            raise RuntimeError(f"core {core} re-acquired lock {addr:#x} (not recursive)")
        self.stats.lock_contended += 1
        lock.waiters.append(core)
        return SyncResult(SyncAction.BLOCK)

    def lock_release(self, addr: int, core: int, ts: int) -> SyncResult:
        lock = self._lock(addr)
        if lock.holder != core:
            raise RuntimeError(f"core {core} released lock {addr:#x} held by {lock.holder}")
        if lock.waiters:
            successor = lock.waiters.popleft()
            lock.holder = successor  # FIFO handoff
            return SyncResult(SyncAction.PROCEED, wakes=[(successor, ts + HANDOFF_COST)])
        lock.holder = None
        return SyncResult(SyncAction.PROCEED)

    # -------------------------------------------------------------- barriers
    def barrier_init(self, addr: int, count: int) -> SyncResult:
        if count < 1:
            raise RuntimeError(f"barrier {addr:#x} initialised with count {count}")
        self._barriers[addr] = _Barrier(count)
        return SyncResult(SyncAction.PROCEED)

    def barrier_wait(self, addr: int, core: int, ts: int) -> SyncResult:
        barrier = self._barriers.get(addr)
        if barrier is None:
            raise RuntimeError(f"barrier_wait on uninitialised barrier {addr:#x}")
        barrier.arrived.append((core, ts))
        if len(barrier.arrived) < barrier.count:
            return SyncResult(SyncAction.BLOCK)
        # Last arriver: release everyone else at its arrival time.
        release_ts = ts + HANDOFF_COST
        wakes = [(c, release_ts) for c, _ in barrier.arrived if c != core]
        barrier.arrived = []
        barrier.generation += 1
        self.stats.barrier_episodes += 1
        return SyncResult(SyncAction.PROCEED, wakes=wakes)

    # ------------------------------------------------------------ semaphores
    def sema_init(self, addr: int, value: int) -> SyncResult:
        if value < 0:
            raise RuntimeError(f"semaphore {addr:#x} initialised with value {value}")
        self._semas[addr] = _Sema(value)
        return SyncResult(SyncAction.PROCEED)

    def _sema(self, addr: int) -> _Sema:
        sema = self._semas.get(addr)
        if sema is None:
            raise RuntimeError(f"operation on uninitialised semaphore {addr:#x}")
        return sema

    def sema_wait(self, addr: int, core: int, ts: int) -> SyncResult:
        sema = self._sema(addr)
        self.stats.sema_waits += 1
        if sema.value > 0:
            sema.value -= 1
            return SyncResult(SyncAction.PROCEED)
        self.stats.sema_blocked += 1
        sema.waiters.append(core)
        return SyncResult(SyncAction.BLOCK)

    def sema_signal(self, addr: int, core: int, ts: int) -> SyncResult:
        sema = self._sema(addr)
        if sema.waiters:
            successor = sema.waiters.popleft()
            return SyncResult(SyncAction.PROCEED, wakes=[(successor, ts + HANDOFF_COST)])
        sema.value += 1
        return SyncResult(SyncAction.PROCEED)

    # ------------------------------------------------------------ inspection
    def lock_holder(self, addr: int) -> int | None:
        lock = self._locks.get(addr)
        return lock.holder if lock else None

    def barrier_pending(self, addr: int) -> int:
        barrier = self._barriers.get(addr)
        return len(barrier.arrived) if barrier else 0
