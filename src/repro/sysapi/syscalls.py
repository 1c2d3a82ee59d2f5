"""SPISA syscall numbering and argument conventions.

SlackSim is a user-level simulator: "when memory management, file system
handling, and other system functions are called by the simulation workloads,
they are emulated outside the simulator" (paper §4).  We reproduce that
structure: an ``ecall`` traps out of the target into host-level emulation.

Convention: syscall number in ``a7`` (x17); integer arguments in ``a0..a2``;
float argument in ``fa0``; integer result in ``a0``.  Blocking calls (locks,
barriers, semaphores, join) may *not* advance the PC — the emulation layer
re-executes or suspends the workload thread, which is how lock contention
becomes visible to the timing model.

The synchronization calls are exactly the paper's Table 1 API::

    Lock:      init_lock()  lock()  unlock()
    Barrier:   init_barrier()  barrier()
    Semaphore: init_sema()  sema_wait()  sema_signal()
"""

from __future__ import annotations

import enum

__all__ = ["Sys", "SYSCALL_COST_CYCLES", "TargetError"]


class Sys(enum.IntEnum):
    """Syscall numbers (value placed in ``a7``)."""

    EXIT = 0           # a0 = status; terminates the workload thread
    PRINT_INT = 1      # a0 = value
    PRINT_FLOAT = 2    # fa0 = value
    PRINT_CHAR = 3     # a0 = codepoint
    SBRK = 4           # a0 = nbytes -> a0 = old program break
    CLOCK = 5          # -> a0 = core-local simulated cycle

    THREAD_SPAWN = 10  # a0 = entry pc, a1 = argument -> a0 = thread id
    THREAD_JOIN = 11   # a0 = thread id (blocking)
    THREAD_ID = 12     # -> a0
    NUM_THREADS = 13   # -> a0

    LOCK_INIT = 20     # a0 = &lock
    LOCK_ACQ = 21      # a0 = &lock (blocking)
    LOCK_REL = 22      # a0 = &lock
    BARRIER_INIT = 23  # a0 = &barrier, a1 = participant count
    BARRIER_WAIT = 24  # a0 = &barrier (blocking)
    SEMA_INIT = 25     # a0 = &sema, a1 = initial value
    SEMA_WAIT = 26     # a0 = &sema (blocking)
    SEMA_SIGNAL = 27   # a0 = &sema


#: Target cycles charged for a non-blocking syscall (trap + emulation).
SYSCALL_COST_CYCLES = 4


class TargetError(RuntimeError):
    """The simulated program did something invalid (bad syscall, bad spawn,
    misuse of a synchronization object)."""
