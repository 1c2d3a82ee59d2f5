"""Core-model protocol shared by the timing cores and the slack engine.

A core model simulates one target core cycle-by-cycle: ``step(now)`` returns
``(committed, active)`` per cycle.  The surrounding
:class:`~repro.core.corethread.CoreThread` owns the clock protocol and the
event queues; the core model owns the pipeline state and its private L1.
Implementations: :class:`~repro.cpu.inorder.InOrderCore` and
:class:`~repro.trace.replay.ReplayCore` (two front ends of
:class:`~repro.cpu.inorder.InOrderPipeline`), :class:`~repro.cpu.ooo.OoOCore`,
:class:`~repro.workloads.synthetic.TraceCore`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:  # avoid a circular import (core.* imports this module)
    from repro.core.events import Event

__all__ = ["CorePhase", "CoreModel", "WAIT_EXTERNAL"]

#: Sentinel resume time returned by ``wait_state`` meaning "waiting on input
#: that only the manager can deliver (memory response, syscall wake)" — the
#: core cannot compute its own resume time, so the caller must bound the
#: batched wait and yield the turn.
WAIT_EXTERNAL = 1 << 62


class CorePhase(enum.Enum):
    """What the core is doing this cycle (drives the host cost model)."""

    IDLE = "idle"        # no workload thread assigned
    ACTIVE = "active"    # executing instructions
    STALLED = "stalled"  # waiting for memory / sync / multi-cycle op
    HALTED = "halted"    # workload thread exited


class CoreModel(Protocol):
    """Protocol implemented by InOrderPipeline's front ends, OoOCore and
    TraceCore."""

    core_id: int

    def activate(self, pc: int, arg: int, ts: int) -> None:
        """Assign a workload thread starting at *pc* with argument *arg*."""

    def step(self, now: int) -> tuple[int, bool]:
        """Simulate one target cycle at local time *now*.

        Returns ``(committed_instructions, active)`` where *active* is False
        for pure stall cycles (cheaper on the host).
        """

    def deliver_response(self, event: Event) -> None:
        """A memory response from the manager reached this core's InQ."""

    def apply_invalidation(self, addr: int) -> None: ...

    def apply_downgrade(self, addr: int) -> None: ...

    def release(self, release_ts: int) -> None:
        """Wake a BLOCK-ed syscall at simulated time *release_ts*."""

    @property
    def phase(self) -> CorePhase: ...

    # -- per-cycle skip-ahead: models without ``wait_state`` only ----------
    #
    # def stall_hint(self, now: int) -> int | None:
    #     """If stalled until a known simulated time, return it."""
    #
    # Asked of the models the CoreThread steps cycle by cycle (OoOCore, the
    # only one under src/, and ad-hoc test models); the batched protocol
    # below subsumes it.
    #
    # -- optional batched-stepping extension (see DESIGN.md §5) ------------
    #
    # Reference implementation: :class:`repro.cpu.inorder.InOrderPipeline`.
    # Models that additionally implement the two methods below opt into the
    # engine's run-ahead fast path: while ``wait_state`` reports a wait, the
    # CoreThread advances local time in one jump (``skip``) instead of one
    # ``step`` call per cycle.  Implementations must guarantee that for a
    # wait spanning ``n`` cycles, ``skip(n)`` leaves the model in exactly the
    # state that ``n`` consecutive ``step`` calls would (same counters, same
    # pipeline state, no events emitted), so batched and single stepping are
    # behaviour-equivalent by construction.
    #
    # def wait_state(self, now: int) -> tuple[int, bool] | None:
    #     """None   -> the model wants a real ``step(now)`` (it may commit,
    #                  emit events, halt, or block this cycle);
    #     (resume, active) -> every cycle in [now, resume) is a pure wait
    #                  cycle accounted with the given active flag; ``resume``
    #                  is the next cycle needing a real step, or
    #                  WAIT_EXTERNAL when the wake must come from outside."""
    #
    # def skip(self, n: int) -> None:
    #     """Account n wait cycles at once (e.g. bump stall counters)."""
    #
    # A third optional method moves the commit cycles between waits into the
    # model as well (one loop per front end: InOrderCore, ReplayCore, and
    # TraceCore, whose loop also finishes a granted fill first):
    #
    # def advance(self, now: int, limit: int, stats: BatchStats) -> int:
    #     """Run cycles [now, limit) exactly as the wait_state/skip/step
    #     sequence would, fold them into *stats*, return how many ran.
    #     Stops early at the first outside-visible moment (a miss issued,
    #     or in front of an ecall/halt/AMO); 0 means "call step(now)"."""
    #
    # OoOCore implements ``advance`` *without* ``wait_state``/``skip``: it
    # stays on the per-cycle turn loop (same turn chunk, same active/idle
    # accounting, so the same host cost) and ``advance`` stands for the
    # ``step`` + ``stall_hint`` sequence of ``[now, limit)``, at least one
    # cycle, returning early only after a halt or a wake order.
