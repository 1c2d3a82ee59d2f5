"""Core thread: the clock protocol around one core model (paper Figure 1).

A core thread owns its core model, the InQ/OutQ pair and the two shared
pacing variables (``local_time`` / ``max_local_time``).  It "can advance its
own simulation and local time for as long as its local time is less than
its max local time" and suspends when the window edge is reached; the
manager raises ``max_local_time`` per the active slack scheme.

The same class serves the deterministic sequential engine (stepped in
batches) and the threaded test harness (stepped from a real Python thread).

One turn loop, :meth:`CoreThread.step_many`, runs every core model
(DESIGN.md §5).  Each model answers ``wait_state``: a pure wait stretch —
frozen-pipeline latency, spin wait, external stall — is advanced in one
``skip`` jump instead of one Python-level ``step`` call per cycle (exact by
construction: ``skip(n)`` ≡ n wait ``step``\\ s), so a budget of thousands of
cycles costs a handful of Python iterations.  A model with ``advance(now,
limit, stats)`` runs the cycles between those stretches inside the model,
up to the first cycle the outside world could touch.  A model stepped
without ``advance`` — ``single=True``, or the OoO reference model — that
has ``stall_hint`` jumps a stepped stall with a known end instead: the
per-cycle oracle's stand-in for ``OoOCore.advance``'s spin jump.
``single=True`` runs the identical control flow but advances each stretch
with per-cycle ``step`` calls — the oracle the golden determinism tests
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.queues import InQ, OutQ
from repro.cpu.interfaces import WAIT_EXTERNAL, CorePhase
from repro.mem.directory import EvKind

__all__ = ["CoreThread", "BatchStats", "CoreState"]

_RESPONSE, _INVALIDATE, _DOWNGRADE = EvKind.RESPONSE, EvKind.INVALIDATE, EvKind.DOWNGRADE


class CoreState:
    IDLE = "idle"
    ACTIVE = "active"
    DONE = "done"


@dataclass(slots=True)
class BatchStats:
    """What happened during one engine-scheduled batch of target cycles."""

    cycles: int = 0
    active_cycles: int = 0
    idle_cycles: int = 0
    #: Cycles advanced in one jump over a wait stretch (and how many such
    #: stretches) — the host simulates these in O(1) bookkeeping per stretch,
    #: not per cycle, which is where run-ahead batching earns its speed.
    skipped_cycles: int = 0
    skip_stretches: int = 0
    committed: int = 0
    events_out: int = 0
    events_in: int = 0
    wakes: list[tuple[int, int]] = field(default_factory=list)
    hit_window_edge: bool = False

    def reset(self) -> None:
        """Zero all fields so one instance can be reused turn after turn
        (a fresh allocation per turn showed up in the engine profile)."""
        self.cycles = 0
        self.active_cycles = 0
        self.idle_cycles = 0
        self.skipped_cycles = 0
        self.skip_stretches = 0
        self.committed = 0
        self.events_out = 0
        self.events_in = 0
        self.wakes.clear()
        self.hit_window_edge = False


class CoreThread:
    """One simulated target core plus its queue/clock protocol."""

    def __init__(self, core_id: int, model) -> None:
        self.core_id = core_id
        self.model = model
        self.inq = InQ()
        self.outq = OutQ()
        self.local_time = 0
        self.max_local_time = 0
        self.state = CoreState.IDLE
        self.total_committed = 0
        self.total_cycles = 0
        self.final_time = 0
        self.ever_active = False
        # Cumulative batch accounting (registry source).  Both stepping
        # modes fill the same BatchStats fields turn for turn, so this is
        # bit-identical across batched/single stepping by construction.
        # Kept deliberately minimal: the fold runs once per engine turn,
        # and the turn loop is the simulator's hot path.
        self.window_edge_hits = 0
        # Per-thread scratch stats, reset at the start of every batch; the
        # engine consumes the fields before the next batch runs.
        self._stats = BatchStats()

    # ------------------------------------------------------------- lifecycle
    def activate(self, pc: int, arg: int, ts: int) -> None:
        """A workload thread was assigned (main at t=0, or spawn at ts)."""
        self.model.activate(pc, arg, ts)
        self.local_time = ts
        self.state = CoreState.ACTIVE
        self.ever_active = True

    # -------------------------------------------------------------- delivery
    def _route_due_events(self, stats: BatchStats) -> None:
        pop_due = self.inq.pop_due
        now = self.local_time
        model = self.model
        while True:
            event = pop_due(now)
            if event is None:
                return
            stats.events_in += 1
            kind = event.kind
            if kind is _RESPONSE:
                model.deliver_response(event)
            elif kind is _INVALIDATE:
                model.apply_invalidation(event.addr)
            elif kind is _DOWNGRADE:
                model.apply_downgrade(event.addr)
            else:  # pragma: no cover
                raise AssertionError(f"unexpected InQ event {event}")

    # ------------------------------------------------------------------ run
    #
    # A turn advances up to *budget* target cycles within the slack window.
    # Clock invariant enforced each cycle::
    #
    #     global <= local_time <= max_local_time
    #
    # (the global bound is checked by the manager, which owns global time).

    def step_many(self, budget: int, *, wait_chunk: int, single: bool = False) -> BatchStats:
        """Advance up to *budget* cycles, jumping over wait stretches.

        ``wait_chunk`` bounds how many cycles the core burns waiting on
        *external* input (a manager response) before yielding the turn — the
        manager must get host time to produce the wake, so an unbounded
        budget (su's window) must not spin here forever.  ``single=True``
        keeps the exact same turn structure but advances wait stretches with
        per-cycle ``step`` calls (the equivalence oracle).
        """
        stats = self._stats
        stats.reset()
        model = self.model
        inq = self.inq
        # Direct InQ heap access when the queue is unwrapped (sequential
        # engine): the per-cycle "anything due?" probe is two C-level checks
        # instead of a method call.  The threaded test harness wraps the InQ
        # in a locked facade without ``_heap``; it keeps the method-call path
        # (reading the heap outside the lock would race the manager's push).
        inq_heap = getattr(inq, "_heap", None)
        outq_q = self.outq._q
        out_before = len(outq_q)
        wait_rem = wait_chunk
        # Run-ahead inside the model (DESIGN.md §5): ``advance`` commits
        # instruction after instruction up to the first outside-visible
        # moment.  Cycle totals, commit counts and event moments are
        # identical to per-cycle stepping by construction, so
        # ``single=True`` (the per-cycle oracle) disables it without
        # changing any observable.
        advance = None if single else getattr(model, "advance", None)
        # ``advance`` leaves a ``step`` only one cycle of room, so a jump
        # after it could never move: the hint serves stepped models only.
        stall_hint = getattr(model, "stall_hint", None) if advance is None else None
        while (
            self.state == CoreState.ACTIVE
            and stats.cycles < budget
            and self.local_time < self.max_local_time
        ):
            if inq_heap is not None:
                if inq_heap and inq_heap[0][0] <= self.local_time:
                    self._route_due_events(stats)
            else:
                self._route_due_events(stats)
            ws = model.wait_state(self.local_time)
            if ws is None:
                n = 0
                if advance is not None:
                    # The first cycle the outside world could touch:
                    # budget, window edge, next queued event.
                    limit = min(
                        self.max_local_time,
                        self.local_time + (budget - stats.cycles),
                    )
                    if inq_heap is not None:
                        if inq_heap and inq_heap[0][0] < limit:
                            limit = inq_heap[0][0]
                    else:
                        next_in = inq.peek_ts()
                        if next_in is not None and next_in < limit:
                            limit = next_in
                    # One cycle of room is one ``step``: cc (turn budget 1)
                    # never enters the model loop.
                    if limit - self.local_time > 1:
                        n = advance(self.local_time, limit, stats)
                if n:
                    self.local_time += n
                else:
                    # The model wants a real step: it may commit, emit
                    # events, block, or halt this cycle.
                    committed, active = model.step(self.local_time)
                    stats.committed += committed
                    if active:
                        stats.active_cycles += 1
                    else:
                        stats.idle_cycles += 1
                    stats.cycles += 1
                    self.local_time += 1
                # A step, or the OoO core's ``advance`` (the in-order, replay
                # and trace loops stop short of both), can end on a wake
                # order or a halt.
                if model.pending_wakes:
                    stats.wakes.extend(model.pending_wakes)
                    model.pending_wakes.clear()
                if model.phase is CorePhase.HALTED:
                    self.state = CoreState.DONE
                    self.final_time = self.local_time
                    break
                if not n and stall_hint is not None:
                    # Skip-ahead: a stepped stall with a known end jumps to
                    # it (or to the first cycle the outside world could
                    # touch).  Spin-wait cycles are full-cost (the core
                    # simulates the wait loop); frozen-pipeline stalls are
                    # cheap.
                    hint = stall_hint(self.local_time)
                    if hint is not None:
                        limit = min(
                            hint,
                            self.max_local_time,
                            self.local_time + (budget - stats.cycles),
                        )
                        next_in = inq.peek_ts()
                        if next_in is not None and next_in < limit:
                            limit = next_in
                        n = limit - self.local_time
                        if n > 0:
                            stats.cycles += n
                            if getattr(model, "spinning", False):
                                stats.active_cycles += n
                            else:
                                stats.idle_cycles += n
                            self.local_time = limit
                continue
            resume, active = ws
            limit = min(self.max_local_time, self.local_time + (budget - stats.cycles))
            if inq_heap is not None:
                next_in = inq_heap[0][0] if inq_heap else None
            else:
                next_in = inq.peek_ts()
            if next_in is not None and next_in < limit:
                limit = next_in
            blind = resume >= WAIT_EXTERNAL and next_in is None
            if blind:
                # External wait with nothing queued: burn blind, up to the
                # chunk allowance, then yield so the manager gets host time
                # to produce the wake.  If the wake lands in host time only
                # after the core has already burned past its timestamp, the
                # core observes it late — the de-facto slack wide windows
                # permit (the source of the violations Figure 7 counts).
                target = min(self.local_time + wait_rem, limit)
            elif resume >= WAIT_EXTERNAL:
                # External wait but the wake is already queued: the wait is
                # de-facto timed — run straight to the event's timestamp (or
                # the window edge) in one jump.
                target = limit
            else:
                # Timed waits resume at a model-known cycle; queued events
                # due before then are delivered at their exact timestamp.
                target = min(resume, limit)
            n = target - self.local_time
            if n <= 0:
                # Only reachable when the external-wait allowance is spent:
                # yield the turn so the manager can deliver the wake.
                break
            if single:
                now = self.local_time
                for i in range(n):
                    model.step(now + i)
            else:
                model.skip(n)
            stats.cycles += n
            stats.skipped_cycles += n
            stats.skip_stretches += 1
            self.local_time = target
            if blind:
                wait_rem -= n
                if wait_rem <= 0:
                    # Allowance spent and still nothing queued: yield the
                    # turn so the manager gets host time to produce the wake.
                    break
        stats.events_out = len(outq_q) - out_before
        stats.hit_window_edge = (
            self.state == CoreState.ACTIVE and self.local_time >= self.max_local_time
        )
        self.total_committed += stats.committed
        self.total_cycles += stats.cycles
        if stats.hit_window_edge:
            self.window_edge_hits += 1
        return stats
