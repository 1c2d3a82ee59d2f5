"""The simulation manager thread (paper §2.1-2.2).

Two responsibilities:

1. simulate the shared lower-level hierarchy — drain every core's OutQ into
   the GQ and service requests against the :class:`MemorySystem` according
   to the active scheme's GQ policy;
2. orchestrate the pace — maintain ``global_time = min(local_time)`` over
   active cores and raise each core's ``max_local_time`` per the scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.corethread import CoreState, CoreThread
from repro.core.events import REQUEST_KINDS, EvKind, Event
from repro.core.queues import GlobalQueue
from repro.core.schemes import INFINITY, Lookahead, Scheme
from repro.mem.memsys import MemorySystem

__all__ = ["SimulationManager", "ManagerStepResult"]


@dataclass
class ManagerStepResult:
    drained: int = 0
    processed: int = 0
    #: Cores whose max_local_time was raised this step.
    raised: list[int] = field(default_factory=list)

    @property
    def work(self) -> int:
        return self.drained + self.processed


class SimulationManager:
    """Owns global time, the GQ and the shared memory system."""

    def __init__(self, cores: list[CoreThread], memsys: MemorySystem, scheme: Scheme) -> None:
        self.cores = cores
        self.memsys = memsys
        self.scheme = scheme
        self.gq = GlobalQueue(scheme.gq_policy)
        self.global_time = 0
        self.requests_processed = 0
        self.barriers_completed = 0
        self.events_drained = 0
        self.windows_raised = 0
        self.gq_max_depth = 0
        self._gq_depth = 0
        # Hoisted policy facts (schemes are immutable descriptors).
        self._barrier = scheme.gq_policy == "barrier"
        self._lookahead = isinstance(scheme, Lookahead)
        self._adapt = getattr(scheme, "adapt", None)

    # ------------------------------------------------------------- utilities
    def _active(self) -> list[CoreThread]:
        return [ct for ct in self.cores if ct.state == CoreState.ACTIVE]

    def current_max_local(self) -> int:
        """Window bound for a newly activated core under the current scheme."""
        if self._lookahead:
            return self.scheme.max_local(self.global_time, self.gq.oldest_ts())
        return self.scheme.max_local(self.global_time)

    def refresh_window(self, ct: CoreThread) -> bool:
        """Re-read the shared clocks on behalf of *ct* at its window edge.

        In the threaded implementation the pacing variables are plain shared
        words: a core that hits its window edge re-reads them before paying
        the suspend/wake round trip, and the slowest core — whose own
        progress *is* the minimum — never blocks at all.  Returns True and
        raises ``ct.max_local_time`` if the window has already moved.

        Only sliding-window policies qualify: under a barrier the edge is a
        hard synchronization point that must wait for the manager's GQ pass,
        so self-refresh would let cores skip coherence servicing.
        """
        if self._barrier:
            return False
        min_local = None
        for c in self.cores:
            if c.state == CoreState.ACTIVE:
                lt = c.local_time
                if min_local is None or lt < min_local:
                    min_local = lt
        if min_local is not None and min_local > self.global_time:
            self.global_time = min_local
        new_max = self.current_max_local()
        if new_max > ct.max_local_time:
            ct.max_local_time = new_max
            self.windows_raised += 1
            return True
        return False

    def check_invariants(self) -> None:
        """Assert the paper's clock invariant for every active core."""
        for ct in self._active():
            if not self.global_time <= ct.local_time <= max(ct.max_local_time, ct.local_time):
                raise AssertionError(
                    f"clock invariant violated on core {ct.core_id}: "
                    f"{self.global_time} <= {ct.local_time} <= {ct.max_local_time}"
                )

    # ------------------------------------------------------------------ step
    def step(self) -> ManagerStepResult:
        result = ManagerStepResult()
        gq = self.gq
        push = gq.push
        # One fused pass over the cores: drain OutQs and gather the active
        # set, its minimum local time and barrier status (this method runs
        # once per manager turn — several genexpr scans showed up in the
        # engine profile).  The manager is an OutQ's only consumer, so a
        # non-empty queue always has a front entry to pop, even while the
        # threaded harness's core thread appends to it.
        drained = 0
        active = []
        min_local = None
        at_edge = True
        for ct in self.cores:
            q = ct.outq._q
            while q:
                push(q.popleft())
                drained += 1
            if ct.state == CoreState.ACTIVE:
                active.append(ct)
                lt = ct.local_time
                if min_local is None or lt < min_local:
                    min_local = lt
                if lt < ct.max_local_time:
                    at_edge = False
        result.drained = drained
        self.events_drained += drained
        self._gq_depth += drained
        if self._gq_depth > self.gq_max_depth:
            self.gq_max_depth = self._gq_depth

        processed = 0
        policy = self.scheme.gq_policy
        service = self._service
        if policy == "immediate":
            pop_fifo = gq.pop_fifo
            while True:
                event = pop_fifo()
                if event is None:
                    break
                service(event)
                processed += 1
        elif policy == "oldest":
            bound = min_local if min_local is not None else self.global_time
            if bound < self.global_time:
                bound = self.global_time
            while True:
                event = gq.pop_oldest(bound)
                if event is None:
                    break
                service(event)
                processed += 1
        else:  # barrier (cycle-by-cycle / quantum-based / adaptive quantum)
            if active and at_edge:
                self.barriers_completed += 1
                while True:
                    event = gq.pop_oldest(INFINITY)
                    if event is None:
                        break
                    service(event)
                    processed += 1
                if self._adapt is not None:
                    boundary = min(ct.max_local_time for ct in active)
                    self._adapt(processed, max(1, boundary - self.global_time))
        result.processed = processed
        self._gq_depth -= processed

        # Advance global time (monotonic; excludes idle/done cores).
        if min_local is not None and min_local > self.global_time:
            self.global_time = min_local

        # Raise windows per the scheme.
        new_max = self.current_max_local()
        raised = result.raised
        for ct in active:
            if new_max > ct.max_local_time:
                ct.max_local_time = new_max
                raised.append(ct.core_id)
        self.windows_raised += len(raised)
        return result

    # --------------------------------------------------------------- service
    def _service(self, event: Event) -> None:
        """Service one GQ request and push its response and coherence
        messages straight into the cores' InQs."""
        self.requests_processed += 1
        addr = event.addr
        core = event.core
        grant, ready_ts, victims, owner, coherence_ts = self.memsys.service(
            REQUEST_KINDS[event.kind], addr, core, event.ts
        )
        cores = self.cores
        if grant is not None:
            cores[core].inq.push(
                Event(EvKind.RESPONSE, addr, core, ready_ts, grant=grant, req_seq=event.seq)
            )
        for victim in victims:
            cores[victim].inq.push(Event(EvKind.INVALIDATE, addr, victim, coherence_ts))
        if owner is not None:
            cores[owner].inq.push(Event(EvKind.DOWNGRADE, addr, owner, coherence_ts))
