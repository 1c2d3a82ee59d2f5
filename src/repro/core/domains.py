"""Scheduling domains: the drain → service → raise interface and the
multi-domain memory-side manager.

DESIGN.md §10.  The paper's slack window decouples *cores* from the manager;
this module decouples the manager's memory side from itself.  The
:class:`SchedulingDomain` protocol names the contract both engine loops
(sequential, threaded) drive:

    drain    core OutQs feed the domain's global queue(s);
    service  the active scheme's GQ policy picks a batch, the memory side
             executes it, responses/coherence messages land in core InQs;
    raise    global time advances and core windows are raised.

:class:`~repro.core.manager.SimulationManager` is the monolithic
implementation.  :class:`DomainManager` shards the memory side into N>1
independently-clocked domains (:mod:`repro.mem.domains`):

* each domain's batch touches only that domain's shard (private bank
  ranges, directory region, DRAM channel, violation counters);
* cross-domain coherence is exchanged only at window edges: every window is
  floored at the exchange quantum (the critical latency), so no in-flight
  message can cross a domain boundary mid-window.  Each domain keeps a local
  clock and an exchanged-timestamp horizon; an event that arrives below
  another domain's horizon is counted as a cross-domain ordering slip
  (``violations.cross_domain``), never silently reordered away.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.corethread import CoreState, CoreThread
from repro.core.events import REQUEST_KINDS, Event
from repro.core.manager import ManagerStepResult, SimulationManager
from repro.core.queues import GlobalQueue
from repro.core.schemes import INFINITY, Scheme
from repro.mem.domains import ShardedMemorySystem
from repro.violations.detect import ViolationCounters

__all__ = ["SchedulingDomain", "MemDomain", "DomainManager", "floored_window"]


def floored_window(scheme_edge: int, global_time: int, exchange_quantum: int) -> int:
    """Effective window edge under memory-side sharding (DESIGN.md §10).

    Every core window is floored at ``global_time + exchange_quantum`` so
    cross-domain coherence only moves at window edges.  The floor is a
    function of global time alone, so under a barrier policy it raises every
    active core to the *same* edge: the window edge stays a hard
    synchronization point with no mid-window GQ servicing.
    """
    floor = global_time + exchange_quantum
    return floor if scheme_edge < floor else scheme_edge


@runtime_checkable
class SchedulingDomain(Protocol):
    """What an engine loop needs from "the manager side" of a simulation.

    Both the monolithic :class:`SimulationManager` and the sharded
    :class:`DomainManager` satisfy this; the engines are written against it
    and never look behind it.
    """

    global_time: int
    requests_processed: int
    barriers_completed: int
    windows_raised: int
    events_drained: int
    gq_max_depth: int

    def step(self) -> ManagerStepResult:
        """One drain → service → raise pass (the quantum/window exchange)."""
        ...

    def refresh_window(self, ct: CoreThread) -> bool:
        """Re-read shared clocks at a core's window edge (sliding windows)."""
        ...

    def current_max_local(self) -> int:
        """Window bound for a newly activated core under the current scheme."""
        ...

    def check_invariants(self) -> None:
        ...


class MemDomain:
    """One independently-clocked memory-side domain.

    Owns a contiguous L2 bank range, the directory region of the blocks
    mapping there and one DRAM channel — all embodied by its ``memsys``
    shard — plus its own per-domain GQ.  ``clock`` is the domain's local
    time (advanced in lockstep at window-edge exchanges); ``high_ts`` is the
    highest request timestamp it has exchanged, the horizon used for
    cross-domain ordering detection.
    """

    __slots__ = ("domain_id", "memsys", "gq", "clock", "high_ts")

    def __init__(self, domain_id: int, memsys) -> None:
        self.domain_id = domain_id
        self.memsys = memsys
        self.gq = GlobalQueue()
        self.clock = 0
        self.high_ts = 0

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)


class _GQView:
    """Read-only facade presenting N per-domain GQs as one queue.

    The engines only ever *read* the manager's ``gq`` (lookahead bound,
    deadlock diagnostics, fault-install checks); pushes and pops go through
    the domain manager's step.
    """

    __slots__ = ("_domains",)

    def __init__(self, domains: list[MemDomain]) -> None:
        self._domains = domains

    def oldest_ts(self) -> int | None:
        oldest = None
        for d in self._domains:
            ts = d.gq.oldest_ts()
            if ts is not None and (oldest is None or ts < oldest):
                oldest = ts
        return oldest

    def __len__(self) -> int:
        return sum(len(d.gq) for d in self._domains)

    def __bool__(self) -> bool:
        return any(d.gq for d in self._domains)


class DomainManager(SimulationManager):
    """Sharded drain → service → raise over N>1 memory-side domains.

    Seed-stable (DESIGN.md §10): the GQ-policy pops run in one deterministic
    order and each exchange is serviced and delivered domain-major (domain
    0..N-1, within-domain pop order), so every seq draw lands on the same
    event in every run.  Not digest-identical to the monolithic manager:
    flooring coarsens the windows, which is a different simulation.
    """

    def __init__(
        self,
        cores: list[CoreThread],
        memsys: ShardedMemorySystem,
        scheme: Scheme,
        counters: ViolationCounters,
    ) -> None:
        super().__init__(cores, memsys, scheme)
        #: Engine-level counters: cross-domain slips are manager-side
        #: observations, not shard-side ones, so they land here (the shards'
        #: private counters hold their own resource-order violations).
        self.counters = counters
        self.domains = [MemDomain(k, shard) for k, shard in enumerate(memsys.shards)]
        self.gq = _GQView(self.domains)
        #: Cross-domain exchange quantum: every window is floored at
        #: ``global_time + quantum`` so coherence crosses domains only at
        #: window edges.  The critical latency is the conservative choice —
        #: no response can be consumed sooner, so flooring there cannot let
        #: a core observe a message "from the future" of another domain.
        self.exchange_quantum = memsys.critical_latency()
        self.exchanges = 0

    # -------------------------------------------------------------- windows
    def current_max_local(self) -> int:
        return floored_window(
            super().current_max_local(), self.global_time, self.exchange_quantum
        )

    # ------------------------------------------------------------------ step
    def step(self) -> ManagerStepResult:
        result = ManagerStepResult()
        domains = self.domains
        domain_of = self.memsys.domain_of
        # Fused drain/gather pass, as in the monolithic step — but each event
        # is routed to its owning domain's GQ by address range.
        drained = 0
        active = []
        min_local = None
        at_edge = True
        for ct in self.cores:
            if ct.outq._q:
                for event in ct.outq.drain():
                    domains[domain_of(event.addr)].gq.push(event)
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

        policy = self.scheme.gq_policy
        batches: list[list[Event]] = [[] for _ in domains]
        barrier_fired = False
        if policy == "immediate":
            for d in domains:
                batch = batches[d.domain_id]
                pop = d.gq.pop_fifo
                while True:
                    event = pop()
                    if event is None:
                        break
                    batch.append(event)
        elif policy == "oldest":
            bound = min_local if min_local is not None else self.global_time
            if bound < self.global_time:
                bound = self.global_time
            for d in domains:
                batch = batches[d.domain_id]
                pop = d.gq.pop_oldest
                while True:
                    event = pop(bound)
                    if event is None:
                        break
                    batch.append(event)
        else:  # barrier (cycle-by-cycle / quantum-based / adaptive quantum)
            if active and at_edge:
                barrier_fired = True
                self.barriers_completed += 1
                for d in domains:
                    batch = batches[d.domain_id]
                    pop = d.gq.pop_oldest
                    while True:
                        event = pop(INFINITY)
                        if event is None:
                            break
                        batch.append(event)

        processed = 0
        for batch in batches:
            processed += len(batch)
        if processed:
            self.exchanges += 1
            self.requests_processed += processed
            self._detect_cross_domain(batches)
            # Service and deliver domain-major in within-domain pop order.
            # A batch touches only its own domain's shard and delivery only
            # core InQs, so the domains' results never feed each other.
            deliver = self._deliver
            for d in domains:
                service = d.memsys.service
                for event in batches[d.domain_id]:
                    deliver(
                        event,
                        service(REQUEST_KINDS[event.kind], event.addr, event.core, event.ts),
                    )
        if barrier_fired and self._adapt is not None:
            boundary = min(ct.max_local_time for ct in active)
            self._adapt(processed, max(1, boundary - self.global_time))
        result.processed = processed
        self._gq_depth -= processed

        # Advance global time (monotonic; excludes idle/done cores) and the
        # domain clocks with it — domains run bulk-synchronous lockstep, so
        # after an exchange every local clock equals the global one.
        if min_local is not None and min_local > self.global_time:
            self.global_time = min_local
        gtime = self.global_time
        for d in domains:
            if d.clock < gtime:
                d.clock = gtime

        # Raise windows per the scheme (floored at the exchange quantum).
        new_max = self.current_max_local()
        raised = result.raised
        for ct in active:
            if new_max > ct.max_local_time:
                ct.max_local_time = new_max
                raised.append(ct.core_id)
        self.windows_raised += len(raised)
        return result

    def _detect_cross_domain(self, batches: list[list[Event]]) -> None:
        """Count events arriving below another domain's exchanged horizon.

        Domain d's horizon (``high_ts``) is the highest timestamp it has
        serviced.  An event in this exchange whose timestamp precedes some
        *other* domain's horizon is ordered against already-committed remote
        state — the sharded analogue of the paper's simulation-state
        violation, observable only at exchange granularity.  Horizons update
        after detection so events within one exchange never count against
        each other (they belong to the same exchange).
        """
        domains = self.domains
        best = second = 0
        best_idx = -1
        for d in domains:
            h = d.high_ts
            if h > best:
                second = best
                best = h
                best_idx = d.domain_id
            elif h > second:
                second = h
        record = self.counters.record_cross_domain
        for d in domains:
            batch = batches[d.domain_id]
            if not batch:
                continue
            horizon = second if d.domain_id == best_idx else best
            if horizon:
                late = 0
                for event in batch:
                    if event.ts < horizon:
                        late += 1
                if late:
                    record(f"domain[{d.domain_id}]", late)
        for d in domains:
            batch = batches[d.domain_id]
            if batch:
                top = max(event.ts for event in batch)
                if top > d.high_ts:
                    d.high_ts = top
