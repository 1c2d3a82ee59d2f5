"""Event queues: per-core OutQ / InQ and the manager's global GQ.

The GQ "consolidates all the local thread OutQ requests in a single queue,
which allows the thread manager to efficiently manage and schedule all the
GQ events" (paper §2.2).  It supports the two processing disciplines the
schemes need: FIFO arrival order (bounded/unbounded slack) and oldest-first
by timestamp with a release bound (cycle-by-cycle / quantum / lookahead /
oldest-first bounded).
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.core.events import Event

__all__ = ["OutQ", "InQ", "GlobalQueue"]


class OutQ:
    """A core thread's outgoing request queue (core -> manager)."""

    __slots__ = ("_q",)

    def __init__(self) -> None:
        self._q: deque[Event] = deque()

    def push(self, event: Event) -> None:
        self._q.append(event)

    def drain(self) -> list[Event]:
        """Remove and return all entries (manager side).

        Implemented with atomic ``popleft`` so a concurrent producer (the
        real-thread test harness's core thread) can never lose an event.
        """
        items: list[Event] = []
        q = self._q
        while True:
            try:
                items.append(q.popleft())
            except IndexError:
                return items

    def __bool__(self) -> bool:
        return bool(self._q)

    def __len__(self) -> int:
        return len(self._q)


class InQ:
    """A core thread's incoming queue (manager -> core), ordered by ts.

    The core "enquires its InQ in every cycle" and consumes entries whose
    timestamp has been reached.  Entries from the simulated past (possible
    under slack) are consumed immediately — a time distortion, not an error.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Event]] = []

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.ts, event.seq, event))

    def pop_due(self, now: int) -> Event | None:
        """Pop the earliest entry with ``ts <= now``, else None."""
        if self._heap and self._heap[0][0] <= now:
            return heapq.heappop(self._heap)[2]
        return None

    def peek_ts(self) -> int | None:
        """Timestamp of the earliest entry (for stall skip-ahead)."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)


class GlobalQueue:
    """The manager's consolidated request queue.

    Timestamp-order pops break same-``ts`` ties by ``(core, seq)`` rather
    than bare creation order: two requests stamped with the same target
    cycle are serviced in core-id order no matter which core thread the
    host happened to run first.  Creation order is a *host* artifact of
    the engine's jitter-dependent turn order, while (ts, core, within-core
    order) is a pure function of the simulated target.
    """

    __slots__ = ("_fifo", "_heap", "_live")

    def __init__(self) -> None:
        self._fifo: deque[Event] = deque()
        self._heap: list[tuple[int, int, int, Event]] = []
        #: Unconsumed events.  Each policy pops through one structure only,
        #: so every pop also trims consumed entries off the front of the
        #: other: neither outgrows the live events (plus consumed ones stuck
        #: behind a live front entry), whatever the run has pushed in all.
        self._live = 0

    def __setstate__(self, state) -> None:
        slots = state[1]
        self._fifo = slots["_fifo"]
        self._heap = slots["_heap"]
        # A format-3 checkpoint written before the live count existed.
        self._live = slots.get("_live", sum(1 for e in self._fifo if not e.consumed))

    def push(self, event: Event) -> None:
        self._fifo.append(event)
        heapq.heappush(self._heap, (event.ts, event.core, event.seq, event))
        self._live += 1

    def pop_fifo(self) -> Event | None:
        """Arrival-order pop (original bounded slack: 'no such constraint')."""
        fifo = self._fifo
        while fifo:
            event = fifo.popleft()
            if not event.consumed:
                event.consumed = True
                self._live -= 1
                heap = self._heap
                while heap and heap[0][3].consumed:
                    heapq.heappop(heap)
                return event
        return None

    def pop_oldest(self, max_ts: int) -> Event | None:
        """Timestamp-order pop, restricted to ``ts <= max_ts`` (conservative
        schemes: process the oldest request only once global time reaches it)."""
        heap = self._heap
        while heap and heap[0][0] <= max_ts:
            event = heapq.heappop(heap)[3]
            if not event.consumed:
                event.consumed = True
                self._live -= 1
                fifo = self._fifo
                while fifo and fifo[0].consumed:
                    fifo.popleft()
                return event
        return None

    def oldest_ts(self) -> int | None:
        """Timestamp of the oldest unconsumed request (lookahead bound)."""
        heap = self._heap
        while heap and heap[0][3].consumed:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def __bool__(self) -> bool:
        return self._live > 0

    def __len__(self) -> int:
        return self._live
