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

from repro.mem.directory import Event

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
    Same-``ts`` entries pop in push order: the heap key is ``(ts, n)``, ``n``
    this queue's own push count.
    """

    __slots__ = ("_heap", "_pushed")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._pushed = 0

    def push(self, event: Event) -> None:
        n = self._pushed = self._pushed + 1
        heapq.heappush(self._heap, (event.ts, n, event))

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

    It holds one structure, chosen by the scheme's ``gq_policy``: an
    arrival-order FIFO for ``immediate`` (popped with :meth:`pop_fifo`), a
    ``(ts, core, n)`` heap for ``barrier`` and ``oldest`` (popped with
    :meth:`pop_oldest`), ``n`` this queue's own push count.

    Timestamp-order pops break same-``ts`` ties by core id, then push
    order: two requests stamped with the same target cycle are serviced in
    core-id order no matter which core thread the host happened to run
    first.  Arrival order across cores is a *host* artifact of the engine's
    jitter-dependent turn order; one core's requests arrive in the order it
    emitted them, so (ts, core, push order) is a pure function of the
    simulated target.
    """

    __slots__ = ("_fifo", "_q", "_pushed")

    def __init__(self, policy: str) -> None:
        self._fifo = policy == "immediate"
        self._q: deque[Event] | list[tuple[int, int, int, Event]] = (
            deque() if self._fifo else []
        )
        self._pushed = 0

    def push(self, event: Event) -> None:
        if self._fifo:
            self._q.append(event)
        else:
            n = self._pushed = self._pushed + 1
            heapq.heappush(self._q, (event.ts, event.core, n, event))

    def pop_fifo(self) -> Event | None:
        """Arrival-order pop (original bounded slack: 'no such constraint')."""
        return self._q.popleft() if self._q else None

    def pop_oldest(self, max_ts: int) -> Event | None:
        """Timestamp-order pop, restricted to ``ts <= max_ts`` (conservative
        schemes: process the oldest request only once global time reaches it)."""
        heap = self._q
        if heap and heap[0][0] <= max_ts:
            return heapq.heappop(heap)[3]
        return None

    def oldest_ts(self) -> int | None:
        """Timestamp of the oldest queued request (lookahead bound; a
        timestamp-ordered queue only)."""
        return self._q[0][0] if self._q else None

    def __bool__(self) -> bool:
        return bool(self._q)

    def __len__(self) -> int:
        return len(self._q)
