"""Virtual host CMP: a deterministic multiprocessor schedule builder.

Simulation threads (N core threads + 1 manager) are scheduled greedily onto
``num_cores`` identical host cores: each step runs on the host core that can
start it earliest (earliest-available, lowest index on ties), like an OS
spreading runnable threads.  The *makespan* of the resulting schedule is the
modeled simulation time; speedups in Figure 8 are ratios of makespans.

The scheduler is incremental: instead of scanning all H cores per step, it
keeps a min-heap of busy cores keyed by free-up time plus a min-heap of idle
core indices, giving O(log H) per step while producing *exactly* the same
core choice as the original scan (earliest start, lowest index on ties),
including for non-monotonic ready times — entries are validated lazily
against the ``free_at`` ground truth and re-filed when stale.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

__all__ = ["HostModel", "HostReport"]


@dataclass
class HostReport:
    makespan: float
    busy: float
    num_cores: int

    @property
    def utilization(self) -> float:
        return self.busy / (self.makespan * self.num_cores) if self.makespan > 0 else 0.0


class HostModel:
    """Greedy earliest-start scheduler over H host cores."""

    def __init__(self, num_cores: int) -> None:
        if num_cores < 1:
            raise ValueError("host needs at least one core")
        self.num_cores = num_cores
        self.free_at = [0.0] * num_cores
        self.busy = 0.0
        self.steps = 0
        self._makespan = 0.0
        # Invariant: every core appears in at least one heap; stale entries
        # (free_at changed since filing) are dropped/re-filed on pop.
        self._idle: list[int] = list(range(num_cores))  # free_at <= some past ready
        self._busy_heap: list[tuple[float, int]] = []   # (free_at when filed, idx)
        # For small hosts (every config in the paper: 1-8 cores) a linear
        # scan beats the heaps on constants; both produce the identical
        # earliest-start, lowest-index-on-ties schedule.
        if num_cores <= 16:
            self.run = self._run_linear  # type: ignore[method-assign]
            self.poll_until = self._poll_until_linear  # type: ignore[method-assign]

    def _run_linear(self, ready: float, cost: float) -> float:
        free_at = self.free_at
        chosen = -1
        for c, t in enumerate(free_at):
            if t <= ready:
                chosen = c
                start = ready
                break
        if chosen < 0:
            start = min(free_at)
            chosen = free_at.index(start)
        end = start + cost
        free_at[chosen] = end
        if end > self._makespan:
            self._makespan = end
        self.busy += cost
        self.steps += 1
        return end

    def run(self, ready: float, cost: float) -> float:
        """Schedule a step that becomes ready at *ready* and costs *cost*;
        returns its completion time."""
        free_at = self.free_at
        busy_heap = self._busy_heap
        idle = self._idle
        # Release cores that have freed up by *ready*.
        while busy_heap and busy_heap[0][0] <= ready:
            t, c = heapq.heappop(busy_heap)
            if free_at[c] == t:
                heapq.heappush(idle, c)
        # Prefer the lowest-index core that can start at *ready*; entries
        # whose free time moved past *ready* (possible when ready times are
        # not monotonic) go back to the busy heap.
        chosen = -1
        start = ready
        while idle:
            c = heapq.heappop(idle)
            if free_at[c] <= ready:
                chosen = c
                break
            heapq.heappush(busy_heap, (free_at[c], c))
        if chosen < 0:
            # All cores busy past *ready*: earliest free-up wins, index
            # breaks ties ((t, c) heap order matches the original scan).
            while True:
                t, c = heapq.heappop(busy_heap)
                if free_at[c] == t:
                    chosen = c
                    start = t
                    break
        end = start + cost
        free_at[chosen] = end
        heapq.heappush(busy_heap, (end, chosen))
        if end > self._makespan:
            self._makespan = end
        self.busy += cost
        self.steps += 1
        return end

    def poll_until(
        self, ready: float, cost: float, until: float, max_polls: int
    ) -> tuple[float, int]:
        """Back-to-back steps of one thread: the first ready at *ready*, each
        next one ready when the previous completes, for as long as the
        completion time is below *until* (at least one, at most *max_polls*).
        Returns ``(completion time of the last, how many ran)``."""
        run = self.run
        done_t = run(ready, cost)
        n = 1
        while done_t < until and n < max_polls:
            done_t = run(done_t, cost)
            n += 1
        return done_t, n

    def _poll_until_linear(
        self, ready: float, cost: float, until: float, max_polls: int
    ) -> tuple[float, int]:
        # A step ready exactly when its predecessor's core frees up stays on
        # that core unless a lower-index core has freed up by then, so the
        # scan is redone only when *low* is crossed.  The additions stay
        # one by one: costs are not dyadic, n * cost is a different float.
        free_at = self.free_at
        busy = self.busy
        n = 0
        while True:
            chosen = -1
            for c, t in enumerate(free_at):
                if t <= ready:
                    chosen = c
                    end = ready
                    break
            if chosen < 0:
                end = min(free_at)
                chosen = free_at.index(end)
            end += cost
            busy += cost
            n += 1
            if end < until and n < max_polls:
                low = min(until, *free_at[:chosen]) if chosen else until
                while end < low and n < max_polls:
                    end += cost
                    busy += cost
                    n += 1
            free_at[chosen] = end
            if end >= until or n >= max_polls:
                break
            ready = end
        if end > self._makespan:
            self._makespan = end
        self.busy = busy
        self.steps += n
        return end, n

    def makespan(self) -> float:
        return self._makespan

    def report(self) -> HostReport:
        return HostReport(makespan=self.makespan(), busy=self.busy, num_cores=self.num_cores)
