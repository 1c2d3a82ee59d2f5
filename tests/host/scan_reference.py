"""The scan-based host scheduler: ``repro.host.hostmodel``'s test oracle.

This is the schedule builder ``src/repro/host/hostmodel.py`` held until the
free-up times became one min-heap, unchanged in behaviour: every step scans
the H cores' free-up times in index order and takes the lowest-index core
free by *ready* (else the earliest-free one), and ``poll_until`` keeps a
thread on its core until a lower-index core frees up.  Unlike the shipped
model it tracks core identity and a running makespan, and it is correct for
any order of *ready* values; ``tests/host/test_hostmodel.py`` checks the two
agree on every nondecreasing-ready sequence.
"""

from __future__ import annotations


class ScanHostModel:
    """Greedy earliest-start scheduler over H host cores (lowest index on
    ties), one linear scan per step."""

    def __init__(self, num_cores: int) -> None:
        if num_cores < 1:
            raise ValueError("host needs at least one core")
        self.num_cores = num_cores
        self.free_at = [0.0] * num_cores
        self.busy = 0.0
        self.steps = 0
        self._makespan = 0.0

    def run(self, ready: float, cost: float) -> float:
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

    def poll_until(
        self, ready: float, cost: float, until: float, max_polls: int
    ) -> tuple[float, int]:
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


def last_step_ready(ready: float, first_free: float, cost: float, n: int) -> float:
    """The ready time of the last of the *n* steps a ``poll_until(ready, cost,
    ...)`` call ran, given the earliest free-up time *first_free* before it:
    *ready* for one step, else the completion time of step n - 1."""
    if n == 1:
        return ready
    end = (ready if first_free <= ready else first_free) + cost
    for _ in range(n - 2):
        end += cost
    return end
