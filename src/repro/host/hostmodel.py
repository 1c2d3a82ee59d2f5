"""Virtual host CMP: a deterministic multiprocessor schedule builder.

Simulation threads (N core threads + 1 manager) are scheduled greedily onto
``num_cores`` identical host cores: each step runs on the host core that can
start it earliest (earliest-available, lowest index on ties), like an OS
spreading runnable threads.  The *makespan* of the resulting schedule is the
modeled simulation time; speedups in Figure 8 are ratios of makespans.

The scheduler is one linear scan over the H cores' free-up times per step.
Every configuration the experiments use has at most 8 host cores, where a
scan beats any heap on constants; a wider host (the goldens pin H = 32)
gets the same schedule from a longer scan.
"""

from __future__ import annotations

__all__ = ["HostModel"]


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

    def run(self, ready: float, cost: float) -> float:
        """Schedule a step that becomes ready at *ready* and costs *cost*;
        returns its completion time."""
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
        """Back-to-back steps of one thread: the first ready at *ready*, each
        next one ready when the previous completes, for as long as the
        completion time is below *until* (at least one, at most *max_polls*).
        Returns ``(completion time of the last, how many ran)`` — step for
        step what that many :meth:`run` calls return.

        A step ready exactly when its predecessor's core frees up stays on
        that core unless a lower-index core has freed up by then, so the
        scan is redone only when *low* is crossed.  The additions stay one
        by one: costs are not dyadic, n * cost is a different float.
        """
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
