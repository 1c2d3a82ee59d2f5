"""Virtual host CMP: a deterministic multiprocessor schedule builder.

Simulation threads (N core threads + 1 manager) are scheduled greedily onto
``num_cores`` identical host cores: each step runs on a host core that can
start it earliest, like an OS spreading runnable threads.  The *makespan* of
the resulting schedule is the modeled simulation time; speedups in Figure 8
are ratios of makespans.

The H free-up times are one min-heap, and a step is one ``heapreplace``.
This is exact because the engine hands the model steps in nondecreasing
ready order (its own loop pops a host-ready heap; DESIGN.md §2): under that
order every step starts at ``max(ready, min(free_at))``, and a host core
that is free by ``ready`` stays free for every later step, so *which* free
core a step takes cannot move any later start.  The model therefore keeps no
core identity — only the multiset of free-up times — and, since a core's
free-up time only grows, the makespan is ``max(free_at)``.
"""

from __future__ import annotations

from heapq import heapreplace

__all__ = ["HostModel"]


class HostModel:
    """Greedy earliest-start scheduler over H host cores.

    Precondition: every call's *ready* is at or after the ready time of the
    previous call's last step (``poll_until``'s inner steps included).  The
    engine's loop guarantees it.  An out-of-order *ready* may start later than
    under a per-core schedule: the core that was free by then may already
    have been overwritten.
    """

    def __init__(self, num_cores: int) -> None:
        if num_cores < 1:
            raise ValueError("host needs at least one core")
        self.num_cores = num_cores
        self.free_at = [0.0] * num_cores  # a min-heap
        self.busy = 0.0
        self.steps = 0

    def run(self, ready: float, cost: float) -> float:
        """Schedule a step that becomes ready at *ready* and costs *cost*;
        returns its completion time."""
        free_at = self.free_at
        t = free_at[0]
        end = (ready if t <= ready else t) + cost
        heapreplace(free_at, end)
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

        After the first step its own completion time is in the heap, so each
        next step starts the moment its predecessor ends.  The additions stay
        one by one: costs are not dyadic, n * cost is a different float.
        """
        free_at = self.free_at
        busy = self.busy
        t = free_at[0]
        end = (ready if t <= ready else t) + cost
        busy += cost
        n = 1
        while end < until and n < max_polls:
            end += cost
            busy += cost
            n += 1
        heapreplace(free_at, end)
        self.busy = busy
        self.steps += n
        return end, n

    def makespan(self) -> float:
        return max(self.free_at)
