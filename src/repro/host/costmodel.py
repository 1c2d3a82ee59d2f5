"""Host cost model: how much host work one simulation-thread step costs.

This is the calibrated substitute for measuring wall-clock time on the
paper's dual quad-core Xeon (DESIGN.md §2): pure-Python execution under the
GIL cannot exhibit parallel speedup, so host time is *modeled*.  Costs are
deliberately simple — linear in simulated cycles and events, with seeded
lognormal jitter that models instruction-mix variance across threads (the
load imbalance that makes barrier-heavy schemes slow).

Unit convention: 1 host-time unit ~ the work to simulate one target cycle of
one core.  :data:`HOST_UNIT_SECONDS` converts modeled units to "seconds" for
KIPS-style reporting (Table 2); it was fixed once so the baseline lands in
the paper's 110-130 KIPS range and is never tuned per scheme.

Each simulation thread's jitter is its own seeded stream, drawn in numpy
blocks and held as a plain list consumed with ``list.pop``: a draw costs one
C call, and the engine's barrier superstep, which charges its one-cycle
turns as a precomputed :meth:`CostModel.batch_base` x a draw, reads the very
same lists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: repro.core imports this module back
    from repro.core.config import HostConfig
    from repro.core.corethread import BatchStats

__all__ = ["CostModel", "HOST_UNIT_SECONDS"]

#: Modeled host-time unit, in seconds (for KIPS conversion only).
HOST_UNIT_SECONDS = 1.1e-6

#: Jitter draws are produced in vectorized blocks: one numpy call per
#: _JITTER_BLOCK turns instead of per turn (the single-draw call dominated
#: the engine's wall-clock profile).  The stream of values is a function of
#: the seed alone, so determinism is unaffected.
_JITTER_BLOCK = 512


class CostModel:
    """Deterministic, seeded cost generator.

    Batch-aware by construction: a core turn's cost is linear in the cycles
    and events it covered — *except* wait stretches the core thread jumped
    over in one ``skip`` call.  Those cost O(1) host work per stretch plus a
    token per-cycle charge for clock bookkeeping, because the simulator never
    executed them: this is where run-ahead batching earns modeled-host speed
    (a core stalled 200 cycles on a memory grant costs a couple of units, not
    200×idle).  One jitter draw is made per core turn and per non-idle manager
    step; idle manager polls are deliberately jitter-free (a constant), which
    is what lets the engine elide provably-idle manager steps while charging
    bit-identical host time.
    """

    def __init__(self, config: HostConfig, seed: int, num_cores: int) -> None:
        self.config = config
        sigma = config.jitter_sigma
        self._sigma = sigma
        self._mean = -0.5 * sigma * sigma
        # One generator per simulation thread: core threads by id, then the
        # manager at index -1 (the engine's index for it).
        self._rngs = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))
            for key in [*range(1000, 1000 + num_cores), 999]
        ]
        #: Each thread's pending jitter draws, the next one last: a block is
        #: stored reversed so ``list.pop`` consumes it in draw order, and
        #: :meth:`refill_jitter` refills the emptied list in place (callers
        #: hold on to it).  At ``jitter_sigma=0`` every draw is exactly 1.0,
        #: a bit-exact no-op.
        self.jitter: list[list[float]] = [[] for _ in self._rngs]
        # Hot-path constants hoisted out of the per-turn call.
        self._cycle_cost = config.cycle_cost
        self._idle_cost = config.idle_cycle_cost
        self._event_cost = config.event_cost
        self._suspend_cost = config.suspend_cost
        self._skip_cost = config.skip_cycle_cost
        self._stretch_cost = config.skip_stretch_cost
        self._poll_cost = config.manager_poll_cost
        self._request_cost = config.manager_request_cost

    def refill_jitter(self, thread: int) -> float:
        """Refill *thread*'s emptied jitter list with its next block and
        return the block's first draw (popped)."""
        draws = self.jitter[thread]
        draws += self._rngs[thread].lognormal(
            mean=self._mean, sigma=self._sigma, size=_JITTER_BLOCK
        )[::-1].tolist()
        return draws.pop()

    def batch_base(self, stats: BatchStats) -> float:
        """The jitter-free host work of one core-thread batch."""
        return (
            stats.active_cycles * self._cycle_cost
            + stats.idle_cycles * self._idle_cost
            + stats.skipped_cycles * self._skip_cost
            + stats.skip_stretches * self._stretch_cost
            + (stats.events_out + stats.events_in) * self._event_cost
        )

    def core_batch_cost(self, core_id: int, stats: BatchStats, *, suspended: bool) -> float:
        """Host work for one core-thread batch."""
        jit = self.jitter[core_id]
        cost = self.batch_base(stats) * (jit.pop() if jit else self.refill_jitter(core_id))
        if suspended:
            cost += self._suspend_cost
        # Every scheduled step costs at least something (loop overhead).
        return cost if cost > 0.05 else 0.05

    def manager_step_cost(self, drained: int, processed: int) -> float:
        """Host work for one manager polling pass.

        The idle-poll cost is a jitter-free constant: the engine relies on
        this to skip idle manager steps without perturbing the RNG stream or
        the modeled timeline.
        """
        if drained == 0 and processed == 0:
            return self._poll_cost
        cost = self._poll_cost + processed * self._request_cost + 0.2 * drained
        jit = self.jitter[-1]
        return cost * (jit.pop() if jit else self.refill_jitter(-1))

    @property
    def wake_cost(self) -> float:
        return self.config.wake_cost

    @property
    def wake_fanout_cost(self) -> float:
        return self.config.wake_fanout_cost
