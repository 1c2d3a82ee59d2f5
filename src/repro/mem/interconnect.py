"""On-chip interconnect model: the shared address/request bus.

The manager simulates shared resources in the order it processes requests
(simulation-time order).  The bus keeps a ``free_at`` occupancy variable in
*simulated* time; because requests can be processed out of timestamp order
under slack, a request may find the bus "busy" due to a request from its
simulated future — exactly the simulation-state distortion of paper §3.2.1 /
Figure 4.  The bus only models occupancy: :class:`~repro.mem.memsys.MemorySystem`
counts such reorderings.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Bus", "InterconnectStats"]


@dataclass
class InterconnectStats:
    transfers: int = 0
    busy_cycles: int = 0
    contention_cycles: int = 0


class Bus:
    """A single shared bus: one transfer at a time, fixed cycles/transfer."""

    def __init__(self, transfer_cycles: int = 1) -> None:
        self.transfer_cycles = transfer_cycles
        self.free_at = 0
        self.stats = InterconnectStats()

    def occupy(self, ts: int) -> int:
        """Request the bus at simulated time *ts*; returns the grant time."""
        free = self.free_at
        grant = ts if ts > free else free
        stats = self.stats
        stats.transfers += 1
        stats.busy_cycles += self.transfer_cycles
        stats.contention_cycles += grant - ts
        self.free_at = grant + self.transfer_cycles
        return grant
