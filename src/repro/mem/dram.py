"""Main-memory model: fixed access latency plus a bandwidth-limited port.

The port is an occupancy resource like the bus: requests serialise on it in
manager-processing order, so slack can reorder them (counted by
:class:`~repro.mem.memsys.MemorySystem` as simulation-state distortion on
resource ``dram``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Dram", "DramStats"]


@dataclass
class DramStats:
    accesses: int = 0
    queue_cycles: int = 0
    #: Row-buffer activations (open-row bookkeeping only; timing is fixed).
    row_activations: int = 0


class Dram:
    """Fixed-latency DRAM with a single service port."""

    #: Row-buffer granularity for activation accounting (4 KiB rows).
    ROW_SHIFT = 12

    def __init__(self, latency: int = 120, service_cycles: int = 4) -> None:
        self.latency = latency
        self.service_cycles = service_cycles
        self.free_at = 0
        self._open_row: int | None = None
        self.stats = DramStats()

    def access(self, ts: int, addr: int = 0) -> int:
        """Access starting at simulated time *ts*; returns completion time.

        The latency model is deliberately flat; *addr* only feeds the open-row
        activation statistic.
        """
        free = self.free_at
        start = ts if ts > free else free
        self.free_at = start + self.service_cycles
        stats = self.stats
        stats.accesses += 1
        stats.queue_cycles += start - ts
        row = addr >> self.ROW_SHIFT
        if row != self._open_row:
            self._open_row = row
            stats.row_activations += 1
        return start + self.latency
