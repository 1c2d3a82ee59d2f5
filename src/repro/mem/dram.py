"""Main-memory model: fixed access latency plus a bandwidth-limited port.

The port is an occupancy resource like the bus: requests serialise on it in
manager-processing order, so slack can reorder them (counted as
simulation-state distortion on resource ``dram``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.violations.detect import ViolationCounters

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

    def __init__(
        self,
        latency: int = 120,
        service_cycles: int = 4,
        counters: ViolationCounters | None = None,
    ) -> None:
        self.latency = latency
        self.service_cycles = service_cycles
        self.free_at = 0
        self._last_ts = 0
        self._open_row: int | None = None
        self.counters = counters if counters is not None else ViolationCounters()
        self.stats = DramStats()

    def access(self, ts: int, addr: int = 0) -> int:
        """Access starting at simulated time *ts*; returns completion time.

        The latency model is deliberately flat; *addr* only feeds the open-row
        activation statistic.
        """
        if ts < self._last_ts:
            self.counters.record_simulation_state("dram")
        start = max(ts, self.free_at)
        self.free_at = start + self.service_cycles
        self.stats.accesses += 1
        self.stats.queue_cycles += start - ts
        row = addr >> self.ROW_SHIFT
        if row != self._open_row:
            self._open_row = row
            self.stats.row_activations += 1
        if ts > self._last_ts:
            self._last_ts = ts
        return start + self.latency
