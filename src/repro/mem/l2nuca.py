"""Banked NUCA L2 cache (manager-owned, shared by all cores).

The L2 is organised as ``num_banks`` independently-occupied banks with
non-uniform access latency: each core/bank pair has a hop distance on a
linear layout (paper §2 cites NUCA [7][11]).  Tags are tracked per bank with
set-associative LRU arrays; an L2 miss costs a DRAM round trip.

Banks are occupancy resources processed in manager order, so they exhibit
the same simulated-time distortions as the bus under slack (counted per
bank).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import log2i
from repro.violations.detect import ViolationCounters

__all__ = ["L2Nuca", "L2Config", "L2Stats"]


@dataclass(frozen=True)
class L2Config:
    """Geometry and timing of the shared L2."""

    size_bytes: int = 256 * 1024
    block_bytes: int = 64
    assoc: int = 8
    num_banks: int = 8
    #: Cycles for the bank access itself (the paper's critical latency is the
    #: unloaded L2 access = bus + bank_latency + bus back = 10 by default).
    bank_latency: int = 8
    #: Extra cycles per hop of core<->bank distance (NUCA non-uniformity).
    hop_cycles: int = 1
    #: Cycles a bank stays busy per request (occupancy / throughput).
    bank_occupancy: int = 2

    @property
    def sets_per_bank(self) -> int:
        return self.size_bytes // (self.block_bytes * self.assoc * self.num_banks)


@dataclass
class L2Stats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks_in: int = 0
    bank_conflict_cycles: int = 0
    hop_cycles: int = 0


class _BankArray:
    """Set-associative LRU tag array for one bank."""

    __slots__ = ("num_sets", "assoc", "sets", "tick")

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets: list[dict[int, int]] = [dict() for _ in range(num_sets)]  # tag -> lru
        self.tick = 0

    def touch(self, set_index: int, tag: int) -> bool:
        """Access (allocate on miss); returns hit?"""
        self.tick += 1
        ways = self.sets[set_index]
        if tag in ways:
            ways[tag] = self.tick
            return True
        if len(ways) >= self.assoc:
            victim = min(ways, key=ways.get)  # type: ignore[arg-type]
            del ways[victim]
        ways[tag] = self.tick
        return False


class L2Nuca:
    """The shared lower-level cache hierarchy simulated by the manager."""

    def __init__(
        self,
        config: L2Config | None = None,
        num_cores: int = 8,
        counters: ViolationCounters | None = None,
    ) -> None:
        self.config = config or L2Config()
        cfg = self.config
        if cfg.sets_per_bank < 1:
            raise ValueError("L2 too small for its banking/associativity")
        self.num_cores = num_cores
        self._block_shift = log2i(cfg.block_bytes)
        self.banks = [_BankArray(cfg.sets_per_bank, cfg.assoc) for _ in range(cfg.num_banks)]
        self.bank_free_at = [0] * cfg.num_banks
        self._bank_last_ts = [0] * cfg.num_banks
        self.counters = counters if counters is not None else ViolationCounters()
        self.stats = L2Stats()
        self.bank_accesses = [0] * cfg.num_banks

    # ------------------------------------------------------------- geometry
    def bank_of(self, addr: int) -> int:
        return (addr >> self._block_shift) % self.config.num_banks

    def _set_tag(self, addr: int) -> tuple[int, int]:
        block = addr >> self._block_shift
        bank_local = block // self.config.num_banks
        return bank_local % self.config.sets_per_bank, bank_local // self.config.sets_per_bank

    def distance(self, core: int, bank: int) -> int:
        """Hop distance on a linear placement of cores over banks."""
        scale = max(1, self.config.num_banks) / max(1, self.num_cores)
        position = int(core * scale)
        return abs(position - bank)

    def unloaded_latency(self, core: int = 0, bank: int | None = None) -> int:
        """Latency of an uncontended hit (used to derive the critical latency)."""
        if bank is None:
            bank = int(core * max(1, self.config.num_banks) / max(1, self.num_cores))
        return self.config.bank_latency + self.config.hop_cycles * self.distance(core, bank)

    # --------------------------------------------------------------- access
    def access(self, addr: int, core: int, ts: int, *, is_writeback: bool = False) -> tuple[int, bool]:
        """Access the L2 at simulated time *ts* on behalf of *core*.

        Returns ``(data_ready_ts, hit)``; for writebacks the result time is
        when the bank absorbed the data.
        """
        cfg = self.config
        bank = self.bank_of(addr)
        if ts < self._bank_last_ts[bank]:
            self.counters.record_simulation_state(f"l2bank[{bank}]")
        start = max(ts, self.bank_free_at[bank])
        self.bank_free_at[bank] = start + cfg.bank_occupancy
        self.stats.bank_conflict_cycles += start - ts
        if ts > self._bank_last_ts[bank]:
            self._bank_last_ts[bank] = ts
        set_index, tag = self._set_tag(addr)
        hit = self.banks[bank].touch(set_index, tag)
        self.stats.accesses += 1
        self.bank_accesses[bank] += 1
        if is_writeback:
            self.stats.writebacks_in += 1
            return start + cfg.bank_occupancy, hit
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        hops = cfg.hop_cycles * self.distance(core, bank)
        self.stats.hop_cycles += hops
        latency = cfg.bank_latency + hops
        return start + latency, hit
