"""Banked NUCA L2 cache (manager-owned, shared by all cores).

The L2 is organised as ``num_banks`` independently-occupied banks with
non-uniform access latency: each core/bank pair has a hop distance on a
linear layout (paper §2 cites NUCA [7][11]).  Tags are tracked per bank with
set-associative LRU arrays; an L2 miss costs a DRAM round trip.

Banks are occupancy resources processed in manager order, so they exhibit
the same simulated-time distortions as the bus under slack (counted per bank
by :class:`~repro.mem.memsys.MemorySystem`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import log2i

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

    def __init__(self, config: L2Config | None = None, num_cores: int = 8) -> None:
        self.config = config or L2Config()
        cfg = self.config
        self._sets = cfg.sets_per_bank
        if self._sets < 1:
            raise ValueError("L2 too small for its banking/associativity")
        self.num_cores = num_cores
        self._block_shift = log2i(cfg.block_bytes)
        self.banks = [_BankArray(self._sets, cfg.assoc) for _ in range(cfg.num_banks)]
        self.bank_free_at = [0] * cfg.num_banks
        self.stats = L2Stats()
        self.bank_accesses = [0] * cfg.num_banks
        #: NUCA hop cycles per core, per bank.
        self._hops = [
            [cfg.hop_cycles * self.distance(core, bank) for bank in range(cfg.num_banks)]
            for core in range(num_cores)
        ]

    # ------------------------------------------------------------- geometry
    def bank_of(self, addr: int) -> int:
        return (addr >> self._block_shift) % self.config.num_banks

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
        num_banks = cfg.num_banks
        block = addr >> self._block_shift
        bank = block % num_banks
        free = self.bank_free_at[bank]
        start = ts if ts > free else free
        self.bank_free_at[bank] = start + cfg.bank_occupancy
        stats = self.stats
        stats.bank_conflict_cycles += start - ts
        bank_local = block // num_banks
        sets = self._sets
        hit = self.banks[bank].touch(bank_local % sets, bank_local // sets)
        stats.accesses += 1
        self.bank_accesses[bank] += 1
        if is_writeback:
            stats.writebacks_in += 1
            return start + cfg.bank_occupancy, hit
        if hit:
            stats.hits += 1
        else:
            stats.misses += 1
        hops = self._hops[core][bank]
        stats.hop_cycles += hops
        return start + cfg.bank_latency + hops, hit
