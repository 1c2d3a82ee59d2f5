"""Private L1 cache model (per core, owned by its core thread).

Set-associative, write-back, write-allocate, true-LRU, with MESI state per
line.  The L1 decides hit/miss locally; misses become OutQ events serviced by
the simulation manager's memory system (paper Figure 1).  Invalidations and
downgrades arrive from the manager through the core's InQ and are applied
here.

The cache is a *timing* structure only — data values live in the shared
functional :class:`~repro.cpu.arch.TargetMemory` and are touched at the
simulated moment the access completes (isochrone semantics, paper §3.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter

from repro._util import log2i
from repro.mem.directory import MESI

__all__ = ["L1Cache", "L1Config", "AccessResult", "L1Stats"]


@dataclass(frozen=True)
class L1Config:
    """Geometry and timing of one L1 cache."""

    size_bytes: int = 16 * 1024
    block_bytes: int = 64
    assoc: int = 4
    hit_latency: int = 1

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.block_bytes * self.assoc)


class AccessResult(enum.Enum):
    """Outcome of a local L1 lookup."""

    HIT = "hit"
    MISS = "miss"          # no copy: needs GETS (read) / GETX (write)
    UPGRADE = "upgrade"    # write to a SHARED copy: needs GETX (no data)


@dataclass
class L1Stats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    upgrades: int = 0
    invalidations_received: int = 0
    downgrades_received: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class _Line:
    __slots__ = ("tag", "state", "lru")

    def __init__(self, tag: int, state: MESI, lru: int) -> None:
        self.tag = tag
        self.state = state
        self.lru = lru


_LRU = attrgetter("lru")


class L1Cache:
    """One private L1 data cache."""

    def __init__(self, config: L1Config | None = None) -> None:
        self.config = config or L1Config()
        cfg = self.config
        self._block_shift = log2i(cfg.block_bytes)
        self._num_sets = cfg.num_sets
        if self._num_sets < 1:
            raise ValueError("cache too small for its associativity/block size")
        self._sets: list[list[_Line]] = [[] for _ in range(self._num_sets)]
        self._tick = 0
        self.stats = L1Stats()

    # ------------------------------------------------------------- geometry
    def block_addr(self, addr: int) -> int:
        """Align *addr* down to its block address."""
        return (addr >> self._block_shift) << self._block_shift

    def _index_tag(self, addr: int) -> tuple[int, int]:
        block = addr >> self._block_shift
        return block % self._num_sets, block // self._num_sets

    def _find(self, addr: int) -> _Line | None:
        index, tag = self._index_tag(addr)
        for line in self._sets[index]:
            if line.tag == tag and line.state is not MESI.INVALID:
                return line
        return None

    # --------------------------------------------------------------- access
    def access(self, addr: int, is_write: bool) -> AccessResult:
        """Look up *addr*; classify as hit / miss / upgrade.

        Does not change state on miss — call :meth:`fill` when the manager's
        response arrives.
        """
        stats = self.stats
        stats.accesses += 1
        self._tick += 1
        # ``_find`` inlined: one lookup per simulated load/store.
        block = addr >> self._block_shift
        tag = block // self._num_sets
        for line in self._sets[block % self._num_sets]:
            state = line.state
            if line.tag == tag and state is not MESI.INVALID:
                break
        else:
            stats.misses += 1
            return AccessResult.MISS
        if is_write:
            if state is MESI.SHARED:
                stats.upgrades += 1
                return AccessResult.UPGRADE
            # Write to E silently upgrades to M (standard MESI).
            if state is MESI.EXCLUSIVE:
                line.state = MESI.MODIFIED
        line.lru = self._tick
        stats.hits += 1
        return AccessResult.HIT

    def fill(self, addr: int, state: MESI) -> int | None:
        """Install a block in *state*; returns the evicted dirty block
        address (for a PUTM writeback) or None."""
        if state is MESI.INVALID:
            raise ValueError("cannot fill a line in INVALID state")
        index, tag = self._index_tag(addr)
        self._tick += 1
        tick = self._tick
        ways = self._sets[index]
        for line in ways:
            if line.tag == tag:
                line.state = state
                line.lru = tick
                return None
        if len(ways) < self.config.assoc:
            ways.append(_Line(tag, state, tick))
            return None
        # Tags are unique within a set and LRU ticks unique overall, so the
        # victim's line object is refilled in place.
        victim = min(ways, key=_LRU)
        victim_addr: int | None = None
        if victim.state is MESI.MODIFIED:
            self.stats.writebacks += 1
            victim_addr = (victim.tag * self._num_sets + index) << self._block_shift
        victim.tag = tag
        victim.state = state
        victim.lru = tick
        return victim_addr

    # ------------------------------------------------------------ coherence
    def invalidate(self, addr: int) -> bool:
        """Handle an invalidation from the directory; True if we had a copy."""
        line = self._find(addr)
        self.stats.invalidations_received += 1
        if line is None:
            return False
        line.state = MESI.INVALID
        return True

    def downgrade(self, addr: int) -> bool:
        """M/E -> S on a remote read; True if the line was dirty (data must
        be written back through the directory)."""
        line = self._find(addr)
        self.stats.downgrades_received += 1
        if line is None:
            return False
        was_dirty = line.state is MESI.MODIFIED
        line.state = MESI.SHARED
        return was_dirty

    def state_of(self, addr: int) -> MESI:
        line = self._find(addr)
        return line.state if line is not None else MESI.INVALID

    def resident_blocks(self) -> list[tuple[int, MESI]]:
        """All valid (block_address, state) pairs — for invariant checks."""
        out = []
        for index, ways in enumerate(self._sets):
            for line in ways:
                if line.state is not MESI.INVALID:
                    block = (line.tag * self._num_sets + index) << self._block_shift
                    out.append((block, line.state))
        return out
