"""Directory-based MESI coherence (manager-owned).

Each block has a directory entry with presence bits and a dirty bit exactly
as in the paper's Figure 6.  The directory is consulted in manager-processing
order; under slack, requests can reach it out of simulated-time order, which
makes entry state transitions diverge from the cycle-by-cycle order — the
*simulated-system-state violation* of §3.2.2.  Those reorderings are counted
per block through :class:`~repro.violations.detect.ViolationCounters`.
"""

from __future__ import annotations

import enum

from repro.violations.detect import ViolationCounters

__all__ = ["Directory", "DirState", "ReqKind"]


class DirState(enum.Enum):
    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"  # single owner, possibly dirty (dirty bit set)


class ReqKind(enum.Enum):
    """Coherence request types arriving at the directory."""

    GETS = "gets"        # read miss
    GETX = "getx"        # write miss
    UPGRADE = "upgrade"  # write hit on a SHARED copy
    PUTM = "putm"        # dirty eviction writeback


#: :meth:`Directory.handle` returns one tuple per request,
#: ``(grant, invalidate, downgrade, cache_to_cache, upgrade_promoted)``:
#: the MESI state granted to the requester's L1 ("M"/"E"/"S", None for PUTM),
#: the cores whose L1 copy must be invalidated, the core whose M/E copy must
#: be downgraded to S (or None), whether the data is forwarded from another
#: core's cache, and whether an UPGRADE raced with an invalidation and became
#: a full GETX.  The outcomes without coherence actions are shared constants.
_E = ("E", (), None, False, False)
_S = ("S", (), None, False, False)
_M = ("M", (), None, False, False)
_PUTM = (None, (), None, False, False)


class _Entry:
    __slots__ = ("state", "sharers", "owner", "last_ts")

    def __init__(self) -> None:
        self.state = DirState.INVALID
        self.sharers: set[int] = set()
        self.owner: int | None = None
        self.last_ts = 0


class Directory:
    """Full-map directory over cache blocks."""

    def __init__(self, num_cores: int, counters: ViolationCounters | None = None) -> None:
        self.num_cores = num_cores
        # Default no-op sink: standalone directories count into a private
        # ViolationCounters instead of guarding every record with None checks.
        self.counters = counters if counters is not None else ViolationCounters()
        self._entries: dict[int, _Entry] = {}
        self.requests = 0
        self.invalidations_sent = 0
        self.downgrades_sent = 0
        self.cache_to_cache_transfers = 0

    # ------------------------------------------------------------- requests
    def handle(self, kind: ReqKind, addr: int, core: int, ts: int) -> tuple:
        """Apply one coherence request; returns the protocol actions as
        ``(grant, invalidate, downgrade, cache_to_cache, upgrade_promoted)``."""
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core {core} out of range")
        entry = self._entries.get(addr)
        if entry is None:
            entry = self._entries[addr] = _Entry()
        self.requests += 1
        if ts < entry.last_ts:
            self.counters.record_system_state("directory")
        if ts > entry.last_ts:
            entry.last_ts = ts
        if kind is ReqKind.GETS:
            return self._gets(entry, core)
        if kind is ReqKind.GETX:
            return self._getx(entry, core)
        if kind is ReqKind.UPGRADE:
            return self._upgrade(entry, core)
        if kind is ReqKind.PUTM:
            return self._putm(entry, core)
        raise AssertionError(kind)  # pragma: no cover

    def _gets(self, entry: _Entry, core: int) -> tuple:
        if entry.state is DirState.INVALID:
            entry.state = DirState.EXCLUSIVE
            entry.owner = core
            entry.sharers = {core}
            return _E
        if entry.state is DirState.EXCLUSIVE:
            owner = entry.owner
            assert owner is not None
            if owner == core:
                return _E
            entry.state = DirState.SHARED
            entry.sharers = {owner, core}
            entry.owner = None
            self.downgrades_sent += 1
            self.cache_to_cache_transfers += 1
            return "S", (), owner, True, False
        entry.sharers.add(core)
        return _S

    def _getx(self, entry: _Entry, core: int) -> tuple:
        if entry.state is DirState.INVALID:
            entry.state = DirState.EXCLUSIVE
            entry.owner = core
            entry.sharers = {core}
            return _M
        if entry.state is DirState.EXCLUSIVE:
            owner = entry.owner
            assert owner is not None
            entry.owner = core
            entry.sharers = {core}
            if owner == core:
                return _M
            self.invalidations_sent += 1
            self.cache_to_cache_transfers += 1
            return "M", (owner,), None, True, False
        victims = tuple(sorted(entry.sharers - {core}))
        entry.state = DirState.EXCLUSIVE
        entry.owner = core
        entry.sharers = {core}
        self.invalidations_sent += len(victims)
        return "M", victims, None, False, False

    def _upgrade(self, entry: _Entry, core: int) -> tuple:
        if entry.state is DirState.SHARED and core in entry.sharers:
            victims = tuple(sorted(entry.sharers - {core}))
            entry.state = DirState.EXCLUSIVE
            entry.owner = core
            entry.sharers = {core}
            self.invalidations_sent += len(victims)
            return "M", victims, None, False, False
        # Raced with a conflicting GETX: our copy is gone, fall back to GETX.
        grant, victims, owner, cache_to_cache, _ = self._getx(entry, core)
        return grant, victims, owner, cache_to_cache, True

    def _putm(self, entry: _Entry, core: int) -> tuple:
        if entry.state is DirState.EXCLUSIVE and entry.owner == core:
            entry.state = DirState.INVALID
            entry.owner = None
            entry.sharers = set()
        # Otherwise: stale writeback from a core that already lost the block.
        return _PUTM

    # ------------------------------------------------------------ inspection
    def presence_bits(self, addr: int) -> tuple[list[int], int]:
        """(presence bit vector, dirty bit) — the paper's Figure 6 view."""
        entry = self._entries.get(addr)
        bits = [0] * self.num_cores
        if entry is None:
            return bits, 0
        if entry.state is DirState.EXCLUSIVE and entry.owner is not None:
            bits[entry.owner] = 1
            return bits, 1
        for core in entry.sharers:
            bits[core] = 1
        return bits, 0

    def state_of(self, addr: int) -> DirState:
        entry = self._entries.get(addr)
        return entry.state if entry is not None else DirState.INVALID

    def sharers_of(self, addr: int) -> set[int]:
        entry = self._entries.get(addr)
        return set(entry.sharers) if entry is not None else set()
