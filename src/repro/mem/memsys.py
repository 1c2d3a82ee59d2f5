"""Manager-side memory system: bus + directory + NUCA L2 + DRAM.

This is the "lower level cache hierarchy" box of the paper's Figure 1.  The
simulation manager calls :meth:`MemorySystem.service` for each GQ request (in
whatever order the active slack scheme dictates); the result carries the
response-ready timestamp for the requesting core's InQ plus any coherence
messages (invalidations / downgrades) for other cores' InQs.  The bus, the
L2 banks and DRAM model occupancy only; the order in which requests reach
them — the simulation-state violations of §3.2.1 — is tracked here, once.

The interconnect is split-transaction: the shared *address/request bus* is
the contended, order-tracked resource; data returns travel a dedicated
point-to-point return path with fixed latency (so out-of-order completions —
normal even in a violation-free system — are not miscounted as distortions).

Unloaded timing of a GETS/GETX that hits in the nearest L2 bank::

    request bus (1) + bank access (8) + data return (1) = 10 cycles

which is the paper's *critical latency* — the quantum used for Q10/L10 and
the bound for S9 in the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem.directory import Directory, ReqKind
from repro.mem.dram import Dram
from repro.mem.interconnect import Bus
from repro.mem.l2nuca import L2Config, L2Nuca
from repro.violations.detect import ViolationCounters

__all__ = ["MemorySystem", "MemSysConfig"]


@dataclass(frozen=True)
class MemSysConfig:
    """Timing knobs for the shared hierarchy."""

    l2: L2Config = field(default_factory=L2Config)
    bus_transfer_cycles: int = 1
    dram_latency: int = 120
    dram_service_cycles: int = 4
    #: Directory lookup overhead (overlapped with the bank access).
    directory_cycles: int = 1
    #: Cache-to-cache forward latency (remote L1 probe + data return).
    cache_to_cache_cycles: int = 8
    #: Latency of an UPGRADE (no data transfer: directory + acks only).
    upgrade_cycles: int = 3


class MemorySystem:
    """Composite shared-hierarchy model owned by the simulation manager."""

    def __init__(
        self,
        config: MemSysConfig | None = None,
        num_cores: int = 8,
        counters: ViolationCounters | None = None,
    ) -> None:
        self.config = config or MemSysConfig()
        self.num_cores = num_cores
        # A fresh ViolationCounters is the no-op sink: standalone use (tests,
        # examples) gets a private counter set instead of Optional plumbing.
        self.counters = counters if counters is not None else ViolationCounters()
        self.bus = Bus(self.config.bus_transfer_cycles)
        self.l2 = L2Nuca(self.config.l2, num_cores)
        self.dram = Dram(self.config.dram_latency, self.config.dram_service_cycles)
        self.directory = Directory(num_cores, self.counters)
        self.requests_serviced = 0
        # Latest request timestamp seen per order-tracked resource.  Keyed on
        # the request timestamp: internal completion-time skew (NUCA hops,
        # background writebacks) is not a violation.
        self._bus_ts = 0
        self._bank_ts = [0] * self.config.l2.num_banks
        self._bank_names = [f"l2bank[{bank}]" for bank in range(self.config.l2.num_banks)]
        self._dram_ts = 0

    # ---------------------------------------------------------------- timing
    def critical_latency(self) -> int:
        """The paper's critical latency: minimum unloaded L2 access time."""
        best = min(
            self.l2.unloaded_latency(core, bank)
            for core in range(self.num_cores)
            for bank in range(self.config.l2.num_banks)
        )
        return 2 * self.config.bus_transfer_cycles + best

    # --------------------------------------------------------------- service
    def service(self, kind: ReqKind, addr: int, core: int, ts: int) -> tuple:
        """Service one request that was *created* at simulated time *ts*.

        Returns ``(grant, ready_ts, invalidate, downgrade, coherence_ts)``:
        the MESI state granted to the requester's L1 (None for PUTM), the
        simulated time the response reaches it, the cores to invalidate, the
        core to downgrade (or None) and the simulated time those coherence
        messages reach their targets.

        Must be called in the manager's chosen processing order; occupancy
        state advances in that order (simulation-time semantics, §3.2.1), and
        a request older than one already granted the same resource counts
        one simulation-state violation on it.
        """
        self.requests_serviced += 1
        cfg = self.config
        counters = self.counters
        if ts < self._bus_ts:
            counters.record_simulation_state("bus")
        else:
            self._bus_ts = ts
        arrive = self.bus.occupy(ts) + cfg.bus_transfer_cycles
        grant, invalidate, downgrade, cache_to_cache, promoted = self.directory.handle(
            kind, addr, core, ts
        )

        if kind is ReqKind.PUTM:
            done, _ = self.l2.access(addr, core, arrive, is_writeback=True)
            return None, done, (), None, 0

        if kind is ReqKind.UPGRADE and not promoted:
            ready = arrive + cfg.upgrade_cycles
        elif cache_to_cache:
            # Data comes from the remote owner's L1; the L2 absorbs the copy
            # in the background (does not delay the response).
            ready = arrive + cfg.directory_cycles + cfg.cache_to_cache_cycles
            self.l2.access(addr, core, ready, is_writeback=True)
        else:
            bank = self.l2.bank_of(addr)
            if ts < self._bank_ts[bank]:
                counters.record_simulation_state(self._bank_names[bank])
            else:
                self._bank_ts[bank] = ts
            ready, l2_hit = self.l2.access(addr, core, arrive)
            if not l2_hit:
                if ts < self._dram_ts:
                    counters.record_simulation_state("dram")
                else:
                    self._dram_ts = ts
                ready = self.dram.access(ready, addr)
        # Data return path: point-to-point, contention-free by design.
        return (
            grant,
            ready + cfg.bus_transfer_cycles,
            invalidate,
            downgrade,
            arrive + cfg.directory_cycles,
        )
