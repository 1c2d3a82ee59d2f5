"""Manager-side memory system: bus + directory + NUCA L2 + DRAM.

This is the "lower level cache hierarchy" box of the paper's Figure 1.  The
simulation manager calls :meth:`MemorySystem.service` for each GQ request (in
whatever order the active slack scheme dictates); the result carries the
response-ready timestamp for the requesting core's InQ plus any coherence
messages (invalidations / downgrades) for other cores' InQs.

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

from repro.mem.directory import Directory, DirectoryOutcome, ReqKind
from repro.mem.dram import Dram
from repro.mem.interconnect import Bus
from repro.mem.l2nuca import L2Config, L2Nuca
from repro.violations.detect import ViolationCounters

__all__ = ["MemorySystem", "MemSysConfig", "ServiceResult"]


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


@dataclass
class ServiceResult:
    """Outcome of servicing one memory request."""

    #: Simulated time at which the response reaches the requesting core.
    ready_ts: int
    #: MESI state granted to the requester's L1 ("M"/"E"/"S"), None for PUTM.
    grant: str | None
    #: (victim_core, block_addr) pairs needing invalidation.
    invalidations: list[tuple[int, int]] = field(default_factory=list)
    #: (owner_core, block_addr) pairs needing M/E -> S downgrade.
    downgrades: list[tuple[int, int]] = field(default_factory=list)
    #: Simulated time at which coherence messages reach their targets.
    coherence_ts: int = 0
    l2_hit: bool = True


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
        counters = self.counters
        # Internal resources model *contention* only; out-of-order processing
        # detection happens here in service(), keyed on the request timestamp
        # (internal completion-time skew — NUCA hops, background writebacks —
        # is not a violation).
        self.bus = Bus(self.config.bus_transfer_cycles)
        self.l2 = L2Nuca(self.config.l2, num_cores)
        self.dram = Dram(self.config.dram_latency, self.config.dram_service_cycles)
        self.directory = Directory(num_cores, counters)
        self.requests_serviced = 0
        self._order_ts: dict[str, int] = {}

    # ---------------------------------------------------------------- timing
    def critical_latency(self) -> int:
        """The paper's critical latency: minimum unloaded L2 access time."""
        best = min(
            self.l2.unloaded_latency(core, bank)
            for core in range(self.num_cores)
            for bank in range(self.config.l2.num_banks)
        )
        return 2 * self.config.bus_transfer_cycles + best

    def _check_order(self, resource: str, ts: int) -> None:
        """Flag a simulation-state violation (paper §3.2.1) when a request is
        serviced out of timestamp order on a shared resource."""
        last = self._order_ts.get(resource, 0)
        if ts < last:
            self.counters.record_simulation_state(resource)
        else:
            self._order_ts[resource] = ts

    # --------------------------------------------------------------- service
    def service(self, kind: ReqKind, addr: int, core: int, ts: int) -> ServiceResult:
        """Service one request that was *created* at simulated time *ts*.

        Must be called in the manager's chosen processing order; occupancy
        state advances in that order (simulation-time semantics, §3.2.1).
        """
        self.requests_serviced += 1
        cfg = self.config
        self._check_order("bus", ts)
        grant_ts = self.bus.occupy(ts)
        arrive = grant_ts + cfg.bus_transfer_cycles
        outcome = self.directory.handle(kind, addr, core, ts)

        if kind is ReqKind.PUTM:
            done, _ = self.l2.access(addr, core, arrive, is_writeback=True)
            return ServiceResult(ready_ts=done, grant=None)

        l2_hit = True
        if kind is ReqKind.UPGRADE and not outcome.upgrade_promoted:
            ready = arrive + cfg.upgrade_cycles
        elif outcome.cache_to_cache:
            # Data comes from the remote owner's L1; the L2 absorbs the copy
            # in the background (does not delay the response).
            ready = arrive + cfg.directory_cycles + cfg.cache_to_cache_cycles
            self.l2.access(addr, core, ready, is_writeback=True)
        else:
            self._check_order(f"l2bank[{self.l2.bank_of(addr)}]", ts)
            bank_ready, l2_hit = self.l2.access(addr, core, arrive)
            if l2_hit:
                ready = bank_ready
            else:
                self._check_order("dram", ts)
                ready = self.dram.access(bank_ready, addr)
        # Data return path: point-to-point, contention-free by design.
        ready_ts = ready + cfg.bus_transfer_cycles
        coherence_ts = arrive + cfg.directory_cycles
        return ServiceResult(
            ready_ts=ready_ts,
            grant=outcome.grant,
            invalidations=[(victim, addr) for victim in outcome.invalidate],
            downgrades=[(outcome.downgrade, addr)] if outcome.downgrade is not None else [],
            coherence_ts=coherence_ts,
            l2_hit=l2_hit,
        )
