"""Memory-side sharding into independently-clocked scheduling domains.

The monolithic :class:`~repro.mem.memsys.MemorySystem` serializes the whole
L2/directory/interconnect/DRAM side behind one manager — the scaling ceiling
the benchmarks show for barrier schemes.  This module partitions that side by
address range into N shards (DESIGN.md §10): contiguous L2 bank ranges, the
directory region covering the blocks that map to those banks, and one DRAM
channel per shard.  Every request is owned by exactly one shard
(``domain_of(addr)``), so shards never share mutable timing state.

Each shard is a *full-geometry* MemorySystem: it keeps the complete bank
array, set indexing and NUCA distance map of the monolithic system but only
ever sees the addresses it owns.  For any fixed address stream the shard's
timing/state trajectory is therefore identical to the monolithic system's
trajectory restricted to that stream — which is what makes the 1-domain
sharded configuration byte-identical to the monolithic manager, and lets
per-domain behaviour be compared against the monolith bank-by-bank.

Shards carry private :class:`ViolationCounters` (summed at report time).
"""

from __future__ import annotations

from repro.mem.l2nuca import banks_of_domain, domain_of_bank
from repro.mem.memsys import MemorySystem, MemSysConfig
from repro.violations.detect import ViolationCounters

__all__ = ["ShardedMemorySystem"]


class ShardedMemorySystem:
    """N address-range shards of the shared hierarchy, one per domain."""

    def __init__(
        self,
        config: MemSysConfig | None = None,
        num_cores: int = 8,
        num_domains: int = 1,
    ) -> None:
        self.config = config or MemSysConfig()
        num_banks = self.config.l2.num_banks
        if not 1 <= num_domains <= num_banks:
            raise ValueError(
                f"mem_domains must be in [1, {num_banks}] "
                f"(one L2 bank per domain minimum; got {num_domains})"
            )
        self.num_cores = num_cores
        self.num_domains = num_domains
        # The "d{k}:" resource prefix namespaces violations.by_resource per
        # domain — but only when actually sharded: at N=1 the keys must stay
        # identical to the monolithic system's so digests match byte-for-byte.
        self.shards = [
            MemorySystem(
                self.config,
                num_cores,
                counters=ViolationCounters(),
                resource_prefix=f"d{k}:" if num_domains > 1 else "",
                dram_channel=k,
            )
            for k in range(num_domains)
        ]
        self._num_banks = num_banks
        self._l2 = self.shards[0].l2  # geometry reference for bank_of

    # ------------------------------------------------------------- partition
    def domain_of(self, addr: int) -> int:
        """Owning domain of *addr* (via its L2 bank; contiguous bank ranges)."""
        return domain_of_bank(self._l2.bank_of(addr), self._num_banks, self.num_domains)

    def banks_of(self, domain: int) -> range:
        return banks_of_domain(domain, self._num_banks, self.num_domains)

    # ---------------------------------------------------------------- timing
    def critical_latency(self) -> int:
        """Same critical latency as the monolith (shards share its geometry);
        doubles as the cross-domain exchange quantum (DESIGN.md §10)."""
        return self.shards[0].critical_latency()

    # ------------------------------------------------------------ aggregation
    @property
    def requests_serviced(self) -> int:
        return sum(s.requests_serviced for s in self.shards)

    def bank_accesses(self) -> list[int]:
        """Element-wise sum of per-bank access counts (each shard only ever
        touches its own bank range, so this is a disjoint merge)."""
        total = [0] * self._num_banks
        for shard in self.shards:
            for bank, count in enumerate(shard.l2.bank_accesses):
                total[bank] += count
        return total

    def sum_stat(self, path: str) -> int:
        """Sum one ``component.field`` stat over shards, e.g. ``bus.transfers``
        or ``directory.invalidations_sent``."""
        component, field = path.split(".")
        total = 0
        for shard in self.shards:
            obj = getattr(shard, component)
            obj = getattr(obj, "stats", obj) if component != "directory" else obj
            total += getattr(obj, field)
        return total

    def merged_counters(self, engine: ViolationCounters) -> ViolationCounters:
        """Fold the shards' private violation counters into a report-time
        total alongside the engine's own (workload-state, cross-domain).

        by_resource merges engine-first then shards in domain order; at N=1
        that reproduces the monolithic dict exactly (the engine records no
        memory-side resources itself, and shard 0 records them in the same
        temporal order the single counters object would have).
        """
        merged = ViolationCounters(
            simulation_state=engine.simulation_state,
            system_state=engine.system_state,
            workload_state=engine.workload_state,
            fastforwards=engine.fastforwards,
            fastforward_cycles=engine.fastforward_cycles,
            cross_domain=engine.cross_domain,
            by_resource=dict(engine.by_resource),
        )
        for shard in self.shards:
            c = shard.counters
            merged.simulation_state += c.simulation_state
            merged.system_state += c.system_state
            merged.workload_state += c.workload_state
            merged.fastforwards += c.fastforwards
            merged.fastforward_cycles += c.fastforward_cycles
            merged.cross_domain += c.cross_domain
            for resource, count in c.by_resource.items():
                merged.by_resource[resource] = merged.by_resource.get(resource, 0) + count
        return merged
