"""Tests for the interconnect, L2 NUCA, DRAM and the composed MemorySystem."""

from repro.mem.directory import MESI, EvKind
from repro.mem.dram import Dram
from repro.mem.interconnect import Bus
from repro.mem.l2nuca import L2Config, L2Nuca
from repro.mem.memsys import MemorySystem, MemSysConfig
from repro.violations.detect import ViolationCounters


class TestBus:
    def test_uncontended_grants_at_request_time(self):
        bus = Bus(transfer_cycles=2)
        assert bus.occupy(10) == 10
        assert bus.free_at == 12

    def test_contention_serialises(self):
        bus = Bus(transfer_cycles=2)
        assert bus.occupy(10) == 10
        assert bus.occupy(10) == 12
        assert bus.occupy(11) == 14
        assert bus.stats.contention_cycles == 2 + 3

    def test_figure4_scenario(self):
        """Paper Figure 4: P1 (clock 3) gets the bus; P2's request at clock 2
        is processed later and finds it busy -> granted only after release."""
        bus = Bus(transfer_cycles=2)
        grant_p1 = bus.occupy(3)
        grant_p2 = bus.occupy(2)
        assert grant_p1 == 3
        assert grant_p2 == 5  # would have been 2 in cycle-by-cycle order


class TestDram:
    def test_latency_plus_queue(self):
        dram = Dram(latency=100, service_cycles=10)
        assert dram.access(0) == 100
        assert dram.access(0) == 110  # port busy until 10


class TestL2:
    def test_bank_mapping_spreads_blocks(self):
        l2 = L2Nuca(L2Config(num_banks=4))
        banks = {l2.bank_of(i * 64) for i in range(8)}
        assert banks == {0, 1, 2, 3}

    def test_hit_after_fill(self):
        l2 = L2Nuca()
        _, hit = l2.access(0x1000, 0, 0)
        assert not hit
        _, hit = l2.access(0x1000, 0, 10)
        assert hit

    def test_nuca_distance_affects_latency(self):
        l2 = L2Nuca(L2Config(num_banks=8, bank_latency=8, hop_cycles=1), num_cores=8)
        near = l2.unloaded_latency(0, 0)
        far = l2.unloaded_latency(0, 7)
        assert near == 8 and far == 15

    def test_bank_conflicts_serialise(self):
        cfg = L2Config(num_banks=1, bank_occupancy=4)
        l2 = L2Nuca(cfg, num_cores=2)
        t0, _ = l2.access(0x0, 0, 0)
        t1, _ = l2.access(0x40, 1, 0)  # same bank, busy
        assert t1 > t0 - cfg.bank_latency  # started later
        assert l2.stats.bank_conflict_cycles == 4


class TestMemorySystem:
    def make(self, **kw):
        counters = ViolationCounters()
        return MemorySystem(MemSysConfig(**kw), num_cores=8, counters=counters), counters

    def test_critical_latency_is_ten_by_default(self):
        ms, _ = self.make()
        assert ms.critical_latency() == 10

    def test_gets_returns_after_l2_roundtrip(self):
        ms, _ = self.make(dram_latency=50)
        grant, ready_ts, _, _, _ = ms.service(EvKind.GETS, 0x0, 0, 100)
        # cold miss goes to DRAM
        assert ms.l2.stats.misses == 1 and ms.dram.stats.accesses == 1
        assert ready_ts > 100 + 50
        assert grant is MESI.EXCLUSIVE

    def test_l2_hit_is_fast(self):
        ms, _ = self.make()
        ms.service(EvKind.GETS, 0x0, 0, 0)      # warm the L2
        ms.service(EvKind.PUTM, 0x0, 0, 10)     # release ownership
        _, ready_ts, _, _, _ = ms.service(EvKind.GETS, 0x0, 0, 1000)
        assert ms.l2.stats.hits == 1 and ms.dram.stats.accesses == 1
        assert 1000 + 10 <= ready_ts <= 1000 + 30

    def test_getx_sends_invalidations(self):
        ms, _ = self.make()
        ms.service(EvKind.GETS, 0x0, 0, 0)
        ms.service(EvKind.GETS, 0x0, 1, 20)
        grant, _, invalidate, downgrade, coherence_ts = ms.service(EvKind.GETX, 0x0, 2, 40)
        assert grant is MESI.MODIFIED
        assert sorted(invalidate) == [0, 1] and downgrade is None
        assert coherence_ts >= 40

    def test_remote_dirty_read_downgrades(self):
        ms, _ = self.make()
        ms.service(EvKind.GETX, 0x40, 3, 0)
        grant, _, invalidate, downgrade, _ = ms.service(EvKind.GETS, 0x40, 5, 30)
        assert downgrade == 3 and not invalidate
        assert grant is MESI.SHARED

    def test_upgrade_is_cheaper_than_getx(self):
        ms, _ = self.make()
        ms.service(EvKind.GETS, 0x80, 0, 0)
        ms.service(EvKind.GETS, 0x80, 1, 10)
        _, up_ready, _, _, _ = ms.service(EvKind.UPGRADE, 0x80, 0, 1000)
        ms2, _ = self.make()
        ms2.service(EvKind.GETS, 0x80, 1, 10)
        ms2.service(EvKind.PUTM, 0x80, 1, 20)
        _, getx_ready, _, _, _ = ms2.service(EvKind.GETX, 0x80, 0, 1000)
        assert up_ready - 1000 < getx_ready - 1000

    def test_putm_has_no_response_grant(self):
        ms, _ = self.make()
        ms.service(EvKind.GETX, 0xC0, 0, 0)
        grant, _, invalidate, downgrade, _ = ms.service(EvKind.PUTM, 0xC0, 0, 50)
        assert grant is None and not invalidate and downgrade is None

    def test_figure4_bus_violation(self):
        """Paper Figure 4 through the memory system: P1's request at clock 3
        is serviced first, P2's from clock 2 finds the bus busy until 5 and
        counts one simulation-state violation on it."""
        ms, counters = self.make(bus_transfer_cycles=2)
        ms.service(EvKind.GETS, 0x0, 0, 3)
        assert ms.bus.free_at - 2 == 3
        ms.service(EvKind.GETS, 0x40, 1, 2)
        assert ms.bus.free_at - 2 == 5  # P2's grant: 2 in cycle-by-cycle order
        assert counters.by_resource["bus"] == 1

    def test_out_of_order_l2_bank_and_dram_count_per_resource(self):
        ms, counters = self.make()
        ms.service(EvKind.GETS, 0x0, 0, 100)   # cold: bank 0, then DRAM
        ms.service(EvKind.GETS, 0x200, 1, 50)  # cold, same bank, older
        assert counters.by_resource == {"bus": 1, "l2bank[0]": 1, "dram": 1}

    def test_out_of_order_servicing_counts_violations(self):
        ms, counters = self.make()
        ms.service(EvKind.GETS, 0x0, 0, 100)
        ms.service(EvKind.GETS, 0x40, 1, 50)  # simulated past on the bus
        assert counters.simulation_state >= 1

    def test_in_order_servicing_is_violation_free(self):
        ms, counters = self.make()
        for ts, core in ((10, 0), (20, 1), (30, 2)):
            ms.service(EvKind.GETS, 0x0, core, ts)
        assert counters.simulation_state == 0
        assert counters.system_state == 0
