"""DomainManager integration tests (DESIGN.md §10).

Under test: a multi-domain run is seed-stable (digest *and* modeled host
time), with windows floored at the cross-domain exchange quantum — which
makes it a different simulation from the monolithic manager's.
"""

import pytest

from repro.core import run_simulation
from repro.core.checkpoint import load_checkpoint
from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.domains import DomainManager, SchedulingDomain
from repro.core.engine import EngineError, SequentialEngine
from repro.core.events import EvKind, Event
from repro.workloads.synthetic import sharing_workload

from tests.conftest import assert_same_run

#: One scheme per GQ-policy family: barrier, immediate, oldest, lookahead.
SCHEME_FAMILIES = ["cc", "su", "s9*", "l10"]


def _kwargs(scheme="cc", mem_domains=1, **sim_kw):
    return dict(
        program=None,
        trace_cores=sharing_workload(4, 16, seed=1),
        host=HostConfig(num_cores=4),
        sim=SimConfig(scheme=scheme, seed=1, mem_domains=mem_domains, **sim_kw),
        target=TargetConfig(num_cores=4, core_model="trace"),
    )


def run(**kw):
    return run_simulation(**_kwargs(**kw))


def make_engine(**kw):
    return SequentialEngine(**_kwargs(**kw))


class TestInterface:
    def test_both_managers_satisfy_the_protocol(self):
        mono = make_engine().manager
        dom = make_engine(mem_domains=4).manager
        assert not isinstance(mono, DomainManager)
        assert isinstance(dom, DomainManager)
        assert isinstance(mono, SchedulingDomain)
        assert isinstance(dom, SchedulingDomain)

    def test_default_config_keeps_the_monolithic_manager(self):
        assert not make_engine()._domained

    def test_window_floor_is_the_critical_latency(self):
        eng = make_engine(mem_domains=4)
        assert eng.manager.exchange_quantum == eng.memsys.critical_latency() == 10
        assert eng.manager.current_max_local() >= eng.manager.global_time + 10


class TestDigestLadder:
    @pytest.mark.parametrize("scheme", SCHEME_FAMILIES)
    def test_multi_domain_seed_stable(self, scheme):
        first = run(scheme=scheme, mem_domains=4)
        assert_same_run(run(scheme=scheme, mem_domains=4), first)
        if scheme == "cc":
            # The floor coarsens cc's windows: behaviour legitimately
            # differs from the monolith (that difference is the speedup).
            assert first.stats_sha256 != run().stats_sha256


class TestDomainStats:
    def test_per_domain_subtree_and_aggregates(self):
        r = run(mem_domains=4)
        assert r.stats["mem.domains.count"] == 4
        assert r.stats["mem.domains.exchange_quantum"] == 10
        assert r.stats["mem.domains.exchanges"] > 0
        per_domain = sum(r.stats[f"mem.domains.d{k}.requests_serviced"] for k in range(4))
        assert per_domain == r.stats["mem.requests_serviced"]
        l2_sum = sum(r.stats[f"mem.domains.d{k}.l2_accesses"] for k in range(4))
        assert l2_sum == r.stats["mem.l2.accesses"]
        # Bulk-synchronous lockstep: every domain clock ends at global time.
        clocks = {r.stats[f"mem.domains.d{k}.clock"] for k in range(4)}
        assert len(clocks) == 1
        assert r.stats["violations.cross_domain"] == r.stats.get("violations.cross_domain", 0)

    def test_monolithic_dump_has_no_domain_keys(self):
        r = run()
        assert "mem.domains.count" not in r.stats
        assert "violations.cross_domain" not in r.stats


class TestCrossDomainDetection:
    def _manager_and_addrs(self):
        eng = make_engine(mem_domains=4)
        manager = eng.manager
        addr_of = {}
        for addr in range(0, 0x4000, 0x40):
            addr_of.setdefault(eng.memsys.domain_of(addr), addr)
        return manager, addr_of

    def test_same_exchange_events_never_count(self):
        manager, addr_of = self._manager_and_addrs()
        batches = [[] for _ in range(4)]
        batches[0] = [Event(EvKind.GETS, addr_of[0], 0, 50)]
        batches[1] = [Event(EvKind.GETS, addr_of[1], 1, 10)]
        manager._detect_cross_domain(batches)
        assert manager.counters.cross_domain == 0  # horizons were empty

    def test_event_below_remote_horizon_is_counted(self):
        manager, addr_of = self._manager_and_addrs()
        first = [[] for _ in range(4)]
        first[0] = [Event(EvKind.GETS, addr_of[0], 0, 50)]
        manager._detect_cross_domain(first)
        second = [[] for _ in range(4)]
        second[1] = [Event(EvKind.GETS, addr_of[1], 1, 10)]
        manager._detect_cross_domain(second)
        assert manager.counters.cross_domain == 1
        assert manager.counters.by_resource == {"domain[1]": 1}

    def test_own_horizon_does_not_self_count(self):
        manager, addr_of = self._manager_and_addrs()
        first = [[] for _ in range(4)]
        first[0] = [Event(EvKind.GETS, addr_of[0], 0, 50)]
        manager._detect_cross_domain(first)
        second = [[] for _ in range(4)]
        second[0] = [Event(EvKind.GETS, addr_of[0], 0, 10)]  # late vs own horizon only
        manager._detect_cross_domain(second)
        assert manager.counters.cross_domain == 0


class TestGates:
    def test_domains_out_of_range(self):
        with pytest.raises(EngineError, match="mem_domains"):
            make_engine(mem_domains=9)

    def test_faults_rejected_with_domains(self):
        with pytest.raises(EngineError, match="fault"):
            make_engine(mem_domains=4,
                        fault_plan="overrun_window:core=1,at=200,extra=16")


class TestCheckpointRoundTrip:
    def test_domained_resume_is_byte_identical(self, tmp_path):
        path = str(tmp_path / "ck.pkl")
        eng = make_engine(mem_domains=4,
                          checkpoint_interval=400, checkpoint_path=path)
        uninterrupted = eng.run()
        resumed = load_checkpoint(path).run()
        assert_same_run(resumed, uninterrupted)
        assert_same_run(resumed, run(mem_domains=4))
