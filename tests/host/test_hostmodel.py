"""Virtual-host schedule builder and cost-model tests."""

import pytest
from hypothesis import given, strategies as st

from repro.core.config import HostConfig
from repro.core.corethread import BatchStats
from repro.host.costmodel import CostModel
from repro.host.hostmodel import HostModel


class TestHostModel:
    def test_single_core_serialises(self):
        host = HostModel(1)
        assert host.run(0.0, 5.0) == 5.0
        assert host.run(0.0, 5.0) == 10.0
        assert host.makespan() == 10.0

    def test_two_cores_parallelise(self):
        host = HostModel(2)
        assert host.run(0.0, 5.0) == 5.0
        assert host.run(0.0, 5.0) == 5.0
        assert host.run(0.0, 5.0) == 10.0

    def test_ready_time_respected(self):
        host = HostModel(2)
        assert host.run(7.0, 1.0) == 8.0

    def test_earliest_start_choice(self):
        host = HostModel(2)
        host.run(0.0, 10.0)   # core 0 busy until 10
        host.run(0.0, 2.0)    # core 1 busy until 2
        assert host.run(0.0, 1.0) == 3.0  # goes to core 1

    def test_utilization_report(self):
        host = HostModel(2)
        host.run(0.0, 4.0)
        host.run(0.0, 4.0)
        assert host.makespan() == 4.0
        assert host.busy / (host.makespan() * host.num_cores) == 1.0

    @pytest.mark.parametrize("cores", [1, 32])
    def test_no_method_is_bound_on_the_instance(self, cores):
        """``run``/``poll_until`` are the class's at any H: a method bound
        into the instance would make every host model a reference cycle."""
        assert not any(callable(v) for v in vars(HostModel(cores)).values())

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            HostModel(0)

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0.1, 10)), min_size=1, max_size=60),
           st.integers(1, 8))
    def test_makespan_bounds(self, jobs, cores):
        """Makespan is at least busy/cores and at least the longest job."""
        host = HostModel(cores)
        for ready, cost in jobs:
            host.run(ready, cost)
        total = sum(cost for _, cost in jobs)
        assert host.makespan() >= total / cores - 1e-9
        assert host.busy == pytest.approx(total)

    @pytest.mark.parametrize("cores", [1, 2, 8, 32])
    @given(
        warm=st.lists(st.tuples(st.floats(0, 30), st.floats(0.05, 9)), max_size=40),
        ready=st.floats(0, 40),
        cost=st.sampled_from([0.4, 0.05, 1.0, 2.7]),
        span=st.floats(0, 60),
        max_polls=st.integers(1, 200),
    )
    def test_poll_until_is_repeated_run(self, cores, warm, ready, cost, span, max_polls):
        """``poll_until`` ≡ n x ``run`` (its stay-on-the-core loop against the
        per-step scan), bit for bit: 0.4 is not dyadic, so any closed form
        would show in ``float.hex``."""
        fast, slow = HostModel(cores), HostModel(cores)
        for host in (fast, slow):
            for r, c in warm:  # random free_at, busy, makespan to start from
                host.run(r, c)
        until = ready + span
        done_t = slow.run(ready, cost)
        n = 1
        while done_t < until and n < max_polls:
            done_t = slow.run(done_t, cost)
            n += 1
        assert fast.poll_until(ready, cost, until, max_polls) == (done_t, n)
        assert [t.hex() for t in fast.free_at] == [t.hex() for t in slow.free_at]
        assert fast.busy.hex() == slow.busy.hex()
        assert fast.makespan().hex() == slow.makespan().hex()
        assert fast.steps == slow.steps
        # The schedule built afterwards is the same one too.
        assert fast.run(ready, cost).hex() == slow.run(ready, cost).hex()


class TestCostModel:
    def make(self, sigma=0.25, seed=1):
        return CostModel(HostConfig(jitter_sigma=sigma), seed, num_cores=4)

    def stats(self, active=10, idle=0, ev=0):
        s = BatchStats()
        s.active_cycles = active
        s.idle_cycles = idle
        s.events_out = ev
        return s

    def test_deterministic_per_seed(self):
        a = self.make(seed=3)
        b = self.make(seed=3)
        sa = [a.core_batch_cost(0, self.stats(), suspended=False) for _ in range(5)]
        sb = [b.core_batch_cost(0, self.stats(), suspended=False) for _ in range(5)]
        assert sa == sb

    def test_different_cores_have_different_jitter_streams(self):
        m = self.make(seed=3)
        a = [m.core_batch_cost(0, self.stats(), suspended=False) for _ in range(5)]
        b = [m.core_batch_cost(1, self.stats(), suspended=False) for _ in range(5)]
        assert a != b

    def test_zero_sigma_is_exact(self):
        m = self.make(sigma=0.0)
        cfg = HostConfig(jitter_sigma=0.0)
        expected = 10 * cfg.cycle_cost
        assert m.core_batch_cost(0, self.stats(), suspended=False) == pytest.approx(expected)

    def test_idle_cycles_are_cheaper(self):
        m = self.make(sigma=0.0)
        active = m.core_batch_cost(0, self.stats(active=10, idle=0), suspended=False)
        idle = m.core_batch_cost(0, self.stats(active=0, idle=10), suspended=False)
        assert idle < active

    def test_events_add_cost(self):
        m = self.make(sigma=0.0)
        without = m.core_batch_cost(0, self.stats(), suspended=False)
        with_ev = m.core_batch_cost(0, self.stats(ev=3), suspended=False)
        assert with_ev > without

    def test_suspend_surcharge(self):
        m = self.make(sigma=0.0)
        plain = m.core_batch_cost(0, self.stats(), suspended=False)
        susp = m.core_batch_cost(0, self.stats(), suspended=True)
        assert susp == pytest.approx(plain + HostConfig().suspend_cost)

    def test_manager_poll_is_cheap(self):
        m = self.make(sigma=0.0)
        assert m.manager_step_cost(0, 0) == HostConfig().manager_poll_cost
        assert m.manager_step_cost(2, 5) > m.manager_step_cost(0, 0)

    def test_minimum_step_cost(self):
        m = self.make(sigma=0.0)
        empty = BatchStats()
        assert m.core_batch_cost(0, empty, suspended=False) > 0
