"""Virtual-host schedule builder and cost-model tests."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.config import HostConfig
from repro.core.corethread import BatchStats
from repro.core.engine import _ONE_ACTIVE, _ONE_IDLE, _ONE_SKIP
from repro.host.costmodel import CostModel
from repro.host.hostmodel import HostModel
from tests.host.scan_reference import ScanHostModel, last_step_ready


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
        lag=st.floats(0, 10),
        cost=st.sampled_from([0.4, 0.05, 1.0, 2.7]),
        span=st.floats(0, 60),
        max_polls=st.integers(1, 200),
    )
    def test_poll_until_is_repeated_run(self, cores, warm, lag, cost, span, max_polls):
        """``poll_until`` ≡ n x ``run``, bit for bit: 0.4 is not dyadic, so
        any closed form would show in ``float.hex``.  The warm-up is in
        ready order (the model's precondition), and the free-up times are
        compared as the multiset the schedule depends on: those above the
        last step's ready time (any at or below it are free for every later
        step alike)."""
        warm = sorted(warm)
        fast, slow = HostModel(cores), HostModel(cores)
        for host in (fast, slow):
            for r, c in warm:  # random free_at, busy, steps to start from
                host.run(r, c)
        ready = (warm[-1][0] if warm else 0.0) + lag
        until = ready + span
        last = ready
        done_t = slow.run(ready, cost)
        n = 1
        while done_t < until and n < max_polls:
            last = done_t
            done_t = slow.run(done_t, cost)
            n += 1
        assert fast.poll_until(ready, cost, until, max_polls) == (done_t, n)
        assert above(fast, last) == above(slow, last)
        assert fast.busy.hex() == slow.busy.hex()
        assert fast.makespan().hex() == slow.makespan().hex()
        assert fast.steps == slow.steps
        # The schedule built afterwards is the same one too.
        assert fast.run(done_t, cost).hex() == slow.run(done_t, cost).hex()

    @pytest.mark.parametrize("cores", [1, 2, 8, 32])
    @given(
        calls=st.lists(
            st.tuples(
                st.booleans(),                        # poll_until, else run
                st.floats(0, 5),                      # ready's lag behind the floor
                st.sampled_from([0.4, 0.05, 1.0, 2.7, 0.8, 1.5]),
                st.floats(0, 20),                     # poll_until's span
                st.integers(1, 50),                   # poll_until's max_polls
            ),
            min_size=1,
            max_size=80,
        ),
        start=st.floats(0, 10),
    )
    def test_heap_matches_scan_in_ready_order(self, cores, calls, start):
        """The heap model against the scan it replaced, on any call sequence
        in nondecreasing ready order (each call's ready at or after the
        previous call's last step): every returned value, ``busy``,
        ``steps`` and ``makespan()`` by ``float.hex``, and the free-up times
        above the last ready."""
        heap, scan = HostModel(cores), ScanHostModel(cores)
        floor = start
        for poll, lag, cost, span, max_polls in calls:
            ready = floor + lag
            if poll:
                first_free = min(scan.free_at)
                got = heap.poll_until(ready, cost, ready + span, max_polls)
                want = scan.poll_until(ready, cost, ready + span, max_polls)
                assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])
                floor = last_step_ready(ready, first_free, cost, want[1])
            else:
                assert heap.run(ready, cost).hex() == scan.run(ready, cost).hex()
                floor = ready
            assert heap.busy.hex() == scan.busy.hex()
            assert heap.steps == scan.steps
            assert heap.makespan().hex() == scan.makespan().hex()
            assert above(heap, floor) == above(scan, floor)


def above(host, floor: float) -> list[str]:
    """*host*'s free-up times after *floor*, sorted, as ``float.hex``."""
    return [t.hex() for t in sorted(host.free_at) if t > floor]


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


class TestJitterStream:
    """Each simulation thread's jitter is its own generator's
    ``lognormal(size=512)`` blocks, in order, across refills and pickles."""

    SIGMA = 0.25
    SEED = 7
    DRAWS = 1100  # two refills past the first 512-draw block

    def expected(self, key: int) -> list[float]:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.SEED, key])))
        draws: list[float] = []
        while len(draws) < self.DRAWS:
            draws += rng.lognormal(
                mean=-0.5 * self.SIGMA * self.SIGMA, sigma=self.SIGMA, size=512
            ).tolist()
        return draws[: self.DRAWS]

    def make(self) -> CostModel:
        return CostModel(HostConfig(jitter_sigma=self.SIGMA), self.SEED, num_cores=4)

    def test_draws_cross_block_refills(self):
        cfg = HostConfig(jitter_sigma=self.SIGMA)
        m = self.make()
        one = BatchStats(active_cycles=1)  # base 1.0: the cost is the draw
        mgr_base = cfg.manager_poll_cost + cfg.manager_request_cost + 0.2 * 0
        core0, core3, mgr = self.expected(1000), self.expected(1003), self.expected(999)
        for k in range(self.DRAWS):  # interleaved, as the engine draws them
            assert m.core_batch_cost(0, one, suspended=False).hex() == core0[k].hex()
            assert m.core_batch_cost(3, one, suspended=False).hex() == core3[k].hex()
            assert m.manager_step_cost(0, 1).hex() == (mgr_base * mgr[k]).hex()

    def test_pickled_mid_block_continues_the_stream(self):
        m = self.make()
        one = BatchStats(active_cycles=1)
        for _ in range(700):  # 188 draws into the second block
            m.core_batch_cost(0, one, suspended=False)
        loaded = pickle.loads(pickle.dumps(m))
        want = self.expected(1000)[700:]
        got = [loaded.core_batch_cost(0, one, suspended=False) for _ in want]
        assert [t.hex() for t in got] == [t.hex() for t in want]
        assert [m.core_batch_cost(0, one, suspended=False) for _ in want] == got

    @pytest.mark.parametrize("unit", [_ONE_ACTIVE, _ONE_IDLE, _ONE_SKIP])
    def test_unit_turn_cost_is_core_batch_cost(self, unit):
        """The barrier superstep charges a quiet one-cycle turn as its unit's
        ``batch_base`` x the core's next draw + the suspension (clamped like
        every step): ``core_batch_cost(cid, unit, suspended=True)``."""
        a, b = self.make(), self.make()
        suspend = b.config.suspend_cost
        base = b.batch_base(unit)
        for _ in range(self.DRAWS):
            want = a.core_batch_cost(2, unit, suspended=True)
            jit = b.jitter[2]
            cost = base * (jit.pop() if jit else b.refill_jitter(2)) + suspend
            if cost < 0.05:
                cost = 0.05
            assert cost.hex() == want.hex()
