"""Slack-engine integration tests: clock protocol, determinism, scheme
behaviour, termination, and the paper's headline properties."""

import pytest

from repro.cache import compile_source
from repro.core.config import SimConfig, TargetConfig
from repro.core.engine import EngineError, run_simulation
from repro.core.schemes import INFINITY
from repro.mem.directory import EvKind, Event
from repro.workloads.synthetic import (
    pingpong_workload,
    sharing_workload,
    uniform_think_workload,
)
from tests.lattice import GOLDEN_SCHEMES, build, window_probe

def run_trace(cores, scheme="cc", hosts=4, seed=1, **sim):
    return build(cores, scheme, hosts, seed=seed, **sim).run()


class TestBasicTermination:
    def test_pure_compute_finishes_at_exact_cycle(self):
        r = run_trace(uniform_think_workload(4, 100), "cc")
        assert r.completed
        # 100 think cycles + the halt step cycle.
        assert r.execution_cycles == 101

    def test_every_scheme_terminates(self):
        for scheme in GOLDEN_SCHEMES:
            r = run_trace(sharing_workload(4, 10, seed=5), scheme)
            assert r.completed, scheme

    def test_global_queue_holds_nothing_after_a_run(self):
        """Every scheme leaves its GQ structure empty: nothing of the run's
        event history stays queued."""
        for scheme in GOLDEN_SCHEMES:
            engine = build(sharing_workload(4, 30, shared_fraction=0.6, seed=5), scheme)
            assert engine.run().requests > 20
            gq = engine.manager.gq
            assert len(gq) == 0 and not gq._q, scheme

    def test_single_core_target(self):
        r = run_trace(uniform_think_workload(1, 50), "cc")
        assert r.completed and r.execution_cycles == 51

    def test_single_host_core(self):
        r = run_trace(sharing_workload(2, 10, seed=2), "s9", hosts=1)
        assert r.completed


class TestDeterminism:
    def test_same_seed_same_everything(self):
        a = run_trace(sharing_workload(4, 20, seed=3), "s9", seed=11)
        b = run_trace(sharing_workload(4, 20, seed=3), "s9", seed=11)
        assert a.execution_cycles == b.execution_cycles
        assert a.host_time == b.host_time
        assert a.violations.total == b.violations.total

    def test_different_seed_different_host_time(self):
        a = run_trace(sharing_workload(4, 20, seed=3), "s9", seed=1)
        b = run_trace(sharing_workload(4, 20, seed=3), "s9", seed=2)
        assert a.host_time != b.host_time


class TestClockProtocol:
    @staticmethod
    def assert_window_held(scheme):
        """global <= local <= max_local and local <= global + slack, sampled
        at every manager step."""
        engine = build(sharing_workload(4, 15, seed=4), scheme, 4)
        breaks = []
        engine.probe = window_probe(engine, breaks)
        engine.run()
        assert not breaks, scheme

    def test_invariant_holds_throughout(self):
        for scheme in GOLDEN_SCHEMES:
            self.assert_window_held(scheme)

    def test_bounded_slack_respects_window(self):
        for slack in (2, 9, 50):
            self.assert_window_held(f"s{slack}")

    def test_cc_lockstep(self):
        engine = build(sharing_workload(4, 15, seed=4), "cc", 4)
        spreads = []

        def probe(host_t, global_t, locals_):
            active = [t for t in locals_ if t >= 0]
            if len(active) > 1:
                spreads.append(max(active) - min(active))

        engine.probe = probe
        engine.run()
        assert max(spreads) <= 1


class TestSchemeProperties:
    def test_conservative_schemes_are_violation_free(self):
        for scheme in ("cc", "q10", "l10", "s9*"):
            r = run_trace(sharing_workload(4, 30, seed=3), scheme)
            assert r.violations.simulation_state == 0, scheme
            assert r.violations.system_state == 0, scheme

    def test_slack_schemes_beat_cc(self):
        cores = lambda: sharing_workload(4, 30, seed=3)
        cc = run_trace(cores(), "cc")
        for scheme in ("q10", "s9", "su"):
            r = run_trace(cores(), scheme)
            assert r.host_time < cc.host_time, scheme

    def test_unbounded_is_fastest_or_close(self):
        cores = lambda: sharing_workload(4, 30, seed=3)
        times = {s: run_trace(cores(), s).host_time for s in GOLDEN_SCHEMES}
        assert times["su"] <= min(times[s] for s in ("cc", "q10", "s9")) * 1.05

    def test_violations_grow_with_slack(self):
        cores = lambda: sharing_workload(4, 40, seed=9)
        v9 = run_trace(cores(), "s9").violations.total
        vu = run_trace(cores(), "su").violations.total
        assert vu >= v9

    def test_pingpong_generates_coherence_violations_under_slack(self):
        r = run_trace(pingpong_workload(4, 16), "su")
        assert r.violations.total > 0
        r_cc = run_trace(pingpong_workload(4, 16), "cc")
        assert r_cc.violations.total == 0


class TestTurnBudget:
    """A turn's budget is the manager's window less local time: one rule for
    every scheme family, clamped by the core's own edge and the safety net."""

    #: Each scheme family's window at global time ``g``, no request queued.
    WINDOWS = {
        "cc": lambda g: g + 1,
        "q10": lambda g: (g // 10 + 1) * 10,
        "aq10-160": lambda g: 10,  # the first boundary: nothing adapted yet
        "l10": lambda g: g + 10,
        "s9": lambda g: g + 9,
        "s9*": lambda g: g + 9,
        "su": lambda g: INFINITY,
    }

    @staticmethod
    def engine(scheme):
        return build(uniform_think_workload(4, 1000), scheme, turn_cycles=0)

    @pytest.mark.parametrize("scheme", WINDOWS)
    def test_budget_is_the_window_less_local_time(self, scheme):
        e = self.engine(scheme)
        ct = e.cores[1]
        ct.max_local_time = INFINITY  # the core's own edge does not bind
        net = e.sim.max_cycles + 1
        for g, local in ((0, 0), (3, 5), (7, 8), (7, 9), (40, 41), (95, 99)):
            e.manager.global_time = g
            ct.local_time = local
            window = self.WINDOWS[scheme](g)
            assert e.manager.current_max_local() == window
            assert e._turn_budget(ct) == max(1, min(window, net) - local), (g, local)
        # The core's own window edge binds when it is nearer.
        ct.max_local_time = ct.local_time + 1
        assert e._turn_budget(ct) == 1

    def test_lookahead_budget_is_bounded_by_an_older_request(self):
        """Under l10 a queued request older than global time pulls the window
        back to its timestamp.  Reachable: a request waits in the GQ for the
        manager's next step while ``refresh_window`` raises global time to
        the slowest core's clock."""
        e = self.engine("l10")
        m = e.manager
        m.gq.push(Event(EvKind.GETS, addr=0x40, core=0, ts=3))
        for c in e.cores:
            c.local_time = 8
        ct = e.cores[1]
        assert m.refresh_window(ct)
        assert m.global_time == 8 > m.gq.oldest_ts() == 3
        ct.max_local_time = INFINITY  # only the scheme's window binds
        assert e._turn_budget(ct) == 3 + 10 - 8 < m.global_time + 10 - 8


class TestInstructionCap:
    def test_max_cycles_guard_raises(self):
        src = "int main() { while (1) { } return 0; }"
        prog = compile_source(src).program
        with pytest.raises(EngineError, match="max_cycles"):
            run_simulation(prog, scheme="su", sim=SimConfig(scheme="su", max_cycles=2000))


class TestTurnShapingValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("wait_chunk", 0), ("wait_chunk", -3), ("turn_cycles", -5),
            # A negative interval snapshots or checkpoints at every manager
            # step.
            ("stats_interval", -5), ("checkpoint_interval", -1), ("max_cycles", 0),
        ],
    )
    def test_out_of_range_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    def test_zero_still_means_uncapped(self):
        r = run_trace(sharing_workload(2, 10, seed=2), "su", turn_cycles=0, wait_chunk=1)
        assert r.completed


class TestTargetValidation:
    @pytest.mark.parametrize(
        "field,value",
        [("num_cores", 0), ("ooo_width", 0), ("ooo_rob", 0), ("mispredict_penalty", -1)],
    )
    def test_out_of_range_is_refused_by_name(self, field, value):
        """``ooo_width=0`` never dispatches and used to spin to ``max_cycles``
        (50 M cycles by default) before reporting "workload hung?"."""
        with pytest.raises(ValueError, match=field):
            TargetConfig(core_model="ooo", **{field: value})

    def test_floors_are_accepted(self):
        TargetConfig(num_cores=1, ooo_width=1, ooo_rob=1, mispredict_penalty=0)


class TestProgramEngine:
    SRC = """
    int bar;
    int data[8];
    void worker(int tid) { data[tid] = tid * tid; barrier(&bar); }
    int main() {
        int tids[4];
        init_barrier(&bar, 4);
        for (int t = 1; t < 4; t = t + 1) tids[t] = spawn(worker, t);
        worker(0);
        for (int t = 1; t < 4; t = t + 1) join(tids[t]);
        int s = 0;
        for (int i = 0; i < 4; i = i + 1) s = s + data[i];
        print_int(s);
        return 0;
    }
    """

    def test_spawn_join_barrier_pipeline(self):
        prog = compile_source(self.SRC).program
        for scheme in GOLDEN_SCHEMES:
            r = run_simulation(prog, scheme=scheme, host_cores=4,
                               target=TargetConfig(num_cores=4))
            assert r.int_output() == [14], scheme
            assert r.completed

    def test_result_accounting(self):
        prog = compile_source(self.SRC).program
        r = run_simulation(prog, scheme="cc", host_cores=4,
                           target=TargetConfig(num_cores=4))
        assert r.instructions == sum(c["committed"] for c in r.cores)
        assert r.instructions > 0
        assert all(c["cycles"] >= c["committed"] for c in r.cores)
        assert 0 < r.host_utilization <= 1.0
        assert r.kips > 0

    def test_too_many_spawns_raises(self):
        src = """
        int gate;
        void w(int t) { sema_wait(&gate); }   // park forever: core stays busy
        int main() {
            init_sema(&gate, 0);
            for (int i = 0; i < 8; i = i + 1) spawn(w, i);
            return 0;
        }
        """
        from repro.sysapi.syscalls import TargetError

        prog = compile_source(src).program
        with pytest.raises(TargetError, match="no idle core"):
            run_simulation(prog, scheme="cc", host_cores=2,
                           target=TargetConfig(num_cores=8))

    def test_core_becomes_idle_after_exit_and_is_reusable(self):
        src = """
        int acc;
        void w(int t) { atomic_add(&acc, t); }
        int main() {
            // two waves of 7 workers each: cores must be recycled
            int tids[8];
            for (int wave = 0; wave < 2; wave = wave + 1) {
                for (int t = 1; t < 8; t = t + 1) tids[t] = spawn(w, t);
                for (int t = 1; t < 8; t = t + 1) join(tids[t]);
            }
            print_int(acc);
            return 0;
        }
        """
        prog = compile_source(src).program
        r = run_simulation(prog, scheme="s9", host_cores=8)
        assert r.int_output() == [2 * sum(range(1, 8))]
