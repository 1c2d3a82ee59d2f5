"""Slack-engine integration tests: clock protocol, determinism, scheme
behaviour, termination, and the paper's headline properties."""

import pytest

from repro.core import EngineError, SequentialEngine, run_simulation
from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.lang import compile_source
from repro.workloads.synthetic import (
    pingpong_workload,
    sharing_workload,
    uniform_think_workload,
)

TRACE_TARGET = TargetConfig(num_cores=4, core_model="trace")
ALL_SCHEMES = ["cc", "q10", "l10", "s9", "s9*", "s100", "su"]


def run_trace(cores, scheme="cc", hosts=4, seed=1, **sim_kw):
    return run_simulation(
        None,
        trace_cores=cores,
        scheme=scheme,
        host=HostConfig(num_cores=hosts),
        sim=SimConfig(scheme=scheme, seed=seed, **sim_kw),
        target=TargetConfig(num_cores=len(cores), core_model="trace"),
    )


class TestBasicTermination:
    def test_pure_compute_finishes_at_exact_cycle(self):
        r = run_trace(uniform_think_workload(4, 100), "cc")
        assert r.completed
        # 100 think cycles + the halt step cycle.
        assert r.execution_cycles == 101

    def test_every_scheme_terminates(self):
        for scheme in ALL_SCHEMES:
            r = run_trace(sharing_workload(4, 10, seed=5), scheme)
            assert r.completed, scheme

    def test_global_queue_holds_nothing_after_a_run(self):
        """Every scheme leaves its GQ structure empty: nothing of the run's
        event history stays queued."""
        for scheme in ALL_SCHEMES:
            engine = SequentialEngine(
                None, trace_cores=sharing_workload(4, 30, shared_fraction=0.6, seed=5),
                target=TRACE_TARGET, sim=SimConfig(scheme=scheme),
            )
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
    def test_invariant_holds_throughout(self):
        """global <= local <= max_local sampled at every manager step."""
        for scheme in ALL_SCHEMES:
            engine = SequentialEngine(
                None,
                target=TRACE_TARGET,
                host=HostConfig(num_cores=4),
                sim=SimConfig(scheme=scheme, seed=1),
                trace_cores=sharing_workload(4, 15, seed=4),
            )
            failures = []

            def probe(host_t, global_t, locals_, scheme=scheme):
                for t in locals_:
                    if 0 <= t < global_t:
                        failures.append((scheme, host_t, global_t, t))

            engine.probe = probe
            engine.run()
            assert not failures

    def test_bounded_slack_respects_window(self):
        for slack in (2, 9, 50):
            engine = SequentialEngine(
                None,
                target=TRACE_TARGET,
                host=HostConfig(num_cores=4),
                sim=SimConfig(scheme=f"s{slack}", seed=1),
                trace_cores=sharing_workload(4, 15, seed=4),
            )
            worst = []

            def probe(host_t, global_t, locals_):
                for t in locals_:
                    if t >= 0:
                        worst.append(t - global_t)

            engine.probe = probe
            engine.run()
            assert max(worst) <= slack

    def test_cc_lockstep(self):
        engine = SequentialEngine(
            None,
            target=TRACE_TARGET,
            host=HostConfig(num_cores=4),
            sim=SimConfig(scheme="cc", seed=1),
            trace_cores=sharing_workload(4, 15, seed=4),
        )
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
        times = {s: run_trace(cores(), s).host_time for s in ALL_SCHEMES}
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


class TestInstructionCap:
    def test_max_instructions_truncates(self):
        r = run_trace(uniform_think_workload(4, 10_000), "s9", max_instructions=500)
        assert not r.completed
        assert r.instructions >= 500

    def test_max_cycles_guard_raises(self):
        src = "int main() { while (1) { } return 0; }"
        prog = compile_source(src).program
        with pytest.raises(EngineError, match="max_cycles"):
            run_simulation(prog, scheme="su", sim=SimConfig(scheme="su", max_cycles=2000))


class TestTurnShapingValidation:
    @pytest.mark.parametrize(
        "field,value", [("wait_chunk", 0), ("wait_chunk", -3), ("turn_cycles", -5), ("batch_cycles", -1)]
    )
    def test_out_of_range_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    def test_zero_still_means_uncapped(self):
        r = run_trace(sharing_workload(2, 10, seed=2), "su", turn_cycles=0, batch_cycles=0, wait_chunk=1)
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
        for scheme in ALL_SCHEMES:
            r = run_simulation(prog, scheme=scheme, host_cores=4,
                               target=TargetConfig(num_cores=4))
            assert r.int_output() == [14], scheme
            assert r.completed

    def test_result_accounting(self):
        prog = compile_source(self.SRC).program
        r = run_simulation(prog, scheme="cc", host_cores=4,
                           target=TargetConfig(num_cores=4))
        assert r.instructions == sum(c.committed for c in r.cores)
        assert r.instructions > 0
        assert all(c.cycles >= c.committed for c in r.cores)
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
        from repro.sysapi.system import TargetError

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


def test_icache_runs_are_pinned_and_stepping_invariant():
    """``model_icache``: an I-fetch miss freezes the in-order pipeline on a fill
    that retires nothing, then fetches again.  The cycle counts are the ones
    the core produced before its pipeline was shared with the replay front
    end; the per-cycle oracle must agree with the batched path bit for bit."""
    from repro.workloads.registry import make_workload
    from tests.conftest import assert_same_run

    prog = make_workload("fft", scale="tiny").program
    for scheme, cycles in (("cc", 17627), ("s9", 17680)):
        kw = dict(target=TargetConfig(model_icache=True), host=HostConfig(num_cores=8),
                  sim=SimConfig(scheme=scheme, seed=3))
        batched = SequentialEngine(prog, **kw).run()
        assert batched.completed and batched.execution_cycles == cycles
        assert_same_run(batched, SequentialEngine(prog, stepping="single", **kw).run())
