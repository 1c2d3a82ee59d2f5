"""Threaded engine tests: functional parity with the sequential engine.

Wall-clock numbers are GIL-bound and nondeterministic; these tests assert
*correctness* (outputs, invariants, termination), never timing.
"""

import pytest

from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.lang import compile_source
from repro.workloads import make_workload
from tests.core.threaded_harness import SimulationHungError, ThreadedEngine

SMALL_TARGET = TargetConfig(num_cores=4)


def run_threaded(prog, scheme, num_cores=4, seed=1):
    engine = ThreadedEngine(
        prog,
        target=TargetConfig(num_cores=num_cores),
        host=HostConfig(num_cores=4),
        sim=SimConfig(scheme=scheme, seed=seed),
    )
    return engine.run(timeout=60.0)


COUNTER_SRC = """
int lk; int bar; int counter;
void worker(int tid) {
    for (int i = 0; i < 10; i = i + 1) {
        lock(&lk);
        counter = counter + 1;
        unlock(&lk);
    }
    barrier(&bar);
}
int main() {
    int tids[4];
    init_lock(&lk);
    init_barrier(&bar, 4);
    for (int t = 1; t < 4; t = t + 1) tids[t] = spawn(worker, t);
    worker(0);
    for (int t = 1; t < 4; t = t + 1) join(tids[t]);
    print_int(counter);
    return 0;
}
"""


@pytest.mark.parametrize("scheme", ["cc", "q10", "s9", "su"])
def test_lock_counter_is_exact_under_real_threads(scheme):
    prog = compile_source(COUNTER_SRC).program
    r = run_threaded(prog, scheme)
    assert r.int_output() == [40]
    assert r.completed


def test_semaphore_pipeline_under_threads():
    src = """
    int items; int space; int mailbox; int got[8];
    void consumer(int tid) {
        for (int i = 0; i < 8; i = i + 1) {
            sema_wait(&items);
            got[i] = mailbox;
            sema_signal(&space);
        }
    }
    int main() {
        init_sema(&items, 0);
        init_sema(&space, 1);
        int c = spawn(consumer, 0);
        for (int i = 0; i < 8; i = i + 1) {
            sema_wait(&space);
            mailbox = i * 5;
            sema_signal(&items);
        }
        join(c);
        int s = 0;
        for (int i = 0; i < 8; i = i + 1) s = s + got[i];
        print_int(s);
        return 0;
    }
    """
    prog = compile_source(src).program
    r = run_threaded(prog, "s9")
    assert r.int_output() == [5 * sum(range(8))]


def test_benchmark_verifies_on_threads():
    w = make_workload("lu", scale="tiny")
    r = run_threaded(w.program, "s9")
    assert w.verify(r.output)


def test_threaded_matches_sequential_functionally():
    from repro.core import run_simulation

    prog = compile_source(COUNTER_SRC).program
    seq = run_simulation(prog, scheme="s9", host_cores=4,
                         target=TargetConfig(num_cores=4))
    thr = run_threaded(prog, "s9")
    assert seq.int_output() == thr.int_output()
    assert seq.instructions > 0 and thr.instructions > 0


def test_instruction_counts_are_consistent():
    prog = compile_source(COUNTER_SRC).program
    r = run_threaded(prog, "su")
    assert r.instructions == sum(c.committed for c in r.cores)


# --------------------------------------------------------------------- stress
#
# Stress shapes chosen to hammer the two synchronization hot spots of the
# threaded engine: the window-edge suspend/wake path (a storm of target
# barriers forces every thread through it repeatedly) and the InQ/OutQ lock
# traffic under a heavily contended target lock.  Each shape runs across many
# seeds — seeds change the modeled cost jitter and hence thread interleaving —
# and must produce the exact output of the deterministic sequential engine.
# The engine-level timeout is a hard deadlock detector: a lost wake or
# deadlocked window protocol fails the test instead of hanging the suite.

BARRIER_STORM_SRC = """
int bar; int acc; int lk;
void worker(int tid) {
    for (int i = 0; i < 8; i = i + 1) {
        barrier(&bar);
        lock(&lk);
        acc = acc + tid + i;
        unlock(&lk);
        barrier(&bar);
    }
}
int main() {
    int tids[4];
    init_lock(&lk);
    init_barrier(&bar, 4);
    for (int t = 1; t < 4; t = t + 1) tids[t] = spawn(worker, t);
    worker(0);
    for (int t = 1; t < 4; t = t + 1) join(tids[t]);
    print_int(acc);
    return 0;
}
"""

LOCK_CONTENTION_SRC = """
int lk; int counter;
void worker(int tid) {
    for (int i = 0; i < 25; i = i + 1) {
        lock(&lk);
        counter = counter + 1;
        unlock(&lk);
    }
}
int main() {
    int tids[4];
    init_lock(&lk);
    for (int t = 1; t < 4; t = t + 1) tids[t] = spawn(worker, t);
    worker(0);
    for (int t = 1; t < 4; t = t + 1) join(tids[t]);
    print_int(counter);
    return 0;
}
"""

#: barrier storm: sum over threads/iterations of (tid + i).
BARRIER_STORM_EXPECT = sum(tid + i for tid in range(4) for i in range(8))
LOCK_CONTENTION_EXPECT = 4 * 25


@pytest.mark.parametrize("seed", range(10))
def test_barrier_storm_across_seeds(seed):
    prog = compile_source(BARRIER_STORM_SRC).program
    r = run_threaded(prog, "q10", seed=seed)
    assert r.completed
    assert r.int_output() == [BARRIER_STORM_EXPECT]


@pytest.mark.parametrize("seed", range(10))
def test_lock_contention_across_seeds(seed):
    prog = compile_source(LOCK_CONTENTION_SRC).program
    r = run_threaded(prog, "s9", seed=seed)
    assert r.completed
    assert r.int_output() == [LOCK_CONTENTION_EXPECT]


@pytest.mark.parametrize("scheme", ["cc", "q10", "s9", "su"])
def test_stress_output_matches_sequential(scheme):
    from repro.core import run_simulation

    prog = compile_source(BARRIER_STORM_SRC).program
    seq = run_simulation(
        prog,
        target=TargetConfig(num_cores=4),
        host=HostConfig(num_cores=4),
        sim=SimConfig(scheme=scheme, seed=2),
    )
    thr = run_threaded(prog, scheme, seed=2)
    assert seq.int_output() == thr.int_output() == [BARRIER_STORM_EXPECT]


# ------------------------------------------------------------------ watchdog
def test_watchdog_aborts_hung_run_with_diagnostics():
    """A frozen manager (global time pinned, no window raises) starves every
    core; the progress watchdog must abort with per-core clock state and
    thread stacks instead of hanging until a wall-clock cap."""
    from repro.core.manager import ManagerStepResult

    prog = compile_source(COUNTER_SRC).program
    engine = ThreadedEngine(
        prog,
        target=SMALL_TARGET,
        host=HostConfig(num_cores=4),
        sim=SimConfig(scheme="cc"),
    )
    engine.manager.step = lambda: ManagerStepResult()  # type: ignore[method-assign]
    with pytest.raises(SimulationHungError) as excinfo:
        engine.run(timeout=0.5)
    err = excinfo.value
    assert err.timeout == 0.5
    assert err.global_time == 0
    assert len(err.core_clocks) == 4
    assert all(
        set(c) == {"core", "state", "local", "max_local", "inq", "outq"}
        for c in err.core_clocks
    )
    assert "manager" in err.stacks and "core-0" in err.stacks
    assert "no progress" in str(err) and "thread stacks" in str(err)


def test_watchdog_window_passes_healthy_runs():
    """The window bounds *stall* time, not total time: a progressing run
    with a window far shorter than its full runtime still completes."""
    prog = compile_source(COUNTER_SRC).program
    engine = ThreadedEngine(
        prog,
        target=SMALL_TARGET,
        host=HostConfig(num_cores=4),
        sim=SimConfig(scheme="q10"),
    )
    r = engine.run(timeout=10.0)
    assert r.completed
    assert r.int_output() == [40]
