"""Fault-injection tests (DESIGN.md §8).

The FaultPlan exists so the violation detectors, clock invariants and
fast-forward compensation are *exercised*, not just carried: each test
injects one fault family at a seam and asserts that the engine (a) records
the injection, (b) completes cleanly (``manager.check_invariants`` runs at
the end of every ``SequentialEngine.run``), and (c) where the fault
manufactures a timestamp inversion, the corresponding detector fires.
"""

from __future__ import annotations

import pytest

from repro.cache import compile_source
from repro.core.config import SimConfig
from repro.core.engine import SequentialEngine
from repro.faults.plan import FaultPlan, FaultSpec, parse_fault_plan
from tests.lattice import LOCK_SRC, RACY_SRC, build

#: Streaming writes over 32KB (2x the 16KB L1): every lap evicts dirty
#: blocks, so refill misses emit back-to-back PUTM + GETX pairs — the
#: pattern reorder_outq needs to find a queue-mate.
STREAM_SRC = """
int a[4096]; int bar;
void worker(int tid) {
    for (int lap = 0; lap < 2; lap = lap + 1)
        for (int i = 0; i < 4096; i = i + 8)
            a[i] = a[i] + tid + 1;
    barrier(&bar);
}
int main() {
    int t;
    init_barrier(&bar, 2);
    t = spawn(worker, 1);
    worker(0);
    join(t);
    print_int(a[0]);
    return 0;
}
"""


@pytest.fixture(scope="module")
def locked_prog():
    return compile_source(LOCK_SRC, name="faults-locked").program


@pytest.fixture(scope="module")
def racy_prog():
    return compile_source(RACY_SRC, name="faults-racy").program


def run(prog, *, scheme="cc", plan=None, seed=1, **sim):
    engine = build(prog, scheme, seed=seed, fault_plan=plan, **sim)
    return engine, engine.run()


# ----------------------------------------------------------------- parsing
def test_parse_plan():
    plan = parse_fault_plan(
        "delay_inq:core=1,at=200,delta=40,count=3;overrun_window:core=2,extra=256"
    )
    assert [s.kind for s in plan.specs] == ["delay_inq", "overrun_window"]
    assert plan.specs[0] == FaultSpec(
        kind="delay_inq", core=1, at=200, delta=40, count=3
    )
    assert plan.specs[1].extra == 256


def test_parse_hex_addr_and_default_any_core():
    plan = parse_fault_plan("delay_gq:addr=0x400000,delta=100;corrupt_dir:at=5")
    assert plan.specs[0].addr == 0x400000
    assert plan.specs[0].core == -1  # unfiltered
    assert plan.specs[1].core == -1  # seeded victim pick


@pytest.mark.parametrize(
    "bad",
    [
        "flip_bits:core=1",                       # unknown kind
        "delay_inq:core=1,magnitude=4",           # unknown field
        "overrun_window:core=1,delta=4",          # field of another kind
        "dup_inq:core=1,events=response",         # duplicated response
        "delay_inq:core=1,events=bogus",          # unknown event kind
        "   ;  ",                                 # no faults at all
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_fault_plan(bad)


def test_misconfigured_plan_fails_at_engine_construction(locked_prog):
    with pytest.raises(ValueError):
        SequentialEngine(
            locked_prog, sim=SimConfig(fault_plan="overrun_window:core=99")
        )


def test_plan_installs_once():
    plan = parse_fault_plan("corrupt_dir:at=5")
    plan._installed = True
    with pytest.raises(RuntimeError):
        plan.install(object())


# ------------------------------------------------- injection + clean completion
ALL_KIND_PLANS = [
    "delay_inq:core=1,at=100,delta=40,count=3",
    "dup_inq:core=1,count=4",
    "delay_gq:delta=60,count=3",
    "stall_core:core=3,at=100,host_delay=500",
    "corrupt_dir:at=400",
    "overrun_window:core=2,at=200,extra=256,count=2",
]


@pytest.mark.parametrize("plan", ALL_KIND_PLANS)
def test_every_kind_injects_and_completes(locked_prog, plan):
    engine, result = run(locked_prog, plan=plan)
    assert result.completed
    assert engine.faults.fired, f"plan {plan!r} never injected"
    for entry in engine.faults.fired:
        assert entry["kind"] == plan.split(":")[0]
    # check_invariants ran inside run(); the registry reports the plan.
    assert result.stats["faults.injected"] == len(engine.faults.fired)
    assert result.stats["faults.specs"] == 1


def test_unfaulted_engine_has_no_hooks(locked_prog):
    engine = SequentialEngine(locked_prog, sim=SimConfig(scheme="cc", seed=1))
    assert engine.faults is None
    # Seams are untouched bound methods / original queue classes.
    assert "deliver" not in engine.cores[0].__dict__
    assert type(engine.manager.gq).__name__ == "GlobalQueue"
    assert "core_batch_cost" not in engine.costmodel.__dict__
    assert "_turn_budget" not in engine.__dict__


def test_fault_runs_are_deterministic(racy_prog):
    plan = "overrun_window:core=1,at=50,extra=800,count=1;corrupt_dir:at=200"
    _, a = run(racy_prog, plan=plan, seed=7)
    _, b = run(racy_prog, plan=plan, seed=7)
    assert a.stats_sha256 == b.stats_sha256
    engine_a, _ = run(racy_prog, plan=plan, seed=7)
    engine_b, _ = run(racy_prog, plan=plan, seed=7)
    assert engine_a.faults.fired == engine_b.faults.fired


# ----------------------------------------------------- detector-firing recipes
def test_overrun_window_fires_simulation_state(locked_prog):
    """A forced slack overrun sends one core's requests far ahead in ts;
    the shared resources then see younger requests after older ones."""
    _, base = run(locked_prog)
    assert base.violations.simulation_state == 0
    engine, result = run(locked_prog, plan="overrun_window:core=0,at=50,extra=512,count=4")
    assert engine.faults.fired
    assert result.completed and result.output == [24]
    assert result.violations.simulation_state > 0


def test_delay_gq_fires_system_state(racy_prog):
    """Delaying a shared-block request at the GQ pushes the directory's
    last_ts ahead of every younger request on that block (paper §3.2.2)."""
    block = racy_prog.symbols["g_flag"] & ~63
    for scheme in ("cc", "q3", "s2"):
        _, base = run(racy_prog, scheme=scheme)
        assert base.violations.system_state == 0
        engine, result = run(
            racy_prog, scheme=scheme,
            plan=f"delay_gq:addr={block},at=100,delta=2000,count=1",
        )
        assert engine.faults.fired and result.completed
        assert result.violations.system_state > 0, scheme


def test_delay_inq_response_drives_fastforward(racy_prog):
    """A late response replays the reader's loads at inflated timestamps;
    with fastforward on, the conflicting store side compensates (§3.2.3)."""
    engine, result = run(
        racy_prog, fastforward=True,
        plan="delay_inq:core=0,delta=200,count=10,events=response",
    )
    assert engine.faults.fired
    assert result.violations.workload_state > 0
    assert result.violations.fastforwards > 0
    assert result.violations.fastforward_cycles > 0


def test_reorder_outq_swaps_writeback_pairs():
    """Dirty evictions emit PUTM + refill back-to-back: the reorder swaps
    them, and the directory's stale-writeback handling absorbs it.  (Under
    cc a turn is one cycle, so the OutQ never holds two events — a quantum
    scheme gives the fault its queue-mate.)"""
    prog = compile_source(STREAM_SRC, name="faults-stream").program
    engine, result = run(prog, scheme="q10", plan="reorder_outq:core=0,count=4")
    assert result.completed and result.output == [6]
    assert engine.faults.fired
    for entry in engine.faults.fired:
        # The refill miss, stamped no earlier than the writeback emitted
        # before it, now sits ahead of it.
        assert (entry["moved_ahead"], entry["now_behind"]) == ("getx", "putm")
        assert entry["ts"] >= entry["behind_ts"]


def test_corrupt_dir_clears_presence_bit(locked_prog):
    engine, result = run(locked_prog, plan="corrupt_dir:at=400")
    assert result.completed  # MESI handling degrades cleanly, never crashes
    (entry,) = engine.faults.fired
    assert entry["kind"] == "corrupt_dir"
    victim, addr = entry["victim"], entry["addr"]
    assert victim not in engine.memsys.directory.sharers_of(addr)


def test_corrupt_dir_victim_pick_is_seeded(locked_prog):
    fired = []
    for _ in range(2):
        engine, _ = run(locked_prog, plan="corrupt_dir:at=400", seed=3)
        fired.append(engine.faults.fired)
    assert fired[0] == fired[1]


def test_stall_core_costs_host_time(locked_prog):
    _, base = run(locked_prog)
    engine, result = run(locked_prog, plan="stall_core:core=3,at=100,host_delay=500")
    assert engine.faults.fired
    assert result.completed and result.output == [24]
    # The surcharge lands on the modeled host timeline, not the target's.
    assert result.host_time > base.host_time + 400
    assert result.execution_cycles == base.execution_cycles


def test_summary_renders(locked_prog):
    engine, _ = run(locked_prog, plan="corrupt_dir:at=400")
    text = engine.faults.summary()
    assert "1 spec(s), 1 injected" in text and "corrupt_dir" in text


def test_cli_run_with_faults(capsys):
    from repro.cli import main

    assert main([
        "run", "--workload", "fft", "--scale", "tiny", "--scheme", "q3",
        "--faults", "corrupt_dir:at=200",
    ]) == 0
    out = capsys.readouterr().out
    assert "faults injected:" in out
    assert "served from result store" not in out
