"""The barrier superstep (DESIGN.md §5) against its oracle.

Under cc/qN the run loop fuses a barrier cycle whose turns are all *quiet*
into one branch of its manager arm.  ``stepping="single"`` never enters that
branch (nor ``advance`` nor ``skip``) and runs the general loop pop by pop, so
default vs single is the differential: the same simulation *and* the same
host-model call sequence — bit-exact host time and busy time, every step,
poll, turn, suspension and wake counted alike.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import load_checkpoint
from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.engine import SequentialEngine
from repro.lang import compile_source
from repro.workloads.registry import make_workload
from repro.workloads.synthetic import sharing_workload

from tests.conftest import assert_same_run
from tests.core.test_goldens import PROGRAM_SRC

#: Host-loop mechanics the branch must replay call for call.  ``engine.steps``
#: counts one per heap pop the general loop makes; the branch counts the pops
#: it does not make.
MECHANICS = (
    "host.steps", "engine.steps", "engine.manager_polls", "engine.manager_steps",
    "engine.core_turns", "engine.suspends", "engine.wakes_delivered",
)


def assert_same_schedule(a, b, mechanics=MECHANICS):
    assert_same_run(a, b)
    assert float.hex(a.host_busy) == float.hex(b.host_busy)
    assert a.instructions == b.instructions and a.completed == b.completed
    assert {k: a.stats[k] for k in mechanics} == {k: b.stats[k] for k in mechanics}


def program_of(name):
    return make_workload(name, scale="tiny").program


def engine_for(
    program, scheme, hosts, *, stepping="batched", cores=8, seed=5, core_model="inorder",
    **sim,
):
    return SequentialEngine(
        program,
        target=TargetConfig(num_cores=cores, core_model=core_model),
        host=HostConfig(num_cores=hosts),
        sim=SimConfig(scheme=scheme, seed=seed, **sim),
        stepping=stepping,
    )


def sharing_engine(scheme, *, stepping="batched"):
    return SequentialEngine(
        None,
        trace_cores=sharing_workload(4, 40, shared_fraction=0.5, seed=3),
        target=TargetConfig(num_cores=4, core_model="trace"),
        host=HostConfig(num_cores=4),
        sim=SimConfig(scheme=scheme, seed=5),
        stepping=stepping,
    )


@pytest.fixture(scope="module")
def sync_program():
    """Spawn/join, a contended lock and a closing barrier on 4 cores:
    activations, wakes and halts land in the middle of barrier cycles."""
    return compile_source(PROGRAM_SRC).program


# ------------------------------------------------------------- differential
@pytest.mark.parametrize(
    "name,scheme,hosts",
    [(n, s, h) for n in ("fft", "water") for s in ("cc", "q3", "q10") for h in (1, 8)]
    # 2 and 32 host cores: a contended host and one wider than the target.
    + [(n, "cc", h) for n in ("barnes", "lu") for h in (2, 32)]
    # The OoO core: its one-cycle turns run inline too (``wait_state`` is
    # always None: a ``step``), its longer ones under its 8-cycle chunk.
    + [(f"{n}:ooo", s, 8) for n in ("fft", "water") for s in ("cc", "q10")],
)
def test_registered_workloads_match_single_stepping(name, scheme, hosts):
    name, _, model = name.partition(":")
    program = program_of(name)
    model = model or "inorder"
    fused = engine_for(program, scheme, hosts, core_model=model)
    result = fused.run()
    single = engine_for(program, scheme, hosts, stepping="single", core_model=model)
    assert_same_schedule(result, single.run())
    # Engagement, so the branch can never be a path nothing takes.
    assert fused.fused_barriers >= (0.9 if scheme == "cc" else 0.5) * result.barriers
    # Folded like ``manager_polls`` but kept out of the stats dump, which is
    # embedded in store records and sweep documents.
    assert not any("fused" in key for key in result.stats)


def test_replayed_run_matches_single_stepping(tmp_path):
    program = program_of("fft")
    path = str(tmp_path / "fft.trace")
    engine_for(program, "su", 8, trace_mode="capture", trace_path=path).run()
    replay = dict(trace_mode="replay", trace_path=path)
    fused = engine_for(program, "cc", 8, **replay)
    assert_same_schedule(
        fused.run(), engine_for(program, "cc", 8, stepping="single", **replay).run()
    )
    assert fused.fused_barriers > 0


@pytest.mark.parametrize("scheme", ["cc", "q3", "q10"])
def test_sharing_trace_matches_single_stepping(scheme):
    fused = sharing_engine(scheme)
    assert_same_schedule(fused.run(), sharing_engine(scheme, stepping="single").run())
    assert fused.fused_barriers > 0


@pytest.mark.parametrize("scheme", ["cc", "q3"])
def test_exact_host_time_ties_go_to_the_core(sync_program, scheme):
    """With dyadic costs and no jitter the manager's poll train lands exactly
    on a core's wake time again and again: the core's heap entry is the older
    one, so it runs first and the manager does not poll across it."""
    host = HostConfig(
        num_cores=4, jitter_sigma=0.0, manager_poll_cost=0.5, wake_cost=1.5,
        wake_fanout_cost=0.25, suspend_cost=0.75, skip_cycle_cost=0.0625,
        skip_stretch_cost=0.25,
    )

    def run(stepping):
        engine = SequentialEngine(
            sync_program, target=TargetConfig(num_cores=4), host=host,
            sim=SimConfig(scheme=scheme, seed=5), stepping=stepping,
        )
        return engine, engine.run()

    fused, result = run("batched")
    assert_same_schedule(result, run("single")[1])
    assert fused.fused_barriers > 0


def test_a_core_ahead_of_the_raise_stays_suspended():
    """A context activated at a later timestamp sits at its own window edge
    while the others catch up: the clean barrier step would not raise it, so
    those barriers are the general arm's."""
    def build(stepping):
        engine = sharing_engine("cc", stepping=stepping)
        engine._start_core(engine.cores[3], pc=0, arg=0, ts=40)
        return engine

    fused = build("batched")
    result = fused.run()
    assert_same_schedule(result, build("single").run())
    assert 0 < fused.fused_barriers <= result.barriers - 39


@settings(max_examples=20, deadline=None)
@given(
    scheme=st.sampled_from(["cc", "q2", "q10"]),
    num_cores=st.integers(1, 5),
    hosts=st.integers(1, 5),
    ops=st.integers(5, 25),
    shared=st.floats(0.0, 0.9),
    think=st.integers(0, 6),
    wl_seed=st.integers(0, 40),
    seed=st.integers(0, 10),
)
def test_random_sharing_traces_match_single_stepping(
    scheme, num_cores, hosts, ops, shared, think, wl_seed, seed
):
    def run(stepping):
        return SequentialEngine(
            None,
            trace_cores=sharing_workload(
                num_cores, ops, shared_fraction=shared, think_cycles=think, seed=wl_seed
            ),
            target=TargetConfig(num_cores=num_cores, core_model="trace"),
            host=HostConfig(num_cores=hosts),
            sim=SimConfig(scheme=scheme, seed=seed),
            stepping=stepping,
        ).run()

    assert_same_schedule(run("batched"), run("single"))


# ---------------------------------------------------------------- the exits
@pytest.mark.parametrize("scheme", ["cc", "q3"])
def test_non_quiet_turns_hand_over_mid_cycle(sync_program, scheme):
    fused = engine_for(sync_program, scheme, 4, cores=4)
    result = fused.run()
    assert_same_schedule(
        result, engine_for(sync_program, scheme, 4, cores=4, stepping="single").run()
    )
    assert list(result.output) == [24]
    # Some barriers ran fused and some did not: both sides of every exit.
    assert 0 < fused.fused_barriers < result.barriers


def test_snapshot_due_leaves_the_branch():
    program = program_of("fft")
    fused = engine_for(program, "cc", 8, stats_interval=997)
    single = engine_for(program, "cc", 8, stats_interval=997, stepping="single")
    assert_same_schedule(fused.run(), single.run())
    assert len(fused.snapshots) > 5
    assert fused.snapshots == single.snapshots
    assert fused.fused_barriers > 0


def test_checkpoint_due_leaves_the_branch(tmp_path):
    program = program_of("water")
    cp = str(tmp_path / "ck.pkl")
    plain = engine_for(program, "cc", 8).run()
    # 1009 is prime: checkpoints fall mid-stretch, never on a quiet boundary
    # the branch would pick by itself.
    writer = engine_for(program, "cc", 8, checkpoint_interval=1009, checkpoint_path=cp)
    assert_same_schedule(plain, writer.run())
    restored = load_checkpoint(cp)
    at_checkpoint = restored.fused_barriers
    assert 0 < at_checkpoint < writer.fused_barriers
    # The checkpoint was cut at the manager step the general loop cuts it at.
    engine_for(
        program, "cc", 8, stepping="single", checkpoint_interval=1009, checkpoint_path=cp + "1"
    ).run()
    oracle = load_checkpoint(cp + "1")
    assert restored.manager.global_time == oracle.manager.global_time
    assert restored.engine_steps == oracle.engine_steps
    assert_same_schedule(plain, restored.run())
    assert restored.fused_barriers > at_checkpoint


def test_max_cycles_guard_fires_on_the_same_turn():
    from repro.core.engine import EngineError

    engines = [
        engine_for(program_of("fft"), "cc", 8, max_cycles=500, stepping=stepping)
        for stepping in ("batched", "single")
    ]
    messages = []
    for engine in engines:
        with pytest.raises(EngineError, match="max_cycles=500") as caught:
            engine.run()
        messages.append(str(caught.value))
    fused, single = engines
    assert messages[0] == messages[1]
    assert [ct.local_time for ct in fused.cores] == [ct.local_time for ct in single.cores]
    assert fused.hostmodel.steps == single.hostmodel.steps


# ------------------------------------------------------------- the bypasses
@pytest.mark.parametrize("scheme", ["s9", "su"])
def test_sliding_window_schemes_never_enter(scheme):
    engine = engine_for(program_of("fft"), scheme, 8)
    engine.run()
    assert engine.fused_barriers == 0


def test_the_three_bypasses():
    program = program_of("fft")
    plain = engine_for(program, "cc", 8)
    single = engine_for(program, "cc", 8, stepping="single")
    probed = engine_for(program, "cc", 8)
    probed.probe = lambda host_t, global_t, locals_: None
    faulted = engine_for(
        program, "cc", 8, fault_plan="stall_core:core=1,at=50,host_delay=3.0"
    )
    for engine in (plain, single, probed, faulted):
        assert engine.run().barriers > 1000
    assert plain.fused_barriers > 1000
    assert single.fused_barriers == probed.fused_barriers == faulted.fused_barriers == 0


# ------------------------------------------------- what a probe does not hold
#: A probe forces every manager step (no elision, no fused cycle): polls turn
#: into steps, everything else of the schedule holds.
PROBE_MECHANICS = ("host.steps", "engine.core_turns", "engine.suspends", "engine.wakes_delivered")


def run_probed(scheme, probe):
    engine = engine_for(program_of("fft"), scheme, 8, seed=3)
    if probe:
        engine.probe = lambda host_t, global_t, locals_: None
    return engine.run()


@pytest.mark.parametrize("scheme", ["cc", "l10", "s9", "su"])
def test_probe_is_invisible_outside_quantum_schemes(scheme):
    assert_same_schedule(run_probed(scheme, False), run_probed(scheme, True), PROBE_MECHANICS)


def test_probe_moves_the_slack_histogram_under_quanta():
    """A forced idle manager step advances ``global_time`` mid-quantum and the
    slack histogram samples it: under qN a probe keeps the simulation and the
    modeled host but not the digest, so it is no digest oracle for the branch."""
    plain, probed = run_probed("q10", False), run_probed("q10", True)
    assert plain.execution_cycles == probed.execution_cycles
    assert float.hex(plain.host_time) == float.hex(probed.host_time)
    assert float.hex(plain.host_busy) == float.hex(probed.host_busy)
    moved = {k for k in plain.stats if plain.stats[k] != probed.stats[k]}
    assert moved - {"engine.steps", "engine.manager_steps", "engine.manager_polls"}
    assert all(
        k.startswith(("scheme.slack_cycles.", "engine.")) for k in moved
    ), sorted(moved)
    assert plain.stats_sha256 != probed.stats_sha256
