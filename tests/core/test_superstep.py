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
from repro.core.config import HostConfig
from repro.workloads.synthetic import sharing_workload

from tests import lattice
from tests.lattice import Cell, assert_same_run, build


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
    """The lattice's single class; its run gates the branch's engagement
    (cc >= 0.9, qN >= 0.5 of the barriers fused)."""
    result = lattice.check("single", Cell.of(name, scheme, hosts))
    # Folded like ``manager_polls`` but kept out of the stats dump, which is
    # embedded in store records and sweep documents.
    assert not any("fused" in key for key in result.stats)


def test_replayed_run_matches_single_stepping():
    assert lattice.check("single", Cell.of("fft:replay")).fused > 0


@pytest.mark.parametrize("scheme", ["cc", "q3", "q10"])
def test_sharing_trace_matches_single_stepping(scheme):
    fused, single = (
        build(sharing_workload(4, 40, shared_fraction=0.5, seed=3), scheme, 4, seed=5, stepping=s)
        for s in ("batched", "single")
    )
    assert_same_run(fused.run(), single.run())
    assert fused.fused_barriers > 0


@pytest.mark.parametrize("scheme", ["cc", "q3"])
def test_exact_host_time_ties_go_to_the_core(scheme):
    """With dyadic costs and no jitter the manager's poll train lands exactly
    on a core's wake time again and again: the core's heap entry is the older
    one, so it runs first and the manager does not poll across it."""
    host = HostConfig(
        num_cores=4, jitter_sigma=0.0, manager_poll_cost=0.5, wake_cost=1.5,
        wake_fanout_cost=0.25, suspend_cost=0.75, skip_cycle_cost=0.0625,
        skip_stretch_cost=0.25,
    )
    fused, single = (build("lock", scheme, host=host, stepping=s) for s in ("batched", "single"))
    assert_same_run(fused.run(), single.run())
    assert fused.fused_barriers > 0


def test_a_core_ahead_of_the_raise_stays_suspended():
    """A context activated at a later timestamp sits at its own window edge
    while the others catch up: the clean barrier step would not raise it, so
    those barriers are the general arm's."""
    def late_start(stepping):
        engine = build(sharing_workload(4, 40, shared_fraction=0.5, seed=3), hosts=4,
                       seed=5, stepping=stepping)
        engine._start_core(engine.cores[3], pc=0, arg=0, ts=40)
        return engine

    fused = late_start("batched")
    result = fused.run()
    assert_same_run(result, late_start("single").run())
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
        return build(
            sharing_workload(num_cores, ops, shared_fraction=shared, think_cycles=think,
                             seed=wl_seed),
            scheme, hosts, seed=seed, stepping=stepping,
        ).run()

    assert_same_run(run("batched"), run("single"))


# ---------------------------------------------------------------- the exits
@pytest.mark.parametrize("scheme", ["cc", "q3"])
def test_non_quiet_turns_hand_over_mid_cycle(scheme):
    result = lattice.check("single", Cell("lock", scheme=scheme, hosts=4, seed=11))
    # Some barriers ran fused and some did not: both sides of every exit.
    assert 0 < result.fused < result.barriers


def test_snapshot_due_leaves_the_branch():
    fused, single = (build("fft", stats_interval=997, stepping=s) for s in ("batched", "single"))
    assert_same_run(fused.run(), single.run())
    assert len(fused.snapshots) > 5
    assert fused.snapshots == single.snapshots
    assert fused.fused_barriers > 0


def test_checkpoint_due_leaves_the_branch(tmp_path):
    cp = str(tmp_path / "ck.pkl")
    plain = lattice.run(Cell("water"))
    # 1009 is prime: checkpoints fall mid-stretch, never on a quiet boundary
    # the branch would pick by itself.
    writer = build("water", checkpoint_interval=1009, checkpoint_path=cp)
    assert_same_run(plain, writer.run())
    restored = load_checkpoint(cp)
    at_checkpoint = restored.fused_barriers
    assert 0 < at_checkpoint < writer.fused_barriers
    # The checkpoint was cut at the manager step the general loop cuts it at.
    build(
        "water", stepping="single", checkpoint_interval=1009, checkpoint_path=cp + "1"
    ).run()
    oracle = load_checkpoint(cp + "1")
    assert restored.manager.global_time == oracle.manager.global_time
    assert restored.engine_steps == oracle.engine_steps
    assert_same_run(plain, restored.run())
    assert restored.fused_barriers > at_checkpoint


def test_max_cycles_guard_fires_on_the_same_turn():
    from repro.core.engine import EngineError

    engines = [build("fft", max_cycles=500, stepping=s) for s in ("batched", "single")]
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
    assert lattice.run(Cell("fft", scheme=scheme)).fused == 0


def test_the_three_bypasses():
    """Single stepping, a probe and a fault plan each keep a cc run out of
    the superstep (``lattice.check_run`` gates every such run at 0)."""
    cell = Cell("fft")
    assert lattice.run(cell).fused > 1000
    for variant in ("single", "probe", "faulted"):
        assert lattice.run(cell, variant).barriers > 1000


# ------------------------------------------------- what a probe does not hold
@pytest.mark.parametrize("scheme", ["cc", "l10", "s9", "su"])
def test_probe_is_invisible_outside_quantum_schemes(scheme):
    lattice.check("probe", Cell("fft", scheme=scheme))


def test_probe_moves_the_slack_histogram_under_quanta():
    """A forced idle manager step advances ``global_time`` mid-quantum and the
    slack histogram samples it: under qN a probe keeps the simulation and the
    modeled host but not the digest, so it is no digest oracle for the branch."""
    cell = Cell("fft", scheme="q10")
    lattice.check("probe", cell)
    assert lattice.run(cell).stats_sha256 != lattice.run(cell, "probe").stats_sha256
