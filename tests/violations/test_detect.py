"""Violation taxonomy tests (paper §3.2): counters, Figure 7 word races,
fast-forward compensation."""

import pytest

from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.engine import SequentialEngine
from repro.cpu.arch import ArchState
from repro.cpu.inorder import InOrderCore
from repro.cpu.l1cache import L1Cache
from repro.isa.assembler import assemble
from repro.isa.program import DATA_BASE
from repro.mem.directory import MESI, EvKind, Event
from repro.sysapi.loader import load_program
from repro.sysapi.system import SystemEmulation
from repro.trace.format import ACC_STORE, OP_HALT, OP_MEM, OP_RUN
from repro.trace.replay import ReplayCore, ReplaySystem
from repro.violations.detect import ViolationCounters, WordOrderTracker
from repro.workloads.registry import make_workload


class TestCounters:
    def test_totals(self):
        c = ViolationCounters()
        c.record_simulation_state("bus")
        c.record_system_state()
        c.record_workload_state()
        assert c.total == 3
        assert c.by_resource == {"bus": 1, "directory": 1}

    def test_summary_text(self):
        c = ViolationCounters()
        c.record_workload_state()
        assert "workload=1" in c.summary()

    def test_fastforward_accounting(self):
        c = ViolationCounters()
        c.record_fastforward(5)
        c.record_fastforward(3)
        assert c.fastforwards == 2
        assert c.fastforward_cycles == 8


class TestWordOrderTracker:
    def test_clean_ordering_has_no_violations(self):
        c = ViolationCounters()
        t = WordOrderTracker(c)
        t.observe_store(0x100, core=0, ts=10)
        t.observe_load(0x100, core=1, ts=20)
        assert c.workload_state == 0

    def test_figure7_scenario(self):
        """Paper Figure 7: P1 loads M (simulated cycle 4) before P2's store
        to M (simulated cycle 2) is performed — in simulation time the load
        came first, violating the cycle-by-cycle order."""
        c = ViolationCounters()
        t = WordOrderTracker(c)
        t.observe_load(0x200, core=0, ts=4)    # P1: Load R1, M at cycle 4
        t.observe_store(0x200, core=1, ts=2)   # P2: Store R2, M at cycle 2
        assert c.workload_state == 1

    def test_load_after_future_store(self):
        c = ViolationCounters()
        t = WordOrderTracker(c)
        t.observe_store(0x200, core=1, ts=50)
        t.observe_load(0x200, core=0, ts=30)   # reads the "future" value
        assert c.workload_state == 1

    def test_same_core_races_do_not_count(self):
        c = ViolationCounters()
        t = WordOrderTracker(c)
        t.observe_load(0x300, core=0, ts=10)
        t.observe_store(0x300, core=0, ts=5)   # same core: program order
        assert c.workload_state == 0

    def test_different_words_are_independent(self):
        c = ViolationCounters()
        t = WordOrderTracker(c)
        t.observe_load(0x100, core=0, ts=10)
        t.observe_store(0x108, core=1, ts=5)
        assert c.workload_state == 0

    def test_fastforward_compensation(self):
        """§3.2.3: the store's core fast-forwards so the store appears
        contemporaneous with the conflicting load."""
        c = ViolationCounters()
        t = WordOrderTracker(c, fastforward=True)
        t.observe_load(0x200, core=0, ts=10)
        ff = t.observe_store(0x200, core=1, ts=7)
        assert ff == 4  # 10 - 7 + 1
        assert c.fastforwards == 1
        assert c.fastforward_cycles == 4

    def test_no_fastforward_when_disabled(self):
        c = ViolationCounters()
        t = WordOrderTracker(c, fastforward=False)
        t.observe_load(0x200, core=0, ts=10)
        assert t.observe_store(0x200, core=1, ts=7) == 0
        assert c.workload_state == 1

    def test_fastforwarded_store_timestamp_advances(self):
        c = ViolationCounters()
        t = WordOrderTracker(c, fastforward=True)
        t.observe_load(0x200, core=0, ts=10)
        t.observe_store(0x200, core=1, ts=7)   # fast-forwarded to ts 11
        # A later load at 12 sees the store in its past: no new violation.
        t.observe_load(0x200, core=0, ts=12)
        assert c.workload_state == 1  # only the original one


class TestWordOrderEdgeCases:
    """Boundary semantics of the Figure 7 detector: ties, multi-core
    interleavings, and the fast-forward landing point."""

    def test_same_timestamp_store_after_load_is_a_violation(self):
        """A cross-core store processed at the *same* simulated cycle as an
        already-performed load conflicts: the load provably read the old
        value, so ties count (``>=`` in observe_store)."""
        c = ViolationCounters()
        t = WordOrderTracker(c)
        t.observe_load(0x400, core=0, ts=25)
        t.observe_store(0x400, core=1, ts=25)
        assert c.workload_state == 1

    def test_same_timestamp_load_after_store_is_clean(self):
        """The symmetric tie is *not* a violation: a load at the store's own
        cycle observing the new value is a legal same-cycle outcome, so the
        load check is strict (``>`` in observe_load)."""
        c = ViolationCounters()
        t = WordOrderTracker(c)
        t.observe_store(0x400, core=1, ts=25)
        t.observe_load(0x400, core=0, ts=25)
        assert c.workload_state == 0

    def test_fastforward_lands_strictly_past_the_load(self):
        """§3.2.3 compensation must end *after* the conflicting load — a
        store fast-forwarded exactly onto the load's cycle would still tie
        with it, so even a same-cycle conflict forwards by one."""
        c = ViolationCounters()
        t = WordOrderTracker(c, fastforward=True)
        t.observe_load(0x500, core=0, ts=30)
        ff = t.observe_store(0x500, core=1, ts=30)
        assert ff == 1  # lands at 31, one past the load
        # The recorded store time includes the fast-forward: a re-load at
        # the adjusted cycle ties with the store and stays clean.
        t.observe_load(0x500, core=0, ts=31)
        assert c.workload_state == 1  # only the store's original conflict

    def test_three_core_interleaving_checks_against_latest_load(self):
        """Loads from several cores: the detector keeps the *latest* load
        per word, so a store conflicts iff it precedes that frontier —
        regardless of which core set it."""
        c = ViolationCounters()
        t = WordOrderTracker(c)
        t.observe_load(0x600, core=0, ts=40)
        t.observe_load(0x600, core=2, ts=15)  # earlier: frontier stays at 40
        t.observe_store(0x600, core=1, ts=20)  # past core 0's load -> race
        assert c.workload_state == 1
        # A second store by yet another core, after the frontier: clean.
        t.observe_store(0x600, core=2, ts=41)
        assert c.workload_state == 1

    def test_store_frontier_is_latest_not_last_observed(self):
        """Stores arriving out of simulated order: the kept frontier is the
        max timestamp, so a load between the two store times races with the
        *later* store only."""
        c = ViolationCounters()
        t = WordOrderTracker(c)
        t.observe_store(0x700, core=1, ts=50)
        t.observe_store(0x700, core=2, ts=10)  # late-processed early store
        t.observe_load(0x700, core=0, ts=30)   # future value from ts=50 store
        assert c.workload_state == 1

    def test_storing_core_own_frontier_does_not_self_conflict(self):
        """A core racing with *its own* earlier accesses is program order on
        that core, never a violation — even interleaved with other cores'
        clean accesses on the same word."""
        c = ViolationCounters()
        t = WordOrderTracker(c)
        t.observe_load(0x800, core=1, ts=60)
        t.observe_store(0x800, core=1, ts=55)  # same core: clean
        t.observe_load(0x800, core=0, ts=70)   # other core, after: clean
        assert c.workload_state == 0


class TestFastForwardDelaysTheCore:
    """§3.2.3 end to end: the compensation ``observe_store`` hands back is
    idle time the storing core really spends — on the direct core and,
    touch for touch, on the replay core."""

    ADDR = DATA_BASE + 64

    def make(self, kind, tracker):
        out = []
        if kind == "direct":
            program = assemble("main: sd t0, 64(s1)\naddi t1, t1, 1\nhalt\n")
            image = load_program(program, num_contexts=1)
            core = InOrderCore(
                0, program, image.memory, L1Cache(), out.append,
                SystemEmulation(image, 1), word_tracker=tracker,
            )
            state = ArchState()
            state.x[9] = DATA_BASE
            core.bind_context(state)
            core.activate(program.entry, 0, 0)
        else:
            ops = [(OP_MEM, ACC_STORE, 1, self.ADDR), (OP_RUN, 1), (OP_HALT,)]
            core = ReplayCore(
                0, ops, L1Cache(), out.append, ReplaySystem(1),
                word_tracker=tracker,
            )
            core.activate(0, 0, 0)
        return core, out

    @pytest.mark.parametrize("path", ["hit", "miss"])
    @pytest.mark.parametrize("kind", ["direct", "replay"])
    def test_next_commit_lands_ff_cycles_later(self, kind, path):
        counters = ViolationCounters()
        tracker = WordOrderTracker(counters, fastforward=True)
        tracker.observe_load(self.ADDR, core=1, ts=50)  # a load from the future
        core, out = self.make(kind, tracker)
        assert core.advance is None  # fast-forward keeps the per-cycle path
        now = 10
        if path == "hit":
            core.l1d.fill(core.l1d.block_addr(self.ADDR), MESI.MODIFIED)
        else:
            assert core.step(now) == (0, True) and out[0].kind is EvKind.GETX
            now = 20
            core.deliver_response(Event(EvKind.RESPONSE, out[0].addr, 0, now, grant=MESI.MODIFIED))
        assert core.step(now) == (1, True)  # the store commits, detected late
        ff = 50 - now + 1
        assert (counters.fastforwards, counters.fastforward_cycles) == (1, ff)
        assert core.wait_state(now + 1) == (now + ff + 1, False)
        for t in range(now + 1, now + ff + 1):
            assert core.step(t) == (0, False)  # idle, undetectable by the program
        assert core.step(now + ff + 1) == (1, True)


def test_fastforward_engages_on_a_registered_workload():
    """Workload-state violations do fire on a real workload under the OoO
    core (water, su, 8 host cores), and fast-forwarding compensates some of
    them: the stores it delays still complete the run with the oracle's
    output."""
    workload = make_workload("water", scale="tiny")

    def run(fastforward):
        result = SequentialEngine(
            workload.program,
            target=TargetConfig(core_model="ooo"),
            host=HostConfig(num_cores=8),
            sim=SimConfig(scheme="su", seed=1, fastforward=fastforward),
        ).run()
        assert result.completed and workload.verify(result.output)
        return result.stats

    off, on = run(False), run(True)
    assert off["violations.workload_state"] > 0
    assert off["violations.fastforwards"] == 0
    assert on["violations.fastforwards"] == 4
