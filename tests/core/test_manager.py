"""SimulationManager unit tests with stub core models."""

import pytest

from repro.core.corethread import CoreState, CoreThread
from repro.core.manager import SimulationManager
from repro.core.schemes import parse_scheme
from repro.mem.directory import MESI, EvKind, Event
from repro.mem.memsys import MemorySystem
from repro.violations.detect import ViolationCounters
from tests.lattice import SCHEMES, build


class _StubModel:
    """Records delivered events; never steps (manager tests drive times)."""

    def __init__(self):
        self.responses = []
        self.invalidations = []
        self.downgrades = []
        self.pending_wakes = []

    def deliver_response(self, ev):
        self.responses.append(ev)

    def apply_invalidation(self, addr):
        self.invalidations.append(addr)

    def apply_downgrade(self, addr):
        self.downgrades.append(addr)


def make_manager(scheme, n=2):
    cores = []
    for i in range(n):
        ct = CoreThread(i, _StubModel())
        ct.state = CoreState.ACTIVE
        cores.append(ct)
    counters = ViolationCounters()
    manager = SimulationManager(cores, MemorySystem(num_cores=n, counters=counters), parse_scheme(scheme))
    return manager, cores, counters


def req(core, ts, kind=EvKind.GETS, addr=0x1000):
    return Event(kind, addr, core, ts)


class TestGlobalTime:
    def test_global_is_min_active_local(self):
        manager, cores, _ = make_manager("s9")
        cores[0].local_time = 7
        cores[1].local_time = 3
        manager.step()
        assert manager.global_time == 3

    def test_global_is_monotonic(self):
        manager, cores, _ = make_manager("s9")
        cores[0].local_time = cores[1].local_time = 10
        manager.step()
        cores[1].local_time = 5  # cannot happen in practice; manager clamps
        manager.step()
        assert manager.global_time == 10

    def test_done_cores_excluded(self):
        manager, cores, _ = make_manager("s9")
        cores[0].local_time = 100
        cores[0].state = CoreState.DONE
        cores[1].local_time = 4
        manager.step()
        assert manager.global_time == 4

    def test_windows_raised_per_scheme(self):
        manager, cores, _ = make_manager("s9")
        cores[0].local_time = cores[1].local_time = 5
        result = manager.step()
        assert sorted(result.raised) == [0, 1]
        assert all(ct.max_local_time == 5 + 9 for ct in cores)


class TestPolicies:
    def test_immediate_services_on_sight(self):
        manager, cores, _ = make_manager("s9")
        cores[0].outq.push(req(0, ts=50))
        result = manager.step()
        assert result.processed == 1
        response = cores[0].inq.pop_due(10**9)
        assert response is not None and response.kind is EvKind.RESPONSE
        assert response.ts > 50

    def test_oldest_waits_for_global(self):
        manager, cores, _ = make_manager("s9*")
        cores[0].local_time = 0
        cores[1].local_time = 0
        cores[1].outq.push(req(1, ts=8))
        result = manager.step()
        assert result.processed == 0  # global is 0 < 8
        cores[0].local_time = cores[1].local_time = 8
        result = manager.step()
        assert result.processed == 1

    def test_barrier_waits_for_all_at_window_edge(self):
        manager, cores, _ = make_manager("q10")
        cores[0].max_local_time = cores[1].max_local_time = 10
        cores[0].local_time = 10
        cores[1].local_time = 6
        cores[0].outq.push(req(0, ts=3))
        assert manager.step().processed == 0  # core 1 not at barrier
        cores[1].local_time = 10
        assert manager.step().processed == 1
        assert manager.barriers_completed == 1

    def test_barrier_processes_in_timestamp_order(self):
        manager, cores, counters = make_manager("q10")
        cores[0].max_local_time = cores[1].max_local_time = 10
        cores[0].local_time = cores[1].local_time = 10
        cores[0].outq.push(req(0, ts=9, addr=0x40))
        cores[1].outq.push(req(1, ts=2, addr=0x40))
        manager.step()
        assert counters.simulation_state == 0  # ts order despite arrival order

    def test_immediate_arrival_order_can_violate(self):
        manager, cores, counters = make_manager("su")
        cores[0].outq.push(req(0, ts=9, addr=0x40))
        cores[1].outq.push(req(1, ts=2, addr=0x40))
        manager.step()
        assert counters.simulation_state > 0


class TestCoherenceDelivery:
    def test_invalidations_reach_victims(self):
        manager, cores, _ = make_manager("su")
        cores[0].outq.push(req(0, ts=1, kind=EvKind.GETS, addr=0x80))
        manager.step()
        cores[1].outq.push(req(1, ts=2, kind=EvKind.GETX, addr=0x80))
        manager.step()
        # core 0 held the block E; core 1's GETX must invalidate it.
        # Delivery goes through core 0's InQ.
        delivered = []
        while True:
            ev = cores[0].inq.pop_due(10**9)
            if ev is None:
                break
            delivered.append(ev)
        kinds = {e.kind for e in delivered}
        assert EvKind.INVALIDATE in kinds or EvKind.RESPONSE in kinds

    def test_every_response_carries_a_mesi_grant(self):
        """The directory's grant reaches the requester's InQ as the MESI
        state its L1 installs; a PUTM gets no response at all."""
        manager, cores, _ = make_manager("su")
        script = [
            (0, EvKind.GETS, MESI.EXCLUSIVE),   # first reader
            (1, EvKind.GETS, MESI.SHARED),      # second reader
            (0, EvKind.UPGRADE, MESI.MODIFIED),
            (1, EvKind.GETX, MESI.MODIFIED),    # takes it from core 0
            (1, EvKind.PUTM, None),
        ]
        for ts, (core, kind, grant) in enumerate(script):
            cores[core].outq.push(req(core, ts=ts, kind=kind, addr=0x80))
            manager.step()
            responses = []
            while (ev := cores[core].inq.pop_due(10**9)) is not None:
                if ev.kind is EvKind.RESPONSE:
                    responses.append(ev.grant)
            assert responses == ([] if grant is None else [grant]), kind

    def test_putm_produces_no_response(self):
        manager, cores, _ = make_manager("su")
        cores[0].outq.push(req(0, ts=1, kind=EvKind.GETX, addr=0xC0))
        manager.step()
        n_before = len(cores[0].model.responses) + len(cores[0].inq)
        cores[0].outq.push(req(0, ts=30, kind=EvKind.PUTM, addr=0xC0))
        manager.step()
        n_after = len(cores[0].model.responses) + len(cores[0].inq)
        assert n_after == n_before

    def test_lookahead_uses_oldest_pending(self):
        manager, cores, _ = make_manager("l10")
        cores[0].local_time = cores[1].local_time = 20
        manager.step()
        assert manager.global_time == 20
        assert cores[0].max_local_time == 30  # global + L with empty GQ

    def test_invariant_checker_raises_on_corruption(self):
        manager, cores, _ = make_manager("cc")
        manager.global_time = 50
        cores[0].local_time = 10  # below global: corrupted

        with pytest.raises(AssertionError, match="invariant"):
            manager.check_invariants()
        cores[1].local_time = cores[1].max_local_time = 50  # healthy
        cores[0].local_time = 60
        cores[0].max_local_time = 55  # past its window edge: corrupted
        with pytest.raises(AssertionError, match="invariant violated on core 0"):
            manager.check_invariants()




class TestActiveWindowInterplay:
    """``_active()`` vs window-raise under mixed core states: cores that go
    IDLE or DONE mid-window must drop out of pacing (global time, barrier
    membership, window raises) without stalling the survivors."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_idle_core_excluded_from_pacing(self, scheme):
        manager, cores, _ = make_manager(scheme, n=3)
        cores[0].local_time = cores[1].local_time = 5
        cores[2].local_time = 0
        cores[2].state = CoreState.IDLE
        result = manager.step()
        assert manager.global_time == 5  # idle core's stale clock ignored
        assert 2 not in result.raised

    # su's window has no edge to raise.
    @pytest.mark.parametrize("scheme", [s for s in SCHEMES if s != "su"])
    def test_done_mid_window_does_not_stall_window_raise(self, scheme):
        manager, cores, _ = make_manager(scheme)
        manager.step()  # establish the first window from t=0
        edge = cores[0].max_local_time
        assert edge > 0
        cores[1].state = CoreState.DONE  # finishes mid-window, clock behind
        cores[0].local_time = edge
        result = manager.step()
        assert manager.global_time == edge  # DONE core no longer the min
        assert result.raised == [0]
        assert cores[0].max_local_time > edge

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_idle_core_window_untouched_until_reactivated(self, scheme):
        manager, cores, _ = make_manager(scheme, n=3)
        cores[2].state = CoreState.IDLE
        stale_edge = cores[2].max_local_time
        cores[0].local_time = cores[1].local_time = 20
        manager.step()
        assert cores[2].max_local_time == stale_edge  # idle: no raise
        cores[2].state = CoreState.ACTIVE
        cores[2].local_time = manager.global_time  # wakes at global (engine contract)
        result = manager.step()
        assert 2 in result.raised
        assert cores[2].max_local_time == manager.current_max_local()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_all_inactive_freezes_clock_and_windows(self, scheme):
        manager, cores, _ = make_manager(scheme)
        cores[0].local_time = 50
        cores[1].local_time = 60
        for ct in cores:
            ct.state = CoreState.IDLE
        result = manager.step()
        assert manager.global_time == 0  # no active minimum to advance to
        assert result.raised == []
        assert manager.barriers_completed == 0

    def test_barrier_completes_without_done_core(self):
        # Under a barrier policy the at-edge check spans only active cores:
        # a core that went DONE mid-window (clock short of the edge) must
        # not hold the barrier open forever.
        manager, cores, _ = make_manager("q10")
        cores[0].max_local_time = cores[1].max_local_time = 10
        cores[0].local_time = 10
        cores[1].local_time = 4
        cores[1].state = CoreState.DONE
        result = manager.step()
        assert manager.barriers_completed == 1
        assert result.raised == [0]

    def test_barrier_services_requests_left_by_done_core(self):
        # Requests a core issued before finishing still drain and are
        # serviced at the surviving cores' barrier.
        manager, cores, _ = make_manager("q10")
        cores[0].max_local_time = cores[1].max_local_time = 10
        cores[0].local_time = 10
        cores[1].outq.push(req(1, ts=4))
        cores[1].state = CoreState.DONE
        result = manager.step()
        assert result.drained == 1
        assert result.processed == 1


class TestQuiet:
    """``quiet()`` holds exactly when ``step()`` would drain, service and
    raise nothing and leave global time where it is."""

    @pytest.mark.parametrize("scheme", ["s9", "s9*", "l10", "su"])
    @pytest.mark.parametrize("poke", ["nothing", "outq", "gq due", "gq later", "min local", "window"])
    def test_quiet_iff_the_step_is_a_no_op(self, scheme, poke):
        manager, cores, _ = make_manager(scheme)
        cores[0].local_time = cores[1].local_time = 5
        manager.step()
        if poke == "outq":
            cores[0].outq.push(req(0, ts=5))
        elif poke.startswith("gq"):
            manager.gq.push(req(1, ts=5 if poke == "gq due" else 9))
            manager._gq_depth += 1
        elif poke == "min local":
            cores[0].local_time = cores[1].local_time = 7
        elif poke == "window":
            cores[1].max_local_time -= 1
        quiet = manager.quiet()
        before = manager.global_time
        result = manager.step()
        assert quiet == (not result.work and not result.raised and manager.global_time == before)
        # A FIFO services a queued event at once; timestamp order at its time.
        assert quiet == (poke == "nothing" or (poke == "gq later" and scheme in ("s9*", "l10")))


# ------------------------------------------------- quiet-step elision (engine)
def logged_steps(engine) -> list:
    """Every manager step *engine*'s run takes, as ``(global time before,
    after, drained, processed, raised)``."""
    manager, step, taken = engine.manager, engine.manager.step, []

    def logged():
        before = manager.global_time
        result = step()
        taken.append((before, manager.global_time, result.drained, result.processed,
                      tuple(result.raised)))
        return result

    manager.step = logged
    return taken


@pytest.mark.parametrize("scheme", ["s9", "s9*", "l10", "s100", "su"])
@pytest.mark.parametrize("name", ["fft", "water", "lock"])
def test_sliding_window_runs_take_exactly_the_useful_steps(name, scheme):
    """Under a sliding window the engine takes a manager step exactly when it
    drains, services, raises or moves global time, or is the first step
    after global time moved (``manager.quiet()`` elides the rest).  A probe
    run takes every step; its useful ones are the default run's steps, one
    for one — a step too many means the elision disengaged, one too few
    that it elided a step with work."""
    taken = {}
    for probe in (False, True):
        engine = build(name, scheme, 4 if name == "lock" else 8, seed=11 if name == "lock" else 1)
        taken[probe] = logged_steps(engine)
        if probe:
            engine.probe = lambda *sample: None
        engine.run()
    useful, last = [], None
    for step in taken[True]:
        before, after, drained, processed, raised = step
        if drained or processed or raised or after != before or before != last:
            useful.append(step)
        last = after
    assert taken[False] == useful
    assert len(useful) < len(taken[True])  # the elision fires on every cell
