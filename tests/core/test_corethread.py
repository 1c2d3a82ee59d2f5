"""CoreThread unit tests: the one turn loop (``step_many``) — batching,
window edges, InQ routing, the ``stall_hint`` skip-ahead, and the wake/halt
fold after a step or an ``advance``."""

import pytest

from repro.core.corethread import BatchStats, CoreState, CoreThread
from repro.cpu.interfaces import CorePhase
from repro.mem.directory import MESI, EvKind, Event


class _ScriptedModel:
    """A minimal core model whose per-cycle behaviour is scripted."""

    def __init__(self, active_pattern=None, halt_after=None):
        self.phase = CorePhase.ACTIVE
        self.pending_wakes = []
        self.steps = []
        self.delivered = []
        self.invalidated = []
        self.downgraded = []
        self.active_pattern = active_pattern or []
        self.halt_after = halt_after
        self._hint = None

    def activate(self, pc, arg, ts):
        self.phase = CorePhase.ACTIVE

    def step(self, now):
        self.steps.append(now)
        if self.halt_after is not None and len(self.steps) > self.halt_after:
            self.phase = CorePhase.HALTED
            return 0, True
        if self.active_pattern:
            active = self.active_pattern[min(len(self.steps) - 1, len(self.active_pattern) - 1)]
        else:
            active = True
        return (1 if active else 0), active

    def deliver_response(self, ev):
        self.delivered.append(ev)

    def apply_invalidation(self, addr):
        self.invalidated.append(addr)

    def apply_downgrade(self, addr):
        self.downgraded.append(addr)

    def wait_state(self, now):
        return None

    def stall_hint(self, now):
        return self._hint


def make_thread(model=None, max_local=100):
    ct = CoreThread(0, model or _ScriptedModel())
    ct.activate(0, 0, 0)
    ct.max_local_time = max_local
    return ct


def turn(ct, budget, *, single=False):
    return ct.step_many(budget, wait_chunk=8, single=single)


class TestBatching:
    def test_budget_limits_cycles(self):
        ct = make_thread()
        stats = turn(ct, 5)
        assert stats.cycles == 5
        assert ct.local_time == 5

    def test_window_edge_stops_batch(self):
        ct = make_thread(max_local=3)
        stats = turn(ct, 10)
        assert stats.cycles == 3
        assert stats.hit_window_edge
        assert ct.local_time == 3

    def test_zero_window_runs_nothing(self):
        ct = make_thread(max_local=0)
        stats = turn(ct, 10)
        assert stats.cycles == 0 and stats.hit_window_edge

    def test_halting_sets_done_and_final_time(self):
        ct = make_thread(_ScriptedModel(halt_after=4))
        turn(ct, 20)
        assert ct.state == CoreState.DONE
        assert ct.final_time == 5
        assert not turn(ct, 20).cycles  # done threads do not run

    def test_active_idle_classification(self):
        ct = make_thread(_ScriptedModel(active_pattern=[True, False, False, True]))
        stats = turn(ct, 4)
        assert stats.active_cycles == 2
        assert stats.idle_cycles == 2

    def test_totals_accumulate(self):
        ct = make_thread()
        turn(ct, 4)
        turn(ct, 3)
        assert ct.total_cycles == 7
        assert ct.total_committed == 7


class TestInQRouting:
    def test_due_events_route_by_kind(self):
        model = _ScriptedModel()
        ct = make_thread(model)
        ct.inq.push(Event(EvKind.RESPONSE, 0x40, 0, ts=0, grant=MESI.EXCLUSIVE))
        ct.inq.push(Event(EvKind.INVALIDATE, 0x80, 0, ts=0))
        ct.inq.push(Event(EvKind.DOWNGRADE, 0xC0, 0, ts=0))
        turn(ct, 1)
        assert [e.addr for e in model.delivered] == [0x40]
        assert model.invalidated == [0x80]
        assert model.downgraded == [0xC0]

    def test_future_events_wait_for_local_time(self):
        model = _ScriptedModel()
        ct = make_thread(model)
        ct.inq.push(Event(EvKind.RESPONSE, 0x40, 0, ts=6, grant=MESI.EXCLUSIVE))
        turn(ct, 3)
        assert model.delivered == []
        turn(ct, 5)
        assert len(model.delivered) == 1

    def test_wakes_are_collected(self):
        model = _ScriptedModel()
        ct = make_thread(model)
        model.pending_wakes.append((3, 17))
        stats = turn(ct, 1)
        assert stats.wakes == [(3, 17)]
        assert model.pending_wakes == []


class TestSkipAhead:
    def test_hint_jumps_in_one_batch(self):
        model = _ScriptedModel(active_pattern=[False])
        model._hint = 50
        ct = make_thread(model)
        stats = turn(ct, 100)
        # The first cycle steps, then a 49-cycle jump happens without any
        # model.step calls; past the hint the model is stepped per cycle.
        assert ct.local_time >= 50
        assert len(model.steps) == stats.cycles - 49

    def test_jump_capped_by_window(self):
        model = _ScriptedModel(active_pattern=[False])
        model._hint = 500
        ct = make_thread(model, max_local=20)
        turn(ct, 100)
        assert ct.local_time == 20

    def test_jump_capped_by_pending_event(self):
        model = _ScriptedModel(active_pattern=[False])
        model._hint = 80
        ct = make_thread(model)
        ct.inq.push(Event(EvKind.INVALIDATE, 0x80, 0, ts=10))
        turn(ct, 100)
        # The jump may not skip past the event's timestamp undelivered.
        assert model.invalidated == [0x80]
        assert ct.local_time == 100

    def test_jump_capped_by_budget(self):
        model = _ScriptedModel(active_pattern=[False])
        model._hint = 80
        ct = make_thread(model)
        stats = turn(ct, 30)
        assert ct.local_time == stats.cycles == 30
        assert model.steps == [0]

    @pytest.mark.parametrize("spinning", [False, True])
    def test_jump_is_charged_active_only_when_spinning(self, spinning):
        model = _ScriptedModel(active_pattern=[False])
        model._hint = 40
        model.spinning = spinning
        ct = make_thread(model)
        stats = turn(ct, 40)
        # One stepped idle cycle, then the 39-cycle jump.
        assert (stats.active_cycles, stats.idle_cycles) == (
            (39, 1) if spinning else (0, 40)
        )

    def test_single_stepping_takes_the_same_jump(self):
        """The hint is a per-cycle skip-ahead, not a batched shortcut: the
        ``single`` oracle takes it too."""
        runs = []
        for single in (False, True):
            model = _ScriptedModel(active_pattern=[False])
            model._hint = 50
            ct = make_thread(model)
            runs.append((turn(ct, 60, single=single).cycles, model.steps))
        assert runs[0] == runs[1] == (60, [0] + list(range(50, 60)))


class _RunAheadModel(_ScriptedModel):
    """A scripted model with ``advance``: each call runs up to ``stretch``
    cycles, then may leave a wake order or halt, as the OoO core's does."""

    def __init__(self, stretch, *, wake_at=None, halt_at=None):
        super().__init__()
        self.stretch = stretch
        self.wake_at = wake_at
        self.halt_at = halt_at
        self.advances = []

    def advance(self, now, limit, stats):
        n = min(self.stretch, limit - now)
        self.advances.append((now, limit))
        end = now + n
        if self.wake_at is not None and now < self.wake_at <= end:
            self.pending_wakes.append((1, end))
        if self.halt_at is not None and now < self.halt_at <= end:
            self.phase = CorePhase.HALTED
        stats.cycles += n
        stats.active_cycles += n
        stats.committed += n
        return n


class TestAdvanceFold:
    def test_wake_order_after_advance_is_folded(self):
        model = _RunAheadModel(10, wake_at=20)
        ct = make_thread(model)
        stats = turn(ct, 40)
        assert stats.wakes == [(1, 20)]
        assert model.pending_wakes == []
        # The turn goes on after the wake: the engine releases the peer when
        # the turn ends.
        assert ct.local_time == stats.cycles == 40
        assert model.steps == []

    def test_halt_after_advance_ends_the_turn(self):
        model = _RunAheadModel(10, halt_at=25)
        ct = make_thread(model)
        stats = turn(ct, 100)
        assert ct.state == CoreState.DONE
        assert ct.final_time == ct.local_time == stats.cycles == 30
        assert not stats.hit_window_edge
        assert model.steps == []

    def test_one_cycle_of_room_is_a_step(self):
        model = _RunAheadModel(10)
        ct = make_thread(model, max_local=11)
        turn(ct, 100)
        assert model.advances == [(0, 11)]
        assert model.steps == [10]

    def test_advance_stops_at_the_next_queued_event(self):
        model = _RunAheadModel(100)
        ct = make_thread(model)
        ct.inq.push(Event(EvKind.INVALIDATE, 0x80, 0, ts=7))
        turn(ct, 50)
        assert model.advances == [(0, 7), (7, 50)]
        assert model.invalidated == [0x80]

    def test_single_stepping_never_advances(self):
        model = _RunAheadModel(10, wake_at=3)
        ct = make_thread(model)
        stats = turn(ct, 5, single=True)
        assert model.advances == [] and model.steps == [0, 1, 2, 3, 4]
        assert stats.cycles == 5 and stats.wakes == []
