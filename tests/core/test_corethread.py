"""CoreThread unit tests: batching, window edges, InQ routing, skip-ahead."""

from repro.core.corethread import BatchStats, CoreState, CoreThread
from repro.core.events import EvKind, Event
from repro.cpu.interfaces import CorePhase


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

    def stall_hint(self, now):
        return self._hint


def make_thread(model=None, max_local=100):
    ct = CoreThread(0, model or _ScriptedModel())
    ct.activate(0, 0, 0)
    ct.max_local_time = max_local
    return ct


class TestBatching:
    def test_budget_limits_cycles(self):
        ct = make_thread()
        stats = ct.run(5)
        assert stats.cycles == 5
        assert ct.local_time == 5

    def test_window_edge_stops_batch(self):
        ct = make_thread(max_local=3)
        stats = ct.run(10)
        assert stats.cycles == 3
        assert stats.hit_window_edge
        assert ct.local_time == 3

    def test_zero_window_runs_nothing(self):
        ct = make_thread(max_local=0)
        stats = ct.run(10)
        assert stats.cycles == 0 and stats.hit_window_edge

    def test_halting_sets_done_and_final_time(self):
        ct = make_thread(_ScriptedModel(halt_after=4))
        ct.run(20)
        assert ct.state == CoreState.DONE
        assert ct.final_time == 5
        assert not ct.run(20).cycles  # done threads do not run

    def test_active_idle_classification(self):
        ct = make_thread(_ScriptedModel(active_pattern=[True, False, False, True]))
        stats = ct.run(4)
        assert stats.active_cycles == 2
        assert stats.idle_cycles == 2

    def test_totals_accumulate(self):
        ct = make_thread()
        ct.run(4)
        ct.run(3)
        assert ct.total_cycles == 7
        assert ct.total_committed == 7


class TestInQRouting:
    def test_due_events_route_by_kind(self):
        model = _ScriptedModel()
        ct = make_thread(model)
        ct.inq.push(Event(EvKind.RESPONSE, 0x40, 0, ts=0, grant="E"))
        ct.inq.push(Event(EvKind.INVALIDATE, 0x80, 0, ts=0))
        ct.inq.push(Event(EvKind.DOWNGRADE, 0xC0, 0, ts=0))
        ct.run(1)
        assert [e.addr for e in model.delivered] == [0x40]
        assert model.invalidated == [0x80]
        assert model.downgraded == [0xC0]

    def test_future_events_wait_for_local_time(self):
        model = _ScriptedModel()
        ct = make_thread(model)
        ct.inq.push(Event(EvKind.RESPONSE, 0x40, 0, ts=6, grant="E"))
        ct.run(3)
        assert model.delivered == []
        ct.run(5)
        assert len(model.delivered) == 1

    def test_wakes_are_collected(self):
        model = _ScriptedModel()
        ct = make_thread(model)
        model.pending_wakes.append((3, 17))
        stats = ct.run(1)
        assert stats.wakes == [(3, 17)]
        assert model.pending_wakes == []


class TestSkipAhead:
    def test_hint_jumps_in_one_batch(self):
        model = _ScriptedModel(active_pattern=[False])
        model._hint = 50
        ct = make_thread(model)
        stats = ct.run(100)
        # The first cycle steps, then a 49-cycle jump happens without any
        # model.step calls; past the hint the model is stepped per cycle.
        assert ct.local_time >= 50
        assert len(model.steps) == stats.cycles - 49

    def test_jump_capped_by_window(self):
        model = _ScriptedModel(active_pattern=[False])
        model._hint = 500
        ct = make_thread(model, max_local=20)
        ct.run(100)
        assert ct.local_time == 20

    def test_jump_capped_by_pending_event(self):
        model = _ScriptedModel(active_pattern=[False])
        model._hint = 80
        ct = make_thread(model)
        ct.inq.push(Event(EvKind.INVALIDATE, 0x80, 0, ts=10))
        ct.run(100)
        # The jump may not skip past the event's timestamp undelivered.
        assert model.invalidated == [0x80]
