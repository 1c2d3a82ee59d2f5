"""OutQ / InQ / GQ behaviour tests."""

from collections import deque

import pytest
from hypothesis import given, strategies as st

from repro.core.events import EvKind, Event
from repro.core.queues import GlobalQueue, InQ, OutQ


def ev(ts, kind=EvKind.GETS, core=0, addr=0):
    return Event(kind, addr, core, ts)


class TestOutQ:
    def test_drain_preserves_order_and_empties(self):
        q = OutQ()
        events = [ev(3), ev(1), ev(2)]
        for e in events:
            q.push(e)
        assert q.drain() == events
        assert len(q) == 0
        assert q.drain() == []


class TestInQ:
    def test_pop_due_respects_timestamps(self):
        q = InQ()
        q.push(ev(10))
        q.push(ev(5))
        assert q.pop_due(4) is None
        assert q.pop_due(5).ts == 5
        assert q.pop_due(9) is None
        assert q.pop_due(10).ts == 10

    def test_past_events_pop_immediately(self):
        q = InQ()
        q.push(ev(3))
        assert q.pop_due(100).ts == 3

    def test_peek_ts(self):
        q = InQ()
        assert q.peek_ts() is None
        q.push(ev(7))
        q.push(ev(2))
        assert q.peek_ts() == 2

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50))
    def test_pop_due_yields_sorted_prefix(self, stamps):
        q = InQ()
        for ts in stamps:
            q.push(ev(ts))
        out = []
        while True:
            e = q.pop_due(50)
            if e is None:
                break
            out.append(e.ts)
        assert out == sorted(ts for ts in stamps if ts <= 50)


class TestGQ:
    def test_fifo_pop_is_arrival_order(self):
        q = GlobalQueue()
        for e in [ev(5), ev(1), ev(3)]:
            q.push(e)
        assert [q.pop_fifo().ts for _ in range(3)] == [5, 1, 3]
        assert q.pop_fifo() is None

    def test_oldest_pop_is_timestamp_order_with_bound(self):
        q = GlobalQueue()
        for e in [ev(5), ev(1), ev(3)]:
            q.push(e)
        assert q.pop_oldest(0) is None
        assert q.pop_oldest(3).ts == 1
        assert q.pop_oldest(3).ts == 3
        assert q.pop_oldest(3) is None
        assert q.pop_oldest(10).ts == 5

    def test_mixed_disciplines_never_double_serve(self):
        q = GlobalQueue()
        events = [ev(i) for i in (4, 2, 9, 2)]
        for e in events:
            q.push(e)
        served = [q.pop_oldest(3), q.pop_fifo(), q.pop_fifo(), q.pop_fifo()]
        served = [e for e in served if e is not None]
        assert len(served) == 4
        assert len({id(e) for e in served}) == 4

    def test_oldest_ts_skips_consumed(self):
        q = GlobalQueue()
        q.push(ev(2))
        q.push(ev(7))
        assert q.oldest_ts() == 2
        q.pop_oldest(5)
        assert q.oldest_ts() == 7

    def test_len_counts_unconsumed(self):
        q = GlobalQueue()
        q.push(ev(1))
        q.push(ev(2))
        q.pop_fifo()
        assert len(q) == 1

    @pytest.mark.parametrize("policy", ["immediate", "barrier", "oldest"])
    def test_rounds_leave_both_structures_empty(self, policy):
        """Each policy pops through one structure only; the other must be
        trimmed as it goes, or it keeps every event the run ever pushed."""
        q = GlobalQueue()
        for round_ in range(40):
            base = round_ * 10
            for i in range(7):
                q.push(ev(base + (i * 3) % 7, core=i % 4))
            assert len(q) == 7 and q
            if policy == "immediate":
                while q.pop_fifo() is not None:
                    pass
            elif policy == "barrier":
                while q.pop_oldest(1 << 62) is not None:
                    pass
            else:
                # Global time crawls through the round: a consumed entry may
                # sit behind a live front entry, never behind an empty queue.
                for bound in range(base, base + 7):
                    while q.pop_oldest(bound) is not None:
                        assert len(q._fifo) <= 7 and len(q._heap) <= 7
            assert len(q) == 0 and not q
            assert len(q._fifo) == len(q._heap) == 0

    def test_len_and_bool_never_walk_the_queue(self):
        class NoIter(deque):
            def __iter__(self):
                raise AssertionError("len()/bool() iterated the FIFO")

        q = GlobalQueue()
        q._fifo = NoIter()
        for ts in (4, 2, 9):
            q.push(ev(ts))
        q.pop_oldest(3)
        assert len(q) == 2 and q
        q.pop_fifo(), q.pop_fifo()
        assert len(q) == 0 and not q

    def test_restores_a_state_pickled_without_the_live_count(self):
        q = GlobalQueue()
        for ts in (4, 2, 9):
            q.push(ev(ts))
        q.pop_fifo()
        old = GlobalQueue.__new__(GlobalQueue)
        old.__setstate__((None, {"_fifo": q._fifo, "_heap": q._heap}))
        assert len(old) == 2
        assert old.pop_oldest(10).ts == 2

    def test_ties_broken_by_core_then_sequence(self):
        """Same-ts requests are serviced in core-id order regardless of the
        (host-dependent) arrival order; within one core, creation order."""
        q = GlobalQueue()
        b, a = ev(5, core=2), ev(5, core=1)
        q.push(b)  # core 2 arrives first...
        q.push(a)
        assert q.pop_oldest(5) is a  # ...but core 1 is serviced first
        assert q.pop_oldest(5) is b
        q2 = GlobalQueue()
        first, second = ev(5, core=1), ev(5, core=1)
        q2.push(first)
        q2.push(second)
        assert q2.pop_oldest(5) is first
        assert q2.pop_oldest(5) is second
