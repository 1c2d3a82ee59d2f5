"""OutQ / InQ / GQ behaviour tests.

Each heap-ordered queue breaks timestamp ties by its own push count: the InQ
pops in ``(ts, push order)``, a timestamp-ordered GQ in ``(ts, core, push
order)``.  The property tests keep a model of the live entries with their
push index and check every pop against it.
"""

import pickle
from collections import deque

import pytest
from hypothesis import given, strategies as st

from repro.core.queues import GlobalQueue, InQ, OutQ
from repro.mem.directory import EvKind, Event


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
        """The due entries pop in ``(ts, push order)``."""
        q = InQ()
        pushed = [ev(ts) for ts in stamps]
        for e in pushed:
            q.push(e)
        out = []
        while True:
            e = q.pop_due(50)
            if e is None:
                break
            out.append(e)
        order = sorted(range(len(pushed)), key=lambda n: (pushed[n].ts, n))
        assert out == [pushed[n] for n in order if pushed[n].ts <= 50]

    def test_push_count_survives_pickling(self):
        """The tie-break is the queue's own state: a pickled queue (a
        checkpointed engine's) keeps ordering same-ts entries by push order."""
        q = InQ()
        q.push(ev(5, addr=1))
        q.push(ev(5, addr=2))
        q = pickle.loads(pickle.dumps(q))
        q.push(ev(5, addr=3))
        assert [q.pop_due(5).addr for _ in range(3)] == [1, 2, 3]


#: A GQ workload: pushes of (ts, core) interleaved with pops; a pop's value
#: is how far the release bound crawls forward first (heap policies only).
_GQ_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 40), st.integers(0, 3)),
        st.tuples(st.just("pop"), st.integers(0, 4)),
    ),
    max_size=80,
)


def _assert_agrees(q, live):
    """*live* models the queue: ``(push index, event)`` per entry."""
    assert len(q) == len(live)
    assert bool(q) == bool(live)
    if not q._fifo:  # the lookahead bound reads timestamp-ordered queues only
        assert q.oldest_ts() == (min(e.ts for _, e in live) if live else None)


class TestGQ:
    @pytest.mark.parametrize(
        "policy, structure", [("immediate", deque), ("barrier", list), ("oldest", list)]
    )
    def test_holds_one_structure_per_policy(self, policy, structure):
        q = GlobalQueue(policy)
        for e in [ev(5), ev(1), ev(3)]:
            q.push(e)
        assert type(q._q) is structure and len(q._q) == 3

    def test_fifo_pop_is_arrival_order(self):
        q = GlobalQueue("immediate")
        for e in [ev(5), ev(1), ev(3)]:
            q.push(e)
        assert [q.pop_fifo().ts for _ in range(3)] == [5, 1, 3]
        assert q.pop_fifo() is None

    def test_oldest_pop_is_timestamp_order_with_bound(self):
        q = GlobalQueue("oldest")
        for e in [ev(5), ev(1), ev(3)]:
            q.push(e)
        assert q.pop_oldest(0) is None
        assert q.pop_oldest(3).ts == 1
        assert q.pop_oldest(3).ts == 3
        assert q.pop_oldest(3) is None
        assert q.pop_oldest(10).ts == 5

    def test_oldest_ts_skips_consumed(self):
        q = GlobalQueue("oldest")
        q.push(ev(2))
        q.push(ev(7))
        assert q.oldest_ts() == 2
        q.pop_oldest(5)
        assert q.oldest_ts() == 7

    def test_ties_broken_by_core_then_sequence(self):
        """Same-ts requests are serviced in core-id order regardless of the
        (host-dependent) arrival order; within one core, push order (the
        order the core emitted them)."""
        q = GlobalQueue("barrier")
        b, a = ev(5, core=2), ev(5, core=1)
        q.push(b)  # core 2 arrives first...
        q.push(a)
        assert q.pop_oldest(5) is a  # ...but core 1 is serviced first
        assert q.pop_oldest(5) is b
        q2 = GlobalQueue("barrier")
        first, second = ev(5, core=1), ev(5, core=1)
        q2.push(first)
        q2.push(second)
        assert q2.pop_oldest(5) is first
        assert q2.pop_oldest(5) is second

    @given(_GQ_OPS)
    def test_immediate_pops_in_arrival_order(self, ops):
        q = GlobalQueue("immediate")
        live = []
        for n, op in enumerate(ops):
            if op[0] == "push":
                e = ev(op[1], core=op[2])
                q.push(e)
                live.append((n, e))
            else:
                assert q.pop_fifo() is (live.pop(0)[1] if live else None)
            _assert_agrees(q, live)

    @pytest.mark.parametrize("policy", ["barrier", "oldest"])
    @given(ops=_GQ_OPS)
    def test_heap_pops_sorted_under_a_crawling_bound(self, policy, ops):
        q = GlobalQueue(policy)
        live = []
        bound = 0
        for n, op in enumerate(ops):
            if op[0] == "push":
                e = ev(op[1], core=op[2])
                q.push(e)
                live.append((n, e))
            else:
                bound += op[1]
                due = [(e.ts, e.core, m) for m, e in live if e.ts <= bound]
                popped = q.pop_oldest(bound)
                if due:
                    m = min(due)[2]
                    expected = next(entry for entry in live if entry[0] == m)
                    assert popped is expected[1]
                    live.remove(expected)
                else:
                    assert popped is None
            _assert_agrees(q, live)
