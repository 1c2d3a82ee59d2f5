"""Unit tests for the durable job queue's state machine (DESIGN.md §13).

Everything runs on a logical clock — every mutating call passes ``now``
explicitly — so lease expiry, backoff visibility, and retry budgets are
tested deterministically, no sleeps."""

import pytest

from repro.serve.queue import JobQueue, QueueError, STATES, TERMINAL


@pytest.fixture()
def q(tmp_path):
    queue = JobQueue(tmp_path / "queue.sqlite")
    yield queue
    queue.close()


def submit(q, key="k1", **kwargs):
    view, created = q.submit(key, '{"spec": true}', now=0.0, **kwargs)
    return view, created


def test_submit_creates_queued_row(q):
    view, created = submit(q)
    assert created
    assert view["state"] == "QUEUED"
    assert view["attempts"] == 0


def test_submit_is_idempotent_attach(q):
    submit(q)
    view, created = submit(q)
    assert not created
    assert view["state"] == "QUEUED"
    assert q.counts()["QUEUED"] == 1


def test_submit_straight_to_done_for_store_hits(q):
    view, created = submit(q, state="DONE")
    assert created and view["state"] == "DONE"
    assert q.depth() == 0  # cache hits never occupy admission-control depth


def test_submit_rejects_other_states(q):
    with pytest.raises(QueueError):
        submit(q, state="RUNNING")


def test_lease_is_fifo_and_mints_token(q):
    submit(q, key="a")
    submit(q, key="b")
    first = q.lease("w0", ttl=10, now=1.0)
    second = q.lease("w1", ttl=10, now=1.0)
    assert first["job_key"] == "a" and second["job_key"] == "b"
    assert first["lease_id"] and first["lease_id"] != second["lease_id"]
    assert q.lease("w2", ttl=10, now=1.0) is None


def test_full_happy_path(q):
    submit(q)
    job = q.lease("w0", ttl=10, now=1.0)
    q.start("k1", job["lease_id"], now=2.0)
    assert q.get("k1")["state"] == "RUNNING"
    q.complete("k1", job["lease_id"], now=3.0)
    assert q.get("k1")["state"] == "DONE"
    assert q.get("k1")["lease_id"] is None


def test_stale_lease_is_fenced_out(q):
    submit(q)
    job = q.lease("w0", ttl=1, now=0.0)
    assert q.expire(now=5.0) == ["k1"]  # lease lapsed, job requeued
    release = q.lease("w1", ttl=10, now=5.0)
    # The original leaseholder's verdict no longer counts for anything.
    for verb in (q.start, q.complete):
        with pytest.raises(QueueError):
            verb("k1", job["lease_id"], now=6.0)
    with pytest.raises(QueueError):
        q.fail("k1", job["lease_id"], "late", now=6.0)
    # ...while the current one proceeds normally.
    q.start("k1", release["lease_id"], now=6.0)
    q.complete("k1", release["lease_id"], now=7.0)
    assert q.get("k1")["state"] == "DONE"


def test_no_double_complete(q):
    submit(q)
    job = q.lease("w0", ttl=10, now=0.0)
    q.complete("k1", job["lease_id"], now=1.0)
    with pytest.raises(QueueError):
        q.complete("k1", job["lease_id"], now=2.0)


def test_requeue_charges_attempt_and_applies_backoff(q):
    submit(q)
    job = q.lease("w0", ttl=10, now=0.0)
    state = q.requeue("k1", job["lease_id"], "worker lost", delay=4.0, now=1.0)
    assert state == "QUEUED"
    assert q.get("k1")["attempts"] == 1
    # Parked behind not_before until the backoff delay elapses.
    assert q.lease("w1", ttl=10, now=2.0) is None
    assert q.lease("w1", ttl=10, now=5.0)["job_key"] == "k1"


def test_retry_budget_exhaustion_dead_letters(q):
    submit(q, max_retries=2)
    for now in (0.0, 1.0):
        job = q.lease("w0", ttl=10, now=now)
        assert q.requeue("k1", job["lease_id"], "crash", now=now) == "QUEUED"
    job = q.lease("w0", ttl=10, now=2.0)
    assert q.requeue("k1", job["lease_id"], "crash #3", now=2.0) == "DEAD"
    view = q.get("k1")
    assert view["state"] == "DEAD"
    assert view["attempts"] == 3  # budget of 2 retries ⇒ third charge kills it
    assert view["error"] == "crash #3"
    assert q.lease("w0", ttl=10, now=99.0) is None  # dead jobs never re-lease


def test_job_error_fails_without_retry(q):
    submit(q)
    job = q.lease("w0", ttl=10, now=0.0)
    q.fail("k1", job["lease_id"], "ValueError: bad workload", now=1.0)
    view = q.get("k1")
    assert view["state"] == "FAILED"
    assert view["attempts"] == 0  # deterministic errors never charge retries
    assert "ValueError" in view["error"]


def test_recover_requeues_orphans_without_charging(q):
    submit(q, key="leased")
    submit(q, key="running")
    submit(q, key="done")
    a = q.lease("w0", ttl=10, now=0.0)
    b = q.lease("w1", ttl=10, now=0.0)
    q.start(b["job_key"], b["lease_id"], now=1.0)
    c = q.lease("w2", ttl=10, now=1.0)
    q.complete(c["job_key"], c["lease_id"], now=2.0)
    recovered = q.recover(now=3.0)
    assert sorted(recovered) == ["leased", "running"]
    for key in ("leased", "running"):
        view = q.get(key)
        assert view["state"] == "QUEUED"
        assert view["attempts"] == 0  # daemon death is not the job's fault
        assert view["lease_id"] is None
    assert q.get("done")["state"] == "DONE"
    # The dead incarnation's tokens are void.
    with pytest.raises(QueueError):
        q.complete("leased", a["lease_id"], now=4.0)


def test_renew_extends_monotonically(q):
    submit(q)
    job = q.lease("w0", ttl=10, now=0.0)
    q.renew("k1", job["lease_id"], ttl=10, now=5.0)   # expiry → 15
    q.renew("k1", job["lease_id"], ttl=10, now=2.0)   # older now: no shrink
    assert q.get("k1")["lease_expiry"] == 15.0
    assert q.expire(now=14.0) == []


def test_cancel_queued_is_immediate(q):
    submit(q)
    assert q.request_cancel("k1", now=1.0) == "FAILED"
    assert q.get("k1")["error"] == "cancelled"


def test_cancel_running_is_flagged_for_supervisor(q):
    submit(q)
    job = q.lease("w0", ttl=10, now=0.0)
    q.start("k1", job["lease_id"], now=1.0)
    assert q.request_cancel("k1", now=2.0) == "RUNNING"
    flagged = q.cancel_requests()
    assert [j["job_key"] for j in flagged] == ["k1"]


def test_cancel_terminal_is_noop(q):
    submit(q)
    job = q.lease("w0", ttl=10, now=0.0)
    q.complete("k1", job["lease_id"], now=1.0)
    assert q.request_cancel("k1", now=2.0) == "DONE"


def test_operator_retry_rearms_budget(q):
    submit(q, max_retries=0)
    job = q.lease("w0", ttl=10, now=0.0)
    assert q.requeue("k1", job["lease_id"], "crash", now=1.0) == "DEAD"
    view = q.retry("k1", now=2.0)
    assert view["state"] == "QUEUED" and view["attempts"] == 0
    with pytest.raises(QueueError):
        q.retry("k1", now=3.0)  # only FAILED/DEAD are retryable


def test_counts_and_depth(q):
    for key in ("a", "b", "c"):
        submit(q, key=key)
    job = q.lease("w0", ttl=10, now=0.0)
    q.complete(job["job_key"], job["lease_id"], now=1.0)
    counts = q.counts()
    assert set(counts) == set(STATES)
    assert counts["DONE"] == 1 and counts["QUEUED"] == 2
    assert q.depth() == 2  # terminal states don't count against admission


def test_queue_survives_reopen(q, tmp_path):
    submit(q)
    job = q.lease("w0", ttl=10, now=0.0)
    q.start("k1", job["lease_id"], now=1.0)
    q.close()
    reopened = JobQueue(tmp_path / "queue.sqlite")
    try:
        assert reopened.get("k1")["state"] == "RUNNING"
        assert reopened.recover(now=2.0) == ["k1"]
    finally:
        reopened.close()


def test_unknown_key_raises(q):
    assert q.get("missing") is None
    with pytest.raises(QueueError):
        q.start("missing", "nope")
    with pytest.raises(QueueError):
        q.retry("missing")


def test_terminal_set_matches_states():
    assert TERMINAL < set(STATES)
    assert TERMINAL == {"DONE", "FAILED", "DEAD"}


# ------------------------------------------------------------ wait_terminal
def test_wait_terminal_answers_at_once_when_there_is_nothing_to_wait_for(q):
    assert q.wait_terminal("missing", 5.0) is None
    submit(q)
    assert q.wait_terminal("k1", 0.0)["state"] == "QUEUED"
    assert q.request_cancel("k1", now=1.0) == "FAILED"
    assert q.wait_terminal("k1", 5.0)["state"] == "FAILED"
    submit(q, key="k2")
    q.release_waiters()
    assert q.wait_terminal("k2", 5.0)["state"] == "QUEUED"


def test_wait_terminal_misses_no_transition_under_contention(q):
    """More waiters than cores, a short switch interval, and every kind of
    terminal transition racing the waiters' read-then-sleep: each waiter
    must come back with its job's terminal row, none by timing out."""
    import sys
    import threading
    import time

    ends = {
        "complete": lambda key, lease: q.complete(key, lease),
        "fail": lambda key, lease: q.fail(key, lease, "boom"),
        "dead": lambda key, lease: q.requeue(key, lease, "lost"),
    }
    keys = [f"job{i}" for i in range(24)]
    for key in keys:
        submit(q, key=key, max_retries=0)
    answers: dict = {}

    def waiter(key):
        start = time.monotonic()
        answers[key] = (q.wait_terminal(key, 30.0), time.monotonic() - start)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=waiter, args=(key,)) for key in keys]
        for thread in threads:
            thread.start()
        for i, key in enumerate(keys):
            lease = q.lease("w0")["lease_id"]  # FIFO: leases keys in order
            ends[list(ends)[i % 3]](key, lease)
        for thread in threads:
            thread.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [answers[key][0]["state"] for key in keys] == ["DONE", "FAILED", "DEAD"] * 8
    assert max(elapsed for _row, elapsed in answers.values()) < 20
