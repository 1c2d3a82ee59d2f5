"""The serve hot path is event-driven (DESIGN.md §13): nothing a client
waits on is paced by the supervision loop's period.  These tests run the
daemon in-process so the loop can be started with a safety-net period far
longer than a job — which only an event-woken loop survives."""

import threading
import time

import pytest

from repro.jobs.spec import spec_to_dict
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeDaemon

from tests.serve.conftest import client_of, tiny_spec

#: Safety-net period the live daemon's loop runs with.  A loop that only
#: woke on its period would lease at one tick and harvest at a later one:
#: every round trip would take at least this long.
SAFETY_NET_S = 10.0


@pytest.fixture()
def live_daemon(cache_root):
    """A whole daemon (one worker) whose loop ticks every SAFETY_NET_S."""
    daemon = ServeDaemon(workers=1, seed=7)
    loop = threading.Thread(
        target=daemon.serve_forever, kwargs={"poll": SAFETY_NET_S}, daemon=True
    )
    loop.start()
    yield daemon
    daemon.request_stop("test over")
    loop.join(timeout=60)
    assert not loop.is_alive()  # the stop itself must not wait out the period


def long_poll(client: ServeClient, key: str, wait: float) -> "tuple[dict, float]":
    start = time.perf_counter()
    job = client._request("GET", f"/api/jobs/{key}?wait={wait}")["job"]
    return job, time.perf_counter() - start


@pytest.mark.slow
def test_round_trip_is_not_paced_by_the_tick(live_daemon):
    client = client_of(live_daemon)
    start = time.perf_counter()
    job = client.submit_and_wait(spec_to_dict(tiny_spec(seed=61)), timeout=60)
    record = client.fetch(job["job_key"])
    elapsed = time.perf_counter() - start
    assert job["state"] == "DONE" and record["completed"]
    assert elapsed < SAFETY_NET_S / 2
    # Back to back: the freed worker takes the next job at once, too.
    start = time.perf_counter()
    again = client.submit_and_wait(spec_to_dict(tiny_spec(seed=62)), timeout=60)
    assert again["state"] == "DONE"
    assert time.perf_counter() - start < SAFETY_NET_S / 2


@pytest.mark.slow
def test_wait_returns_on_completion(live_daemon):
    client = client_of(live_daemon)
    key = client.submit(spec_to_dict(tiny_spec(seed=63)))["job_key"]
    job, elapsed = long_poll(client, key, wait=SAFETY_NET_S)
    assert job["state"] == "DONE"
    assert elapsed < SAFETY_NET_S / 2
    # A settled job answers at once however long the caller offers to wait.
    job, elapsed = long_poll(client, key, wait=SAFETY_NET_S)
    assert job["state"] == "DONE" and elapsed < 1.0


@pytest.mark.slow
def test_cancel_of_a_running_job_is_not_paced_by_the_tick(live_daemon):
    client = client_of(live_daemon)
    spec = tiny_spec(seed=64, workload="lu")
    key = client.submit(spec_to_dict(spec))["job_key"]
    deadline = time.time() + 30
    while client.poll(key)["state"] == "QUEUED" and time.time() < deadline:
        time.sleep(0.005)
    client.cancel(key)
    job, elapsed = long_poll(client, key, wait=SAFETY_NET_S)
    # The job may have finished before the cancel landed; either way the
    # answer is terminal and arrives without waiting out a tick.
    assert (job["state"], job["error"]) in (("FAILED", "cancelled"), ("DONE", None))
    assert elapsed < SAFETY_NET_S / 2


def test_wait_times_out_with_the_current_row(idle_daemon):
    client = client_of(idle_daemon)
    key = client.submit(spec_to_dict(tiny_spec(seed=65)))["job_key"]
    job, elapsed = long_poll(client, key, wait=0.3)
    assert job["state"] == "QUEUED"
    assert 0.3 <= elapsed < 5.0
    # No wait, an unknown key and a malformed wait never park the handler.
    assert long_poll(client, key, wait=0)[1] < 0.25
    with pytest.raises(ServeError, match="404"):
        long_poll(client, "0" * 64, wait=5)
    with pytest.raises(ServeError, match="400"):
        long_poll(client, key, wait="soon")


def test_drain_releases_every_waiter(idle_daemon):
    client = client_of(idle_daemon)
    key = client.submit(spec_to_dict(tiny_spec(seed=66)))["job_key"]
    answers = []
    waiters = [
        threading.Thread(target=lambda: answers.append(long_poll(client, key, wait=9.0)))
        for _ in range(3)
    ]
    for waiter in waiters:
        waiter.start()
    time.sleep(0.3)  # let them park
    assert not answers
    idle_daemon.shutdown()
    for waiter in waiters:
        waiter.join(timeout=5)
    assert [job["state"] for job, _elapsed in answers] == ["QUEUED"] * 3
    assert all(elapsed < 5.0 for _job, elapsed in answers)


def test_submit_and_wait_reports_the_state_when_time_is_up(idle_daemon):
    """Regression: a deadline that passed before the first poll used to
    raise UnboundLocalError from the final ``raise``."""
    client = client_of(idle_daemon)
    with pytest.raises(ServeError, match="still QUEUED after 0s"):
        client.submit_and_wait(spec_to_dict(tiny_spec(seed=67)), timeout=0)


def test_poll_interval_paces_a_daemon_that_does_not_hold_requests(idle_daemon, monkeypatch):
    """Against a daemon that answers ``?wait=`` at once (an older one, or
    one that is draining) the client falls back to its own pace."""
    idle_daemon.queue.release_waiters()
    client = client_of(idle_daemon)
    asked = []
    request = client._request
    monkeypatch.setattr(
        client, "_request", lambda *a, **k: asked.append(a[1]) or request(*a, **k)
    )
    with pytest.raises(ServeError, match="still QUEUED"):
        client.submit_and_wait(
            spec_to_dict(tiny_spec(seed=68)), timeout=0.5, poll_interval=0.1
        )
    polls = [path for path in asked if "?wait=" in path]
    assert 2 <= len(polls) <= 6
