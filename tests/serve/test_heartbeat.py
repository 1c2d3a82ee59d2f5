"""Progress beats and the hang rule (DESIGN.md §13): the worker samples the
running engine from outside and sends the marker up its pipe; the supervisor
folds the beats and kills only a job whose marker stops moving.  A
verdict names the row it answers: a record sealed under another key fails
the row."""

import json
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.jobs.spec import job_key, spec_to_dict
from repro.jobs import worker
from repro.jobs.queue import JobQueue
from repro.jobs.supervisor import Supervisor
from repro.jobs.worker import engine_progress, execute_assignment, worker_main

from tests.serve.conftest import tiny_spec


@pytest.fixture()
def fast_beats(monkeypatch):
    """Beat every millisecond (forked workers inherit the patched period)."""
    monkeypatch.setattr(worker, "BEAT_PERIOD_S", 0.001)


def beat_threads() -> list:
    return [t for t in threading.enumerate() if t.name == "beat"]


def test_engine_progress_handles_broken_engine():
    class Broken:
        @property
        def cores(self):
            raise RuntimeError("mid-construction")

    assert engine_progress(Broken()) == []
    assert engine_progress(object()) == []  # half-built: no cores, no manager


def test_engine_publishes_progress_during_run(cache_root, fast_beats):
    """A real tiny job sampled from outside: the markers move forward, and
    the sampler is gone by the time the assignment returns."""
    beats = []
    outcome = execute_assignment(spec_to_dict(tiny_spec(seed=31)), beats.append)
    assert not outcome.hit and outcome.record["completed"]
    assert beat_threads() == []
    moving = [b for b in beats if b]
    assert len(moving) >= 2
    assert all(len(b) == 3 for b in moving)
    for earlier, later in zip(moving, moving[1:]):
        assert all(a <= b for a, b in zip(earlier, later))  # monotone counters
    global_time, committed, local = moving[-1]
    assert committed > 0 and local > 0 and global_time >= 0
    # A store hit builds no engine: nothing to sample.
    beats.clear()
    assert execute_assignment(spec_to_dict(tiny_spec(seed=31)), beats.append).hit
    assert beats == []


def test_engine_without_heartbeat_writes_nothing(cache_root, fast_beats, monkeypatch):
    """No *beat* callback: no sampler thread is ever started."""
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t.name))
    execute_assignment(spec_to_dict(tiny_spec(seed=32)))
    assert started == []


def test_writer_survives_unwritable_path(cache_root, fast_beats):
    """The beat writer is the sampler thread and its path the worker pipe: a
    pipe it cannot write to (a vanished supervisor) must not take the job
    down with it."""

    def beat(progress):
        raise BrokenPipeError("supervisor went away")

    outcome = execute_assignment(spec_to_dict(tiny_spec(seed=33)), beat)
    assert outcome.record["completed"] and beat_threads() == []


def test_beats_are_atomic_under_concurrent_reads(cache_root, fast_beats):
    """Hammer the pipe: a worker beating every millisecond while it reports
    verdicts.  Every message arrives whole, a job's beats all precede its
    verdict, and nothing trails the verdict (the sampler is joined first)."""
    ctx = multiprocessing.get_context("fork")
    conn, child = ctx.Pipe()
    proc = ctx.Process(target=worker_main, args=(child, 0), daemon=True)
    proc.start()
    child.close()
    try:
        assert conn.recv() == ("ready",)
        total_beats = 0
        for seed in (34, 35, 36):
            spec = tiny_spec(seed=seed)
            key = job_key(spec)
            conn.send(("job", key, spec_to_dict(spec)))
            while True:
                assert conn.poll(60), "worker went silent"
                msg = conn.recv()
                assert isinstance(msg, tuple) and msg[1] == key
                if msg[0] == "done":
                    assert msg[2]["completed"]  # the verdict carries the record
                    break
                kind, _, progress = msg
                assert kind == "beat"
                assert progress == [] or (
                    len(progress) == 3 and all(isinstance(v, int) for v in progress)
                )
                total_beats += 1
            assert not conn.poll(0.05)  # no beat after its job's verdict
        assert total_beats >= 3
        conn.send(("exit",))
        proc.join(timeout=10)
        assert proc.exitcode == 0
    finally:
        if proc.is_alive():
            proc.kill()


def test_reader_tolerates_absent_and_garbage(tmp_path):
    """The beat reader is ``Supervisor._harvest``: a beat for an assignment
    the handle no longer holds (superseded key) is ignored, so is an empty
    marker; only a moving, non-empty marker of the current key is folded."""
    sup = Supervisor(JobQueue(tmp_path / "q.sqlite"), tmp_path / "serve", workers=1)
    sup.stop()  # the reader under test is fed by hand, not by a worker
    ours, theirs = multiprocessing.Pipe()
    handle = SimpleNamespace(
        conn=ours, key="current", lease_id="L", last_progress=None, last_change=1.0
    )
    sup.handles = [handle]

    theirs.send(("beat", "superseded", [9, 9, 9]))
    theirs.send(("beat", "current", []))  # "no reading" is not life
    assert sup._harvest(now=5.0) == []
    assert (handle.last_progress, handle.last_change) == (None, 1.0)

    theirs.send(("beat", "current", [4, 10, 40]))
    sup._harvest(now=6.0)
    assert (handle.last_progress, handle.last_change) == ([4, 10, 40], 6.0)

    theirs.send(("beat", "current", [4, 10, 40]))  # alive, but not moving
    assert sup._harvest(now=7.0) == []  # a beat is never a verdict
    assert handle.last_change == 6.0
    assert handle.key == "current"


def test_a_failed_send_puts_the_job_back_uncharged(tmp_path):
    """A worker that vanishes between the liveness check and the send costs
    its job nothing: the leased (running) row is QUEUED again at once, with
    no attempt charged."""
    queue = JobQueue(tmp_path / "q.sqlite")
    sup = Supervisor(queue, tmp_path / "serve", workers=1)
    sup.stop()  # the one handle below is fed by hand

    def vanished(_msg):
        raise BrokenPipeError

    sup.handles = [SimpleNamespace(
        name="w0", busy=False, proc=SimpleNamespace(is_alive=lambda: True),
        conn=SimpleNamespace(send=vanished),
    )]
    queue.submit("k1", "{}", now=0.0)
    sup._assign(now=1.0)
    view = queue.get("k1")
    assert (view["state"], view["attempts"], view["lease_id"]) == ("QUEUED", 0, None)
    assert queue.lease("w1", now=1.0)["job_key"] == "k1"
    queue.close()


def test_a_finished_job_drops_its_backoff(tmp_path):
    """Done or failed, a job's retry schedule ends with it: a retry or a
    resubmission of the key starts from a fresh :class:`Backoff`."""
    queue = JobQueue(tmp_path / "q.sqlite")
    sup = Supervisor(queue, tmp_path / "serve", workers=1)
    sup.stop()
    ours, theirs = multiprocessing.Pipe()
    for verdict in (("done", "k1", {}), ("error", "k2", "Traceback")):
        key = verdict[1]
        queue.submit(key, "{}", now=0.0)
        job = queue.lease("w0", now=0.0)
        sup._backoff(key).next()
        sup.handles = [SimpleNamespace(
            conn=ours, key=key, lease_id=job["lease_id"], last_progress=None, last_change=0.0
        )]
        theirs.send(verdict)
        assert sup._harvest(now=1.0) == [verdict]
        assert key not in sup._backoffs
    assert [queue.get(k)["state"] for k in ("k1", "k2")] == ["DONE", "FAILED"]
    queue.close()


# ---------------------------------------------------------------- hang rule
def make_pool(tmp_path, **kwargs):
    queue = JobQueue(tmp_path / "serve" / "queue.sqlite")
    sup = Supervisor(
        queue, tmp_path / "serve", workers=1, backoff_base=0.01, seed=7, **kwargs
    )
    return queue, sup


def submit(queue, spec) -> str:
    key = job_key(spec)  # also warms the compile cache the worker will read
    queue.submit(key, json.dumps(spec_to_dict(spec)), max_retries=2)
    return key


def drive(sup, until, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        sup.wait(0.02)
        sup.tick()
        if until():
            return
    raise AssertionError("supervisor did not get there in time")


@pytest.mark.slow
def test_stopped_worker_is_killed_as_hung_and_its_job_retried(
    cache_root, tmp_path, monkeypatch
):
    monkeypatch.setattr(worker, "BEAT_PERIOD_S", 0.05)
    queue, sup = make_pool(tmp_path, hang_timeout=1.0)
    try:
        key = submit(queue, tiny_spec(seed=37))
        drive(sup, lambda: sup.handles[0].busy)
        stalled = sup.handles[0].proc
        os.kill(stalled.pid, signal.SIGSTOP)  # alive, leased, and going nowhere
        drive(sup, lambda: queue.get(key)["attempts"] == 1)
        assert "no simulation progress" in queue.get(key)["error"]
        drive(sup, lambda: queue.get(key)["state"] == "DONE")
        assert sup.telemetry["hangs_killed"] == 1
        assert sup.telemetry["requeued"] == 1
        assert sup.telemetry["workers_replaced"] == 1
        assert stalled.exitcode == -signal.SIGKILL
        assert queue.get(key)["attempts"] == 1  # the hang was charged, once
        assert sup.handles[0].proc.pid != stalled.pid
    finally:
        sup.stop()


@pytest.mark.slow
def test_slow_but_beating_job_is_left_alone(cache_root, tmp_path, monkeypatch):
    from repro.jobs import JobSpec, ResultStore

    monkeypatch.setattr(worker, "BEAT_PERIOD_S", 0.05)
    hang_timeout = 0.4  # above the beat period, far below the job's run time
    queue, sup = make_pool(tmp_path, hang_timeout=hang_timeout)
    try:
        spec = JobSpec.build("barnes", "small", scheme="cc", seed=5, host_cores=4)
        key = submit(queue, spec)
        seen = []

        def done():
            progress = sup.handles[0].view()["progress"]
            if progress and progress not in seen:
                seen.append(progress)
            return queue.get(key)["state"] == "DONE"

        drive(sup, done)
        record = ResultStore.default().load(key)
        assert record["provenance"]["wall_time_s"] > hang_timeout
        assert sup.telemetry["hangs_killed"] == 0
        assert sup.telemetry["workers_replaced"] == 0
        assert queue.get(key)["attempts"] == 0
        assert len(seen) >= 2  # status' per-worker progress moved
        assert not (Path(tmp_path) / "serve" / "heartbeats").exists()
    finally:
        sup.stop()


@pytest.mark.slow
def test_row_under_a_key_this_build_does_not_derive_fails(cache_root, tmp_path):
    """A row queued by another build runs, but its record is sealed under the
    key this build derives: reporting it done would leave the row's key
    answering "not finished" forever, so the row fails and names both keys."""
    queue, sup = make_pool(tmp_path)
    try:
        spec = tiny_spec(seed=41)
        stale = "0" * 64
        queue.submit(stale, json.dumps(spec_to_dict(spec)), max_retries=2)
        drive(sup, lambda: queue.get(stale)["state"] == "FAILED")
        error = queue.get(stale)["error"]
        assert stale in error and job_key(spec) in error and "resubmit" in error
        assert queue.get(stale)["attempts"] == 0
        assert sup.telemetry["failed"] == 1
    finally:
        sup.stop()


@pytest.mark.slow
def test_a_clock_jump_between_ticks_requeues_nothing(cache_root, tmp_path, monkeypatch):
    """A supervisor loop that stalls between ticks (or whose clock jumps)
    finds its worker where it left it.  40 s on is past any lease a renewal
    would have had to keep alive and short of the 60 s hang window: the job
    runs once, is charged nothing and is counted once."""
    queue, sup = make_pool(tmp_path)
    try:
        key = submit(queue, tiny_spec(seed=43))
        drive(sup, lambda: sup.handles[0].busy)
        real_time = time.time
        monkeypatch.setattr(
            "repro.jobs.supervisor.time.time", lambda: real_time() + 40.0
        )
        verdicts = []
        deadline = time.time() + 60.0
        while queue.get(key)["state"] != "DONE":
            assert time.time() < deadline, "supervisor did not finish the job"
            sup.wait(0.02)
            verdicts += sup.tick()
        assert queue.get(key)["attempts"] == 0
        assert [(kind, k) for kind, k, _record in verdicts] == [("done", key)]
        assert sup.telemetry["completed"] == 1
        assert sup.telemetry["requeued"] == sup.telemetry["hangs_killed"] == 0
    finally:
        sup.stop()
