"""Progress beats and the hang rule (DESIGN.md §13): the worker samples the
running engine from outside and sends the marker up its pipe; the supervisor
folds the beats and kills only a job whose marker stops moving."""

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
from repro.serve import worker
from repro.serve.queue import JobQueue
from repro.serve.supervisor import Supervisor
from repro.serve.worker import engine_progress, execute_assignment, worker_main

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
    sup = Supervisor(JobQueue(tmp_path / "q.sqlite"), tmp_path / "serve", workers=0)
    ours, theirs = multiprocessing.Pipe()
    handle = SimpleNamespace(
        conn=ours, key="current", lease_id="L", last_progress=None, last_change=1.0
    )
    sup.handles.append(handle)

    theirs.send(("beat", "superseded", [9, 9, 9]))
    theirs.send(("beat", "current", []))  # "no reading" is not life
    sup._harvest(now=5.0)
    assert (handle.last_progress, handle.last_change) == (None, 1.0)

    theirs.send(("beat", "current", [4, 10, 40]))
    sup._harvest(now=6.0)
    assert (handle.last_progress, handle.last_change) == ([4, 10, 40], 6.0)

    theirs.send(("beat", "current", [4, 10, 40]))  # alive, but not moving
    sup._harvest(now=7.0)
    assert handle.last_change == 6.0
    assert handle.key == "current"  # a beat is never a verdict


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
