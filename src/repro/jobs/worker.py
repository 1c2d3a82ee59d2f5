"""Pool worker: one process, one job at a time, fully expendable.

A worker is a child process running :func:`worker_main` in a loop:
receive an assignment over its pipe, execute it through the shared job
pipeline (:func:`repro.jobs.execute` — store hit, else a direct run), and
report a verdict.  Everything that outlives the worker lives *outside* it:
the job row in the queue (owned by the supervisor) and the result in the
sealed :class:`~repro.jobs.store.ResultStore`.  A worker can therefore be
SIGKILLed at any instant and the system loses nothing but the in-flight
attempt — the supervisor sees the death, requeues the job with backoff,
and replaces the process.

Protocol (child → parent over the pipe)::

    ("ready",)                        after startup
    ("beat",  key, progress)          every BEAT_PERIOD_S while a job runs
    ("done",  key, record)            execute() returned (and stored) record
    ("error", key, traceback_text)    the job itself raised, or was queued
                                      under a key this build does not derive
                                      for its spec (no retry)

A worker that dies sends nothing — the absence *is* the signal; the
supervisor reads ``Process.is_alive()`` / the pipe EOF, not a message.
The record rides in the verdict for a sweep whose store is disabled.

**Progress beats** are the watchdog signal across the process boundary.
The engine knows nothing of them: ``execute(watch=...)`` hands the worker
the engine it is about to run, and a sampler thread reads the marker
``(global_time, Σ committed, Σ local clocks)`` off it — counters the run
loop maintains anyway — and sends it up the pipe.  The supervisor declares
a job *hung* only when the marker stops changing for the hang window, so a
slow simulation that keeps advancing is left alone.  The sampler is joined
before the verdict is sent: one thread writes to the pipe at a time, and a
job's beats all precede its verdict.

**Deterministic crash injection** (the chaos ladder's worker-kill rung, for
the daemon and a parallel sweep alike):
``REPRO_WORKER_CRASH_KEY=<job key or prefix>`` makes the worker ``os._exit``
the instant it receives a matching assignment — indistinguishable from a
SIGKILL mid-job.  With ``REPRO_WORKER_CRASH_ONCE=<marker path>`` the crash
fires only until the marker file exists (create-then-die), so the retried
attempt survives; without it the job crashes every attempt and must
exhaust its budget into DEAD.  Inert unless the variables are set.
"""

from __future__ import annotations

import os
import signal
import threading
import traceback

from repro.jobs.execute import execute
from repro.jobs.spec import spec_from_dict
from repro.jobs.store import ResultStore

__all__ = [
    "BEAT_PERIOD_S",
    "engine_progress",
    "execute_assignment",
    "worker_entry",
    "worker_main",
]

#: Seconds an idle worker waits on its pipe between checks that the
#: supervisor process is still its parent.
_PARENT_POLL_S = 1.0

#: Wall seconds between the progress beats of a running job.
BEAT_PERIOD_S = 1.0


def worker_entry(conn, worker_id: int, stderr_path: str) -> None:
    """Process target: redirect fd 2 to *stderr_path*, then run the loop.

    The dup2 happens at the fd level so even a hard interpreter death
    (abort, fatal error banner) leaves its last words in the per-worker
    stderr file — that text is what the supervisor attaches to a requeued
    or dead-lettered job.
    """
    fd = os.open(stderr_path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    os.dup2(fd, 2)
    os.close(fd)
    worker_main(conn, worker_id)


def _maybe_crash(key: str) -> None:
    """Die like a SIGKILLed worker if this key is marked for crashing."""
    target = os.environ.get("REPRO_WORKER_CRASH_KEY")
    if not target or not key.startswith(target):
        return
    marker = os.environ.get("REPRO_WORKER_CRASH_ONCE")
    if marker:
        if os.path.exists(marker):
            return  # already crashed once; behave this time
        open(marker, "w").close()
    os._exit(13)


def engine_progress(engine) -> list:
    """The engine's progress marker as a JSON-ready list.

    Global time alone misses a run-ahead core advancing against a
    straggler, so committed instructions and the summed local clocks are
    folded in.  Reads are racy against the running loop but monotone
    counters only ever under-report — safe for a "did anything change"
    signal.
    """
    try:
        cores = engine.cores or []
        return [
            int(engine.manager.global_time),
            int(sum(ct.total_committed for ct in cores)),
            int(sum(ct.local_time for ct in cores)),
        ]
    except Exception:
        # Mid-construction/teardown state: report "no reading" rather than
        # kill the sampler — the next sample will see settled state.
        return []


def execute_assignment(spec_dict: dict, beat=None):
    """Run one assignment through the job pipeline.

    *beat*, if given, is called with the running engine's progress marker
    every :data:`BEAT_PERIOD_S` from a sampler thread that has exited by the
    time this returns or raises.  Split out of the pipe loop so tests (and
    the chaos script) can run the exact worker-side execution path
    in-process.
    """
    spec = spec_from_dict(spec_dict)
    stop = threading.Event()
    sampler = None

    def watch(engine) -> None:
        nonlocal sampler

        def sample() -> None:
            while not stop.wait(BEAT_PERIOD_S):
                try:
                    beat(engine_progress(engine))
                except OSError:
                    return  # a vanished supervisor must not take the job down

        sampler = threading.Thread(target=sample, name="beat", daemon=True)
        sampler.start()

    try:
        return execute(
            spec,
            store=ResultStore.default(),
            watch=watch if beat is not None else None,
        )
    finally:
        stop.set()
        if sampler is not None:
            sampler.join()


def worker_main(conn, worker_id: int) -> None:
    """The worker process body (target of ``multiprocessing.Process``).

    Runs until the pipe closes, an ``("exit",)`` message arrives, or the
    supervisor process is gone.  Every exception a job raises is caught,
    formatted, and reported — one poisoned job must never take the worker
    (let alone the pool) down; only genuine process death (crash injection,
    OOM, kill) ends the loop early.
    """
    # The daemon's Ctrl-C must not fan out to workers mid-drain: the
    # supervisor owns worker shutdown, so the worker ignores SIGINT and
    # keeps SIGTERM default (the supervisor kills on cancel/hang).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()
    conn.send(("ready",))
    while True:
        try:
            # A SIGKILLed supervisor never produces EOF here: its forked
            # sibling workers hold copies of this pipe's parent end.  So
            # poll, and leave once re-parented.
            while not conn.poll(_PARENT_POLL_S):
                if os.getppid() != parent:
                    return
            msg = conn.recv()
        except (EOFError, OSError):
            return  # supervisor went away
        if msg[0] == "exit":
            return
        _, key, spec_dict = msg
        _maybe_crash(key)
        try:
            outcome = execute_assignment(
                spec_dict, lambda progress: conn.send(("beat", key, progress))
            )
        except BaseException:
            try:
                conn.send(("error", key, traceback.format_exc()))
            except (BrokenPipeError, OSError):
                return
            continue
        if outcome.key == key:
            verdict = ("done", key, outcome.record)
        else:
            # A row another build queued: the record is sealed under the key
            # this build derives, so the row's own key would never find it.
            verdict = ("error", key, (
                f"job {key} is queued under a key this build does not derive "
                f"for its spec (this build's key: {outcome.key}); resubmit it"
            ))
        try:
            conn.send(verdict)
        except (BrokenPipeError, OSError):
            return
