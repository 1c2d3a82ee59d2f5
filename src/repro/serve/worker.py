"""Serve worker: one process, one job at a time, fully expendable.

A worker is a child process running :func:`worker_main` in a loop:
receive an assignment over its pipe, execute it through the shared job
pipeline (:func:`repro.jobs.execute` — store hit → trace replay → direct
run), and report a verdict.  Everything durable lives *outside* the
worker: the job row in the sqlite queue (owned by the supervisor), the
result in the sealed :class:`~repro.jobs.store.ResultStore`, and the
progress heartbeat file the engine publishes while it runs.  A worker can
therefore be SIGKILLed at any instant and the system loses nothing but
the in-flight attempt — the supervisor sees the death, requeues the job
with backoff, and replaces the process.

Verdict protocol (child → parent over the pipe)::

    ("ready",)                        after startup
    ("done",  key)                    execute() returned; record is stored
    ("error", key, traceback_text)    the job itself raised (no retry)

A worker that dies sends nothing — the absence *is* the signal; the
supervisor reads ``Process.is_alive()`` / the pipe EOF, not a message.

**Deterministic crash injection** (the chaos ladder's worker-kill rung):
``REPRO_SERVE_CRASH_KEY=<job key or prefix>`` makes the worker ``os._exit``
the instant it receives a matching assignment — indistinguishable from a
SIGKILL mid-job.  With ``REPRO_SERVE_CRASH_ONCE=<marker path>`` the crash
fires only until the marker file exists (create-then-die), so the retried
attempt survives; without it the job crashes every attempt and must
exhaust its budget into DEAD.  Inert unless the variables are set.
"""

from __future__ import annotations

import gc
import os
import signal
import traceback
from dataclasses import replace

__all__ = ["execute_assignment", "worker_entry", "worker_main"]

#: Seconds an idle worker waits on its pipe between checks that the
#: supervisor process is still its parent.
_PARENT_POLL_S = 1.0


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
    target = os.environ.get("REPRO_SERVE_CRASH_KEY")
    if not target or not key.startswith(target):
        return
    marker = os.environ.get("REPRO_SERVE_CRASH_ONCE")
    if marker:
        if os.path.exists(marker):
            return  # already crashed once; behave this time
        open(marker, "w").close()
    os._exit(13)


def execute_assignment(spec_dict: dict, heartbeat_path: "str | None"):
    """Run one assignment through the job pipeline, heartbeating progress.

    Split out of the pipe loop so tests (and the chaos script) can run the
    exact worker-side execution path in-process.
    """
    from repro.core.config import SimConfig
    from repro.jobs import ResultStore, execute
    from repro.jobs.spec import spec_from_dict

    spec = spec_from_dict(spec_dict)
    if heartbeat_path is not None:
        sim = spec.sim_config() if spec.sim is not None else SimConfig()
        spec = replace(
            spec, sim=replace(sim, heartbeat_path=heartbeat_path)
        )
    return execute(spec, store=ResultStore.default())


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
    # What the fork handed over (modules, numpy) lives as long as the
    # process: exempt it from the collection execute() runs before each
    # job (~2 ms per job instead of ~13).
    gc.freeze()
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
        _, key, spec_dict, heartbeat_path = msg
        _maybe_crash(key)
        try:
            execute_assignment(spec_dict, heartbeat_path)
        except BaseException:
            try:
                conn.send(("error", key, traceback.format_exc()))
            except (BrokenPipeError, OSError):
                return
            continue
        try:
            conn.send(("done", key))
        except (BrokenPipeError, OSError):
            return
