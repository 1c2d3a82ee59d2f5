"""Per-job progress heartbeats: the watchdog story for worker processes.

A watchdog that shares its engine's process (the threaded test harness,
DESIGN.md §8) can read live engine state to tell "slow but progressing"
from "hung".  A serve worker runs its engine in a *separate* process, so
the supervisor needs the same signal across a process boundary: this
module writes it through the filesystem.

A :class:`HeartbeatWriter` is a daemon thread inside the worker that
samples the engine's progress marker —
``(global_time, Σ committed, Σ local clocks)`` — every
``interval`` wall seconds and publishes it atomically to a per-job
heartbeat file.  The supervisor (:mod:`repro.serve.supervisor`) reads the
file and only declares a job *hung* when the progress component stops
changing for the hang window; a slow simulation that keeps advancing its
clocks is left alone no matter how long it runs.  Wall-clock job timeouts
remain available as a separate, harder cap.

The sampler never touches the engine's hot loop: it reads counters the
run loop already maintains on live objects, from a thread that wakes a
few times per second.  An engine with ``SimConfig.heartbeat_path`` unset
pays nothing at all.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro._util import atomic_write_text

__all__ = ["HeartbeatWriter", "engine_progress", "read_heartbeat"]


def engine_progress(engine) -> list:
    """The engine's progress marker as a JSON-ready list.

    Global time alone misses a run-ahead core advancing against a
    straggler, so committed instructions and the summed local clocks are
    folded in.  Reads are racy against the
    running loop but monotone counters only ever under-report — safe for a
    "did anything change" signal.
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
        # kill the beat thread — the next sample will see settled state.
        return []


class HeartbeatWriter:
    """Publish a progress marker to *path* every *interval* seconds.

    ``marker`` is any zero-arg callable returning a JSON-serialisable
    progress value; beats are written with the atomic-write primitive so a
    reader never sees a torn file, and a final beat is flushed on
    :meth:`stop` so the file always reflects the job's last known state.
    """

    def __init__(self, path: str, marker, interval: float = 1.0) -> None:
        self.path = str(path)
        self.marker = marker
        self.interval = max(float(interval), 0.05)
        self.beats = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def beat(self) -> None:
        """Write one heartbeat now (also called from the sampler thread)."""
        self.beats += 1
        payload = {
            "pid": os.getpid(),
            "wall": time.time(),
            "beats": self.beats,
            "progress": self.marker(),
        }
        try:
            atomic_write_text(self.path, json.dumps(payload) + "\n")
        except OSError:
            pass  # a vanished serve dir must not take the job down

    def start(self) -> "HeartbeatWriter":
        self.beat()  # first beat immediately: the file exists once we run
        self._thread = threading.Thread(
            target=self._loop, name="heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.beat()  # final state: the completed job's last marker


def read_heartbeat(path) -> dict | None:
    """The last beat published to *path*, or ``None`` (absent/torn).

    A torn read cannot happen under the atomic writer, but the supervisor
    also survives hand-edited or half-provisioned files: anything
    unparseable reads as "no heartbeat yet".
    """
    try:
        with open(path) as fh:
            beat = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    return beat if isinstance(beat, dict) else None
