"""Supervised worker pool: leases, progress beats, kills, and replacements.

The one worker pool, with two owners (DESIGN.md §13): the serve daemon, over
a durable queue, and a parallel sweep, over a ``":memory:"`` one.  The
supervisor owns every queue transition after submission.  Workers
(:mod:`repro.jobs.worker`) never touch sqlite — they execute and report —
so there is exactly one writer process and the failure analysis stays
tractable: whatever happens to a worker, the supervisor's next ``tick()``
observes it and moves the job row accordingly; ``tick()`` also hands its
owner the verdicts it harvested.

Between ticks the loop blocks in :meth:`Supervisor.wait` on every worker
pipe plus one self-pipe (:meth:`Supervisor.wake`: submit, cancel, retry,
stop), so a verdict is harvested and a new job leased the moment they
exist.  The wait's time-out only paces the clock-driven rules below (the
hang check, backoff-due jobs) — nothing a client waits on.

Failure domains handled per tick, in order:

1. **Worker messages**: ``beat`` → the job's progress marker (and when it
   last changed); ``done`` → ``complete``; ``error`` (the job raised) →
   ``fail`` — deterministic job errors are never retried.
2. **Worker death** (SIGKILL, OOM, crash injection): requeue with a
   per-job :class:`~repro._util.Backoff` delay and one attempt charged;
   the stderr tail the worker left behind rides along as the error text.
   The process is replaced immediately — one poisoned job costs one
   worker incarnation, never the pool.
3. **Hangs**: a busy worker whose progress marker stops changing for
   ``hang_timeout`` seconds is SIGKILLed and handled as a death.  Progress
   is the engine's own marker (global time, committed, Σ local clocks), so
   "slow but advancing" is never killed.
4. **Cancellations**: a flagged running job gets its worker killed and
   the row failed as ``cancelled``; a flagged job caught between workers
   is failed at its next lease.
5. **Assignment**: idle workers lease due QUEUED jobs (FIFO, backoff
   respected): a leased job is RUNNING the moment it is sent.

These are the pool's whole liveness rule: a lease has no expiry.  Every
lease is bound to a tracked :class:`WorkerHandle` in the tick that makes it
(or handed back uncharged when the send fails), and a handle gives its job
up only through ``complete``, ``fail`` or ``requeue``.  A supervisor loop
that stalls, or whose clock jumps, therefore requeues nothing: the beats
waiting on the pipe are folded in the next tick, before the hang rule reads
them.  The rows of a daemon that died are requeued by the next daemon's
``recover()``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from multiprocessing import connection
from pathlib import Path

from repro._util import Backoff, sha256_hex
from repro.jobs.queue import JobQueue, QueueError
from repro.jobs.worker import worker_entry

__all__ = ["TICK_PERIOD_S", "Supervisor", "WorkerHandle"]

#: Safety-net period of a supervision loop: how long :meth:`Supervisor.wait`
#: sleeps when no worker reports and nobody calls :meth:`Supervisor.wake`.
#: Nothing a client waits on is paced by it (``benchmarks/serve_smoke.py``
#: gates on exactly that).
TICK_PERIOD_S = 0.05

#: How much of a dead worker's stderr tail rides into the job's error text.
_STDERR_TAIL = 2000


class WorkerHandle:
    """One worker process plus everything the supervisor knows about it."""

    def __init__(self, index: int, ctx, workers_dir: Path) -> None:
        self.index = index
        self.name = f"w{index}"
        self.stderr_path = workers_dir / f"{self.name}.stderr"
        self.conn, child_conn = ctx.Pipe()
        # Truncate the stderr capture per incarnation: its content should
        # describe *this* process's death, not an ancestor's.
        self.stderr_path.write_text("")
        self.proc = ctx.Process(
            target=worker_entry,
            args=(child_conn, index, str(self.stderr_path)),
            name=f"repro-{self.name}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        # Current assignment (None when idle).
        self.key: str | None = None
        self.lease_id: str | None = None
        self.assigned_wall: float = 0.0
        self.last_progress: list | None = None
        self.last_change: float = 0.0

    @property
    def busy(self) -> bool:
        return self.key is not None

    def stderr_tail(self) -> str:
        try:
            text = self.stderr_path.read_text(errors="replace")
        except OSError:
            return ""
        return text[-_STDERR_TAIL:]

    def kill(self) -> None:
        if self.proc.is_alive():
            try:
                os.kill(self.proc.pid, signal.SIGKILL)
            except (OSError, TypeError):
                pass
        self.proc.join(timeout=10.0)

    def view(self) -> dict:
        """The status-API rendering of this worker."""
        return {
            "name": self.name,
            "pid": self.proc.pid,
            "alive": self.proc.is_alive(),
            "busy": self.busy,
            "job_key": self.key,
            "running_s": round(time.time() - self.assigned_wall, 3)
            if self.busy
            else None,
            "progress": self.last_progress,
        }


class Supervisor:
    """Drive *workers* processes against a :class:`JobQueue`; each worker's
    stderr is captured under ``<workdir>/workers/``."""

    def __init__(
        self,
        queue: JobQueue,
        workdir: "Path | str",
        *,
        workers: int = 2,
        hang_timeout: float = 60.0,
        backoff_base: float = 0.25,
        backoff_cap: float = 8.0,
        seed: "int | None" = None,
    ) -> None:
        self.check_limits(workers, hang_timeout)
        self.queue = queue
        self.workers_dir = Path(workdir) / "workers"
        self.workers_dir.mkdir(parents=True, exist_ok=True)
        self.hang_timeout = float(hang_timeout)
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._seed = seed
        self._backoffs: dict[str, Backoff] = {}
        # Fork keeps worker startup at milliseconds (the loaded interpreter
        # travels); platforms without it fall back to spawn.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.handles = [
            WorkerHandle(i, self._ctx, self.workers_dir) for i in range(workers)
        ]
        # Self-pipe: wake() from any thread (or a signal handler) ends wait().
        # The write end never blocks — a full pipe already holds a wake-up.
        # Never closed explicitly (a wake() racing the close could write to
        # a recycled descriptor); it goes with the supervisor object.
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        os.set_blocking(self._wake_w.fileno(), False)
        self.draining = False
        #: Counters surfaced by /api/status.
        self.telemetry = {
            "completed": 0,
            "failed": 0,
            "requeued": 0,
            "dead": 0,
            "workers_replaced": 0,
            "hangs_killed": 0,
            "cancelled": 0,
        }

    @staticmethod
    def check_limits(workers, hang_timeout) -> None:
        """Refuse (``ValueError``) a pool that could never finish a job."""
        if workers < 1:
            raise ValueError(f"a worker pool needs at least one worker, not {workers}")
        if not hang_timeout > 0:
            raise ValueError(
                f"a worker pool needs hang_timeout > 0, not {hang_timeout}"
            )

    # ------------------------------------------------------------ helpers
    def _backoff(self, key: str) -> Backoff:
        if key not in self._backoffs:
            seed = None
            if self._seed is not None:
                # Deterministic per-job jitter stream under a seeded pool.
                seed = int(sha256_hex(f"{self._seed}:{key}")[:8], 16)
            self._backoffs[key] = Backoff(
                base=self._backoff_base, cap=self._backoff_cap, seed=seed
            )
        return self._backoffs[key]

    def _clear_assignment(self, handle: WorkerHandle) -> None:
        handle.key = None
        handle.lease_id = None
        handle.last_progress = None

    def _safe(self, op, *args, **kwargs) -> "str | None":
        """Run a queue transition, tolerating fencing losses.

        A verdict can lose its race (the job was cancelled between ticks,
        or a second daemon's ``recover()`` requeued the row): the queue's
        fencing raises :class:`QueueError`, and the right response is to
        drop the stale verdict — the current leaseholder owns the truth now.
        """
        try:
            return op(*args, **kwargs)
        except QueueError:
            return None

    def _replace(self, handle: WorkerHandle) -> WorkerHandle:
        handle.kill()
        try:
            handle.conn.close()
        except OSError:
            pass
        fresh = WorkerHandle(handle.index, self._ctx, self.workers_dir)
        self.handles[handle.index] = fresh
        self.telemetry["workers_replaced"] += 1
        return fresh

    def _worker_lost(self, handle: WorkerHandle, reason: str) -> None:
        """A busy worker died / was killed: requeue its job and respawn."""
        key, lease_id = handle.key, handle.lease_id
        assert key is not None and lease_id is not None
        tail = handle.stderr_tail()
        error = reason + (f"\n--- worker stderr ---\n{tail}" if tail.strip() else "")
        delay = self._backoff(key).next()
        state = self._safe(
            self.queue.requeue, key, lease_id, error, delay=delay
        )
        if state == "DEAD":
            self.telemetry["dead"] += 1
        elif state == "QUEUED":
            self.telemetry["requeued"] += 1
        self._clear_assignment(handle)
        self._replace(handle)

    # --------------------------------------------------------------- tick
    def wake(self) -> None:
        """Cut the current (or next) :meth:`wait` short: there is work."""
        try:
            self._wake_w.send_bytes(b"\0")
        except OSError:
            pass  # pipe full: a wake-up is already pending

    def wait(self, timeout: float) -> None:
        """Block until a worker reports or dies, :meth:`wake` is called, or
        *timeout* seconds pass — whichever is first."""
        ready = connection.wait(
            [self._wake_r, *(h.conn for h in self.handles)], timeout
        )
        if self._wake_r in ready:
            while self._wake_r.poll():
                self._wake_r.recv_bytes()

    def tick(self) -> list[tuple]:
        """One supervision pass (its owner runs one per :meth:`wait`);
        returns the verdicts it harvested — ``("done", key, record)`` and
        ``("error", key, traceback)`` — in arrival order."""
        now = time.time()
        verdicts = self._harvest(now)
        self._check_liveness(now)
        self._check_cancels()
        if not self.draining:
            self._assign(now)
        return verdicts

    def _harvest(self, now: float) -> list[tuple]:
        """Drain worker messages: fold progress beats, return verdicts."""
        verdicts = []
        for handle in list(self.handles):
            while True:
                try:
                    if not handle.conn.poll():
                        break
                    msg = handle.conn.recv()
                except (EOFError, OSError):
                    break  # death handled by _check_liveness
                if msg[0] == "ready":
                    continue
                kind, key = msg[0], msg[1]
                if key != handle.key:
                    continue  # message for a superseded assignment
                if kind == "beat":
                    # Only a *moving* marker counts as life (the hang rule).
                    if msg[2] and msg[2] != handle.last_progress:
                        handle.last_progress = msg[2]
                        handle.last_change = now
                    continue
                if kind == "done":
                    self._safe(self.queue.complete, key, handle.lease_id, now=now)
                    self.telemetry["completed"] += 1
                elif kind == "error":
                    self._safe(
                        self.queue.fail, key, handle.lease_id, msg[2], now=now
                    )
                    self.telemetry["failed"] += 1
                self._backoffs.pop(key, None)  # a retry starts a fresh schedule
                verdicts.append(msg)
                self._clear_assignment(handle)
        return verdicts

    def _check_liveness(self, now: float) -> None:
        """Deaths and hangs: a lost busy worker's job is requeued."""
        for handle in list(self.handles):
            if not handle.proc.is_alive():
                if handle.busy:
                    self._worker_lost(
                        handle,
                        f"worker {handle.name} died "
                        f"(exitcode {handle.proc.exitcode})",
                    )
                else:
                    self._replace(handle)
                continue
            # Progress-based hang rule: only a *stalled* marker kills
            # (_harvest keeps last_change current from the worker's beats).
            if handle.busy and now - handle.last_change > self.hang_timeout:
                self.telemetry["hangs_killed"] += 1
                handle.kill()
                self._worker_lost(
                    handle,
                    f"no simulation progress for {self.hang_timeout:.1f}s "
                    f"(last marker {handle.last_progress})",
                )

    def _check_cancels(self) -> None:
        for job in self.queue.cancel_requests():
            handle = next(
                (h for h in self.handles if h.key == job["job_key"]), None
            )
            if handle is None:
                continue  # between workers; caught at its next lease
            handle.kill()
            self._safe(
                self.queue.fail, handle.key, handle.lease_id, "cancelled"
            )
            self.telemetry["cancelled"] += 1
            self._clear_assignment(handle)
            self._replace(handle)

    def _assign(self, now: float) -> None:
        for handle in self.handles:
            if handle.busy or not handle.proc.is_alive():
                continue
            job = self.queue.lease(handle.name, now=now)
            if job is None:
                return  # queue drained (or everything backing off)
            key, lease_id = job["job_key"], job["lease_id"]
            if job.get("cancel_requested"):
                # Cancelled while queued behind a backoff: fail at lease
                # time instead of burning a worker on it.
                self._safe(self.queue.fail, key, lease_id, "cancelled")
                self.telemetry["cancelled"] += 1
                continue
            try:
                handle.conn.send(("job", key, job["spec"]))
            except (BrokenPipeError, OSError):
                # Worker died between liveness check and send: put the
                # lease straight back (no attempt charged — it never ran).
                self._safe(
                    self.queue.requeue,
                    key,
                    lease_id,
                    "worker vanished before assignment",
                    charge=False,
                    now=now,
                )
                continue
            handle.key = key
            handle.lease_id = lease_id
            handle.assigned_wall = now
            handle.last_progress = None
            handle.last_change = now

    # ------------------------------------------------------------ shutdown
    def busy_count(self) -> int:
        return sum(1 for h in self.handles if h.busy)

    def drain(self, timeout: float = 60.0, poll: float = TICK_PERIOD_S) -> bool:
        """Graceful shutdown: stop assigning, finish leased work, stop.

        Returns True when every in-flight job finished inside *timeout*;
        on False the stragglers stay RUNNING in the queue and the
        next daemon incarnation's ``recover()`` re-runs them — graceful
        and crash shutdown converge on the same durable state.
        """
        self.draining = True
        deadline = time.time() + timeout
        while self.busy_count() and time.time() < deadline:
            self.wait(poll)
            self.tick()
        finished = self.busy_count() == 0
        self.stop()
        return finished

    def stop(self) -> None:
        """Hard-stop every worker (drained or not): ask the idle to exit,
        kill the busy (their rows stay RUNNING)."""
        for handle in self.handles:
            if handle.busy:
                handle.kill()
                continue
            try:
                handle.conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        for handle in self.handles:
            handle.proc.join(timeout=2.0)
            if handle.proc.is_alive():
                handle.kill()
            try:
                handle.conn.close()
            except OSError:
                pass

    def status(self) -> dict:
        return {
            "workers": [h.view() for h in self.handles],
            "draining": self.draining,
            "telemetry": dict(self.telemetry),
        }

