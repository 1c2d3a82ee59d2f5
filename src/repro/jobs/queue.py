"""Job queue: the scheduling state of a supervised worker pool.

One sqlite database per pool (DESIGN.md §13): the serve daemon's is durable,
``<serve_dir>/queue.sqlite``; a parallel sweep's is ``":memory:"`` and dies
with the sweep.  Every job the pool has been asked to run is one row keyed by
its content-addressed ``job_key`` (:mod:`repro.jobs.spec`), moving through
the state machine::

    QUEUED ──lease──▶ RUNNING ──complete──▶ DONE
      ▲                  │
      │   requeue        ├──fail (job error: no retry)──▶ FAILED
      │   (attempts ≤    │
      └── budget) ───────┴──requeue (attempts > budget)──▶ DEAD

A leased job is a running job: the supervisor sends it to its worker in
the same tick that leases it, so there is no separate "leased" state.

``DONE``/``FAILED``/``DEAD`` are terminal; ``retry`` is the only
transition out of a terminal failure state and it re-arms the budget.

**Idempotent submission.**  ``submit`` upserts by ``job_key``: a
resubmitted job *attaches* to the existing row — in-flight, queued, or
already finished — instead of enqueueing a duplicate.  The result itself
lives in the sealed :class:`~repro.jobs.store.ResultStore`; the row is
pure scheduling state, which is why attaching is always safe.

**Leases and fencing.**  A lease hands a job to one worker and mints a
fresh ``lease_id``: an assignment token with no expiry.  Every downstream
transition (complete/fail/requeue) must present that token, and each one
clears it, so a verdict for an assignment that was requeued, cancelled or
recovered — and perhaps re-leased since — is refused: only the current
leaseholder's verdict counts.  The queue never takes a lease back on its
own; the supervisor that made it gives it up (complete, fail, or requeue
when its worker dies or hangs), and a restarted daemon's ``recover()``
voids the leases of the incarnation before it.

**Crash-safe restart.**  All writes are single sqlite transactions in WAL
mode; a daemon killed at any instant restarts with a consistent queue.
``recover()`` then sweeps every RUNNING row back to QUEUED —
orphaned work from the previous incarnation — without charging the retry
budget (the daemon dying is not the job's fault; only worker-side
failures consume attempts).

**Waiting.**  ``wait_terminal`` parks a caller (an HTTP handler thread
serving ``?wait=``) on a condition that every transition *into* a terminal
state notifies, whichever thread makes it; ``release_waiters`` frees them
all at drain.  The condition shares the connection lock, so "read the row,
then sleep" cannot miss a transition.

**Determinism.**  Every mutating method takes ``now`` explicitly (tests
and the property machine drive a logical clock); the queue itself never
reads the wall clock except as a default argument.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid
from pathlib import Path

__all__ = ["JobQueue", "QueueError", "STATES", "TERMINAL"]

#: Every legal state, in lifecycle order.
STATES = ("QUEUED", "RUNNING", "DONE", "FAILED", "DEAD")

#: States no lease can act on any more.
TERMINAL = frozenset({"DONE", "FAILED", "DEAD"})

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_key      TEXT PRIMARY KEY,
    spec         TEXT NOT NULL,          -- canonical JSON of the JobSpec
    state        TEXT NOT NULL,
    attempts     INTEGER NOT NULL DEFAULT 0,
    max_retries  INTEGER NOT NULL,
    submitted_at REAL NOT NULL,
    updated_at   REAL NOT NULL,
    not_before   REAL NOT NULL DEFAULT 0,  -- earliest re-lease time (backoff)
    lease_id     TEXT,
    worker       TEXT,
    error        TEXT,
    cancel_requested INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, not_before);
"""


class QueueError(RuntimeError):
    """An illegal queue transition (bad state, stale lease, unknown key)."""


class JobQueue:
    """The queue (one sqlite database; safe for many daemon threads).

    One connection guarded by a lock: the pool's owner is the only *process*
    writing (workers never touch the queue — the supervisor transitions on
    their behalf), but the daemon's HTTP handler threads submit concurrently
    with the supervisor loop, so every operation is one locked transaction.
    """

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: Notified (under ``_lock``) by every transition into TERMINAL.
        self._settled = threading.Condition(self._lock)
        self._released = False
        self._db = sqlite3.connect(
            str(self.path), check_same_thread=False, isolation_level=None
        )
        self._db.row_factory = sqlite3.Row
        with self._lock:
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.executescript(_SCHEMA)

    def close(self) -> None:
        with self._lock:
            self._db.close()

    # ------------------------------------------------------------ helpers
    def _row(self, key: str) -> "sqlite3.Row | None":
        return self._db.execute(
            "SELECT * FROM jobs WHERE job_key = ?", (key,)
        ).fetchone()

    def _require(self, key: str) -> sqlite3.Row:
        row = self._row(key)
        if row is None:
            raise QueueError(f"unknown job {key}")
        return row

    def _fenced(self, key: str, lease_id: str) -> sqlite3.Row:
        """The row for *key* iff *lease_id* is its current lease."""
        row = self._require(key)
        if row["lease_id"] != lease_id:
            raise QueueError(
                f"stale lease for {key[:16]}: held {row['lease_id']}, "
                f"presented {lease_id}"
            )
        return row

    @staticmethod
    def job_view(row: sqlite3.Row) -> dict:
        """A row as the plain dict the API serves (spec parsed back)."""
        d = dict(row)
        try:
            d["spec"] = json.loads(d["spec"])
        except (TypeError, json.JSONDecodeError):
            pass
        d["cancel_requested"] = bool(d["cancel_requested"])
        return d

    # ---------------------------------------------------------- lifecycle
    def submit(
        self,
        key: str,
        spec_json: str,
        *,
        max_retries: int = 2,
        state: str = "QUEUED",
        now: "float | None" = None,
    ) -> tuple[dict, bool]:
        """Idempotent enqueue: ``(job_view, created)``.

        An existing row in *any* state attaches (``created=False``) — the
        caller polls/fetches the one canonical evaluation.  *state* lets
        the daemon insert straight to DONE when the result store already
        holds the record (a submit that is a pure cache hit never queues).
        """
        now = time.time() if now is None else now
        if state not in ("QUEUED", "DONE"):
            raise QueueError(f"submit cannot insert state {state}")
        with self._lock:
            row = self._row(key)
            if row is not None:
                return self.job_view(row), False
            self._db.execute(
                "INSERT INTO jobs (job_key, spec, state, attempts, max_retries,"
                " submitted_at, updated_at, not_before)"
                " VALUES (?, ?, ?, 0, ?, ?, ?, 0)",
                (key, spec_json, state, int(max_retries), now, now),
            )
            if state == "DONE":
                self._settled.notify_all()
            return self.job_view(self._require(key)), True

    def lease(self, worker: str, *, now: "float | None" = None) -> "dict | None":
        """Atomically claim the oldest due QUEUED job for *worker*: it is
        RUNNING from here on.

        Returns the job view (with the fresh ``lease_id``) or ``None`` when
        nothing is due — jobs parked behind a backoff ``not_before`` are
        invisible until their delay elapses.
        """
        now = time.time() if now is None else now
        with self._lock:
            row = self._db.execute(
                "SELECT * FROM jobs WHERE state = 'QUEUED' AND not_before <= ?"
                " ORDER BY rowid LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None
            lease_id = uuid.uuid4().hex
            self._db.execute(
                "UPDATE jobs SET state='RUNNING', lease_id=?, worker=?,"
                " updated_at=? WHERE job_key=?",
                (lease_id, worker, now, row["job_key"]),
            )
            return self.job_view(self._require(row["job_key"]))

    def complete(self, key: str, lease_id: str, *, now: "float | None" = None) -> None:
        """RUNNING → DONE.  Fenced: only the live leaseholder lands
        a completion, so a job can never be double-completed."""
        now = time.time() if now is None else now
        with self._lock:
            row = self._fenced(key, lease_id)
            if row["state"] != "RUNNING":
                raise QueueError(f"complete from {row['state']}")
            self._db.execute(
                "UPDATE jobs SET state='DONE', lease_id=NULL, error=NULL,"
                " updated_at=? WHERE job_key=?",
                (now, key),
            )
            self._settled.notify_all()

    def fail(
        self, key: str, lease_id: str, error: str, *, now: "float | None" = None
    ) -> None:
        """RUNNING → FAILED: the *job itself* raised.

        Job errors are deterministic (same spec ⇒ same exception), so they
        are never retried: only lost workers retry.
        """
        now = time.time() if now is None else now
        with self._lock:
            row = self._fenced(key, lease_id)
            if row["state"] != "RUNNING":
                raise QueueError(f"fail from {row['state']}")
            self._db.execute(
                "UPDATE jobs SET state='FAILED', lease_id=NULL, error=?,"
                " updated_at=? WHERE job_key=?",
                (error, now, key),
            )
            self._settled.notify_all()

    def requeue(
        self,
        key: str,
        lease_id: str,
        error: str,
        *,
        delay: float = 0.0,
        charge: bool = True,
        now: "float | None" = None,
    ) -> str:
        """The worker died (SIGKILL, OOM, hang): retry or dead-letter.

        Charges one attempt (unless ``charge=False`` — daemon-restart
        recovery) and requeues with ``not_before = now + delay`` (the
        supervisor passes a :class:`repro._util.Backoff` delay).  A job
        whose attempts exceed its budget lands in ``DEAD`` with the
        captured *error* — never lost, never retried again without an
        explicit ``retry``.  Returns the resulting state.
        """
        now = time.time() if now is None else now
        with self._lock:
            row = self._fenced(key, lease_id)
            if row["state"] != "RUNNING":
                raise QueueError(f"requeue from {row['state']}")
            attempts = row["attempts"] + (1 if charge else 0)
            if attempts > row["max_retries"]:
                self._db.execute(
                    "UPDATE jobs SET state='DEAD', attempts=?, lease_id=NULL,"
                    " error=?, updated_at=? WHERE job_key=?",
                    (attempts, error, now, key),
                )
                self._settled.notify_all()
                return "DEAD"
            self._db.execute(
                "UPDATE jobs SET state='QUEUED', attempts=?, lease_id=NULL,"
                " worker=NULL, error=?, not_before=?, updated_at=? WHERE job_key=?",
                (attempts, error, now + delay, now, key),
            )
            return "QUEUED"

    def recover(self, *, now: "float | None" = None) -> list[str]:
        """Daemon restart: re-queue every orphaned RUNNING job.

        The previous incarnation's workers are gone with it, so every
        in-flight lease is void.  No attempt is charged — the daemon dying
        is not the job's fault — and ``not_before`` resets so recovered
        work runs immediately.  Returns the recovered keys.
        """
        now = time.time() if now is None else now
        # Every row that is neither QUEUED nor terminal: RUNNING, and the
        # LEASED rows an older daemon (which had a separate leased state)
        # may have left behind.
        orphaned = "state NOT IN ('QUEUED','DONE','FAILED','DEAD')"
        with self._lock:
            rows = self._db.execute(
                f"SELECT job_key FROM jobs WHERE {orphaned}"
            ).fetchall()
            keys = [row["job_key"] for row in rows]
            self._db.execute(
                "UPDATE jobs SET state='QUEUED', lease_id=NULL, worker=NULL,"
                f" not_before=0, updated_at=? WHERE {orphaned}",
                (now,),
            )
        return keys

    def request_cancel(self, key: str, *, now: "float | None" = None) -> str:
        """Cancel *key*: QUEUED cancels immediately (→ FAILED "cancelled");
        RUNNING is flagged and the supervisor kills the worker at its
        next tick; terminal states are left untouched.  Returns the state
        after the request."""
        now = time.time() if now is None else now
        with self._lock:
            row = self._require(key)
            if row["state"] == "QUEUED":
                self._db.execute(
                    "UPDATE jobs SET state='FAILED', error='cancelled',"
                    " updated_at=? WHERE job_key=?",
                    (now, key),
                )
                self._settled.notify_all()
                return "FAILED"
            if row["state"] == "RUNNING":
                self._db.execute(
                    "UPDATE jobs SET cancel_requested=1, updated_at=?"
                    " WHERE job_key=?",
                    (now, key),
                )
            return self._require(key)["state"]

    def retry(self, key: str, *, now: "float | None" = None) -> dict:
        """FAILED/DEAD → QUEUED with a fresh attempt budget (operator
        action: ``repro jobs retry``)."""
        now = time.time() if now is None else now
        with self._lock:
            row = self._require(key)
            if row["state"] not in ("FAILED", "DEAD"):
                raise QueueError(f"retry from {row['state']} (want FAILED|DEAD)")
            self._db.execute(
                "UPDATE jobs SET state='QUEUED', attempts=0, error=NULL,"
                " not_before=0, cancel_requested=0, updated_at=? WHERE job_key=?",
                (now, key),
            )
            return self.job_view(self._require(key))

    # ----------------------------------------------------------- queries
    def get(self, key: str) -> "dict | None":
        with self._lock:
            row = self._row(key)
        return self.job_view(row) if row is not None else None

    def wait_terminal(self, key: str, timeout: float) -> "dict | None":
        """The row for *key*, returned as soon as it is terminal.

        Blocks at most *timeout* seconds (on the wall clock — this is the
        one method that sleeps); on time-out, for an unknown key, or once
        :meth:`release_waiters` was called, the current row comes back
        as-is, exactly what :meth:`get` would return.
        """
        deadline = time.monotonic() + timeout
        with self._settled:
            while True:
                row = self._row(key)
                remaining = deadline - time.monotonic()
                if (
                    row is None
                    or row["state"] in TERMINAL
                    or self._released
                    or remaining <= 0
                ):
                    break
                self._settled.wait(remaining)
        return self.job_view(row) if row is not None else None

    def release_waiters(self) -> None:
        """Drain: wake every :meth:`wait_terminal` caller, park no new one."""
        with self._settled:
            self._released = True
            self._settled.notify_all()

    def jobs(self, states: "tuple | None" = None) -> list[dict]:
        """All jobs (optionally filtered), in submission order."""
        with self._lock:
            if states:
                marks = ",".join("?" for _ in states)
                rows = self._db.execute(
                    f"SELECT * FROM jobs WHERE state IN ({marks}) ORDER BY rowid",
                    tuple(states),
                ).fetchall()
            else:
                rows = self._db.execute(
                    "SELECT * FROM jobs ORDER BY rowid"
                ).fetchall()
        return [self.job_view(row) for row in rows]

    def cancel_requests(self) -> list[dict]:
        """Live jobs flagged for cancellation (the supervisor polls this)."""
        with self._lock:
            rows = self._db.execute(
                "SELECT * FROM jobs WHERE cancel_requested=1 AND state = 'RUNNING'"
            ).fetchall()
        return [self.job_view(row) for row in rows]

    def counts(self) -> dict:
        """``{state: row count}`` over every state (zeroes included)."""
        with self._lock:
            rows = self._db.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        counts = dict.fromkeys(STATES, 0)
        counts.update({row["state"]: row["n"] for row in rows})
        return counts

    def depth(self) -> int:
        """Open (non-terminal) jobs — the admission-control measure."""
        counts = self.counts()
        return sum(n for state, n in counts.items() if state not in TERMINAL)
