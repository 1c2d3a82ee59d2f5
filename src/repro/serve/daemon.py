"""``repro serve``: the simulation-as-a-service daemon.

A long-running process multiplexing many clients onto a supervised worker
pool (DESIGN.md §13).  Three layers, each owned by this module's
:class:`ServeDaemon`:

* an HTTP front-end (:class:`ThreadingHTTPServer` on loopback) exposing
  submit / poll / fetch / cancel / retry / status over JSON;
* the durable :class:`~repro.jobs.queue.JobQueue` (sqlite under
  ``<serve_dir>/queue.sqlite``);
* the :class:`~repro.jobs.supervisor.Supervisor` pumping jobs from the
  queue through worker processes into the sealed
  :class:`~repro.jobs.store.ResultStore` (the verdicts its ``tick()``
  returns are ignored: the daemon serves records from the store).

**Admission control.**  Submissions beyond ``max_depth`` open jobs are
refused with ``429`` and a ``Retry-After`` header — explicit backpressure,
never a silent drop; a client that keeps the advertised pace is never
refused twice in a row.  While draining, every submit gets ``503``.

**Idempotent submission.**  The daemon computes the job's content-addressed
key server-side.  A key already finished in the result store inserts
straight to ``DONE`` (a submit that is a cache hit never queues); a key
already queued or running *attaches* to the in-flight row.  Either
way the response carries the key, the state, and ``created``.

**Event-driven hot path.**  The supervision loop sleeps in
``Supervisor.wait`` — on the worker pipes and a self-pipe that submit,
cancel, retry and stop write to — so a job is leased the moment it is
submitted and its verdict harvested the moment the worker reports.
``TICK_PERIOD_S`` is only the wait's time-out: the pace of the hang check
and of backoff-due jobs.  Clients wait the same way:
``GET /api/jobs/<key>?wait=<s>`` parks the handler thread until the job
is terminal (or *s* seconds, capped at ``MAX_WAIT_S``, pass) instead of
being asked again and again.

**Crash-safe restart.**  All durable state lives in the sqlite queue and
the sealed store, both written atomically/transactionally.  Startup runs
``queue.recover()``: every job the previous incarnation left running is
re-queued (no retry budget charged) and completes under the new pool — a
SIGKILLed daemon loses nothing but in-flight wall time.  This is the only
crash net a lease needs: leases have no expiry, and a second daemon opened
on a live one's queue would requeue that one's running rows the same way.

**Graceful drain.**  SIGTERM/SIGINT flip the daemon into draining: the
listener refuses new work, running jobs finish (bounded by
:data:`DRAIN_TIMEOUT_S`), the queue is left consistent, and the endpoint file
is removed.  Crash and drain converge on the same durable state by
construction — recovery is one code path, not two.

API (all JSON)::

    POST /api/jobs                   {"spec": {...}, "max_retries": 2}
    GET  /api/jobs                   list every job row
    GET  /api/jobs/<key>             one job row (404 unknown)
    GET  /api/jobs/<key>?wait=<s>    the same row, held back until it is
                                     terminal, <s> seconds (server-capped)
                                     pass, or the daemon starts draining
    GET  /api/jobs/<key>/result      the sealed result record (409 failed,
                                     404 not finished)
    POST /api/jobs/<key>/cancel      cancel queued/running work
    POST /api/jobs/<key>/retry       re-arm a FAILED/DEAD job
    GET  /api/status                 queue counts, workers, telemetry
    POST /api/drain                  begin a graceful drain (SIGTERM twin)

The bound endpoint is published atomically to ``<serve_dir>/endpoint.json``
(host, port, pid) so clients discover a daemon by cache directory alone.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import repro
from repro._util import atomic_write_text
from repro.cache import cache_root
from repro.jobs.queue import JobQueue, QueueError
from repro.jobs.spec import job_key, spec_from_dict, spec_to_dict
from repro.jobs.store import TELEMETRY as STORE_TELEMETRY, ResultStore
from repro.jobs.supervisor import TICK_PERIOD_S, Supervisor

__all__ = [
    "DRAIN_TIMEOUT_S",
    "MAX_WAIT_S",
    "RETRY_AFTER_S",
    "ServeDaemon",
    "default_serve_dir",
    "endpoint_path",
]

#: Longest a ``?wait=`` request is held; clients re-issue to wait longer.
MAX_WAIT_S = 10.0

#: The ``Retry-After`` a refused (queue-full) submit advertises, in seconds.
RETRY_AFTER_S = 1

#: How long a graceful drain lets running jobs finish, in seconds; the
#: stragglers are requeued and resume on the next start.
DRAIN_TIMEOUT_S = 60.0


def default_serve_dir() -> "Path | None":
    """``<cache root>/serve``, or ``None`` when caching is disabled.

    The serve daemon's durable state (queue, worker stderr, endpoint) lives
    beside the stores it feeds — one cache root to relocate or wipe.
    """
    root = cache_root()
    return root / "serve" if root is not None else None


def endpoint_path(serve_dir: "Path | str") -> Path:
    return Path(serve_dir) / "endpoint.json"


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the daemon; one instance per request."""

    daemon_ref: "ServeDaemon"  # set by the server factory
    protocol_version = "HTTP/1.1"
    # Buffer the reply so headers and body leave in one segment: on a
    # keep-alive connection two small writes stall ~40 ms on Nagle + the
    # client's delayed ACK.  handle_one_request() flushes after each reply.
    wbufsize = -1

    # ------------------------------------------------------------ plumbing
    def log_message(self, fmt, *args):  # quiet by default
        if self.daemon_ref.verbose:
            super().log_message(fmt, *args)

    def _reply(self, status: int, payload: dict, headers: "dict | None" = None):
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0) or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError:
            return {}
        return payload if isinstance(payload, dict) else {}

    # ------------------------------------------------------------- routing
    def do_GET(self):  # noqa: N802 (http.server API)
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        daemon = self.daemon_ref
        if parts == ["api", "status"]:
            return self._reply(200, daemon.status_view())
        if parts == ["api", "jobs"]:
            return self._reply(200, {"jobs": daemon.queue.jobs()})
        if len(parts) == 3 and parts[:2] == ["api", "jobs"]:
            try:
                wait = float(parse_qs(url.query).get("wait", ["0"])[-1])
            except ValueError:
                return self._reply(400, {"error": "wait must be a number of seconds"})
            # (NaN and negatives fail ``> 0`` and mean "do not wait".)
            wait = min(wait, MAX_WAIT_S) if wait > 0 else 0.0
            job = daemon.queue.wait_terminal(parts[2], wait)
            if job is None:
                return self._reply(404, {"error": f"unknown job {parts[2]}"})
            return self._reply(200, {"job": job})
        if len(parts) == 4 and parts[:2] == ["api", "jobs"] and parts[3] == "result":
            return self._result(parts[2])
        return self._reply(404, {"error": f"no route {self.path}"})

    def do_POST(self):  # noqa: N802
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        daemon = self.daemon_ref
        if parts == ["api", "jobs"]:
            return self._submit()
        if parts == ["api", "drain"]:
            daemon.request_stop("drain requested over the API")
            return self._reply(202, {"draining": True})
        if len(parts) == 4 and parts[:2] == ["api", "jobs"]:
            key, action = parts[2], parts[3]
            try:
                if action == "cancel":
                    state = daemon.queue.request_cancel(key)
                    daemon.supervisor.wake()  # kill the flagged worker now
                    return self._reply(200, {"job_key": key, "state": state})
                if action == "retry":
                    job = daemon.queue.retry(key)
                    daemon.supervisor.wake()
                    return self._reply(200, {"job": job})
            except QueueError as exc:
                return self._reply(409, {"error": str(exc)})
        return self._reply(404, {"error": f"no route {self.path}"})

    # ------------------------------------------------------------ handlers
    def _submit(self):
        daemon = self.daemon_ref
        if daemon.stopping:
            return self._reply(
                503, {"error": "daemon is draining"}, {"Retry-After": "5"}
            )
        body = self._body()
        spec_dict = body.get("spec")
        if not isinstance(spec_dict, dict):
            return self._reply(400, {"error": "body must carry a spec object"})
        try:
            outcome = daemon.submit(
                spec_dict, max_retries=int(body.get("max_retries", daemon.max_retries))
            )
        except OverflowError:
            # Queue full: explicit backpressure, never a silent drop.
            return self._reply(
                429,
                {
                    "error": "queue full",
                    "depth": daemon.queue.depth(),
                    "max_depth": daemon.max_depth,
                },
                {"Retry-After": str(RETRY_AFTER_S)},
            )
        except Exception as exc:  # bad spec (unknown workload, bad field)
            return self._reply(400, {"error": f"{type(exc).__name__}: {exc}"})
        return self._reply(200, outcome)

    def _result(self, key: str):
        daemon = self.daemon_ref
        job = daemon.queue.get(key)
        if job is None:
            return self._reply(404, {"error": f"unknown job {key}"})
        if job["state"] in ("FAILED", "DEAD"):
            return self._reply(
                409,
                {"job_key": key, "state": job["state"], "error": job["error"]},
            )
        record = daemon.store.load(key) if daemon.store is not None else None
        if job["state"] != "DONE" or record is None:
            return self._reply(
                404,
                {"job_key": key, "state": job["state"], "error": "not finished"},
            )
        return self._reply(200, {"job_key": key, "record": record})


class ServeDaemon:
    """The serve process: queue + supervisor + HTTP front-end."""

    def __init__(
        self,
        serve_dir: "Path | str | None" = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_depth: int = 64,
        max_retries: int = 2,
        hang_timeout: float = 60.0,
        seed: "int | None" = None,
        verbose: bool = False,
    ) -> None:
        # Refused before the queue opens or the endpoint is published.
        Supervisor.check_limits(workers, hang_timeout)
        if serve_dir is None:
            serve_dir = default_serve_dir()
        if serve_dir is None:
            raise RuntimeError(
                "repro serve needs a durable directory: set REPRO_CACHE_DIR "
                "(caching is currently disabled) or pass --serve-dir"
            )
        self.serve_dir = Path(serve_dir)
        self.serve_dir.mkdir(parents=True, exist_ok=True)
        self.max_depth = int(max_depth)
        self.max_retries = int(max_retries)
        self.verbose = verbose
        self.started_wall = time.time()
        self.stopping = False
        self.stop_reason: str | None = None

        self.store = ResultStore.default()
        self.queue = JobQueue(self.serve_dir / "queue.sqlite")
        #: Orphans of the previous incarnation, re-queued before anything
        #: else happens — resume-on-restart is unconditional.
        self.recovered = self.queue.recover()
        self.supervisor = Supervisor(
            self.queue,
            self.serve_dir,
            workers=workers,
            hang_timeout=hang_timeout,
            seed=seed,
        )

        handler = type("Handler", (_Handler,), {"daemon_ref": self})
        self.server = ThreadingHTTPServer((host, port), handler)
        self.server.daemon_threads = True
        self.host, self.port = self.server.server_address[:2]
        atomic_write_text(
            endpoint_path(self.serve_dir),
            json.dumps(
                {
                    "host": self.host,
                    "port": self.port,
                    "pid": os.getpid(),
                    "started_unix": self.started_wall,
                    "version": repro.__version__,
                },
                sort_keys=True,
            )
            + "\n",
        )

    # ----------------------------------------------------------- lifecycle
    def request_stop(self, reason: str) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe: a flag
        and one non-blocking pipe write, no lock)."""
        self.stopping = True
        self.stop_reason = reason
        self.supervisor.wake()

    def install_signal_handlers(self) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(
                signum,
                lambda s, frame: self.request_stop(signal.Signals(s).name),
            )

    def serve_forever(self, poll: float = TICK_PERIOD_S) -> None:
        """Run until a stop is requested, then drain and shut down.

        *poll* is the safety-net period: the loop ticks at once on any
        worker message, submission, cancel, retry or stop, and otherwise
        every *poll* seconds for the clock-driven rules.
        """
        http_thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serve-http",
            daemon=True,
        )
        http_thread.start()
        try:
            while not self.stopping:
                self.supervisor.tick()
                self.supervisor.wait(poll)
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop accepting, finish running work, flush, tear down."""
        self.stopping = True
        # Long-polls parked on unfinished jobs get their (non-terminal) row
        # back now; the durable queue answers for the rest after a restart.
        self.queue.release_waiters()
        drained = self.supervisor.drain(timeout=DRAIN_TIMEOUT_S)
        self.server.shutdown()
        self.server.server_close()
        try:
            endpoint_path(self.serve_dir).unlink()
        except OSError:
            pass
        self.queue.close()
        if self.verbose:
            print(
                f"serve: stopped ({self.stop_reason or 'shutdown'}), "
                f"drained={drained}"
            )

    # ------------------------------------------------------------- service
    def submit(self, spec_dict: dict, *, max_retries: "int | None" = None) -> dict:
        """Resolve one submission to ``{job_key, state, created, ...}``.

        Raises ``OverflowError`` on queue-full (the handler maps it to 429)
        and lets spec errors propagate (mapped to 400).
        """
        spec = spec_from_dict(spec_dict)
        key = job_key(spec)
        existing = self.queue.get(key)
        if existing is not None:
            return {
                "job_key": key,
                "state": existing["state"],
                "created": False,
                "attempts": existing["attempts"],
            }
        # A submit that is already a store hit never queues: insert the row
        # terminally DONE so poll/fetch serve it like any finished job.
        hit = self.store is not None and self.store.load(key) is not None
        if not hit and self.queue.depth() >= self.max_depth:
            raise OverflowError("queue full")
        view, created = self.queue.submit(
            key,
            json.dumps(spec_to_dict(spec), sort_keys=True),
            max_retries=self.max_retries if max_retries is None else max_retries,
            state="DONE" if hit else "QUEUED",
        )
        if hit:
            return {"job_key": key, "state": view["state"], "created": created,
                    "served_from_store": True}
        self.supervisor.wake()  # lease it now, not at the next tick
        return {"job_key": key, "state": view["state"], "created": created}

    def status_view(self) -> dict:
        return {
            "pid": os.getpid(),
            "version": repro.__version__,
            "uptime_s": round(time.time() - self.started_wall, 3),
            "draining": self.stopping,
            "queue": self.queue.counts(),
            "depth": self.queue.depth(),
            "max_depth": self.max_depth,
            "recovered_on_start": self.recovered,
            "store_telemetry": dict(STORE_TELEMETRY),
            **self.supervisor.status(),
        }
