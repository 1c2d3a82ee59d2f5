"""Client for a running ``repro serve`` daemon.

``ServeClient`` wraps the daemon's JSON API in the five calls the serve
contract promises — submit / poll / fetch / cancel / status — plus the
operator verbs (retry, jobs, drain) the ``repro jobs`` CLI exposes.  It
discovers the daemon through the endpoint file the daemon publishes
(``<serve_dir>/endpoint.json``), so a client needs nothing but the shared
cache directory.

Error model: HTTP transport problems raise :class:`ServeUnavailable`
(connection refused, daemon gone); API-level refusals raise
:class:`ServeRejected` carrying the status code — ``429`` (queue full,
with the daemon's ``Retry-After`` in :attr:`ServeRejected.retry_after`),
``503`` (draining), ``404``/``409`` (unknown job / failed job).  Connects
retry briefly with the shared backoff helper so a client racing a
just-started daemon wins without hand-rolled sleeps.
"""

from __future__ import annotations

import http.client
import json
import time
from pathlib import Path

from repro._util import Backoff, retry_with_backoff
from repro.serve.daemon import default_serve_dir, endpoint_path
from repro.serve.queue import TERMINAL

__all__ = ["ServeClient", "ServeError", "ServeRejected", "ServeUnavailable"]


class ServeError(RuntimeError):
    """Base class for client-side serve failures."""


class ServeUnavailable(ServeError):
    """No daemon reachable (no endpoint file, connection refused, died)."""


class ServeRejected(ServeError):
    """The daemon answered with a refusal status."""

    def __init__(self, status: int, payload: dict) -> None:
        self.status = status
        self.payload = payload
        self.retry_after = payload.get("retry_after")
        super().__init__(
            f"HTTP {status}: {payload.get('error', json.dumps(payload, sort_keys=True))}"
        )


class ServeClient:
    """Talk to the daemon serving *serve_dir* (default: the shared cache)."""

    def __init__(
        self,
        serve_dir: "Path | str | None" = None,
        *,
        host: "str | None" = None,
        port: "int | None" = None,
        timeout: float = 30.0,
    ) -> None:
        if host is not None and port is not None:
            self.host, self.port = host, int(port)
        else:
            serve_dir = serve_dir if serve_dir is not None else default_serve_dir()
            if serve_dir is None:
                raise ServeUnavailable(
                    "no serve endpoint: caching is disabled and no host/port given"
                )
            try:
                endpoint = json.loads(endpoint_path(serve_dir).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ServeUnavailable(
                    f"no daemon endpoint under {serve_dir} — is `repro serve` running?"
                ) from exc
            self.host, self.port = endpoint["host"], int(endpoint["port"])
        self.timeout = timeout

    # ------------------------------------------------------------ transport
    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _request(
        self,
        method: str,
        path: str,
        body: "dict | None" = None,
        *,
        keep: "http.client.HTTPConnection | None" = None,
    ) -> dict:
        """One API call: over its own connection, or over *keep*, which
        stays open for the caller's next request."""

        def attempt() -> dict:
            conn = keep if keep is not None else self._connect()
            answered = False
            try:
                payload = (
                    json.dumps(body, sort_keys=True).encode()
                    if body is not None
                    else None
                )
                conn.request(
                    method,
                    path,
                    body=payload,
                    headers={"Content-Type": "application/json"} if payload else {},
                )
                response = conn.getresponse()
                raw = response.read()
                answered = True
                try:
                    data = json.loads(raw) if raw else {}
                except json.JSONDecodeError:
                    data = {"error": raw.decode(errors="replace")}
                if response.status >= 400:
                    if isinstance(data, dict):
                        data.setdefault(
                            "retry_after", response.headers.get("Retry-After")
                        )
                    raise ServeRejected(response.status, data)
                return data
            finally:
                # A kept connection that broke mid-exchange is closed too:
                # http.client reopens it on the retry's request().
                if keep is None or not answered:
                    conn.close()

        try:
            # A daemon that just started (or is momentarily saturated at the
            # accept queue) deserves a couple of quick retries; anything
            # beyond that is genuinely unavailable.
            return retry_with_backoff(
                attempt,
                retries=3,
                retry_on=(ConnectionRefusedError, ConnectionResetError),
                backoff=Backoff(base=0.1, cap=1.0),
            )
        except (ConnectionError, OSError, http.client.HTTPException) as exc:
            raise ServeUnavailable(
                f"daemon at {self.host}:{self.port} unreachable: {exc}"
            ) from exc

    # ------------------------------------------------------------- the API
    def submit(self, spec_dict: dict, *, max_retries: "int | None" = None) -> dict:
        body: dict = {"spec": spec_dict}
        if max_retries is not None:
            body["max_retries"] = max_retries
        return self._request("POST", "/api/jobs", body)

    def poll(self, key: str) -> dict:
        return self._request("GET", f"/api/jobs/{key}")["job"]

    def fetch(self, key: str) -> dict:
        """The sealed result record for a DONE job."""
        return self._request("GET", f"/api/jobs/{key}/result")["record"]

    def cancel(self, key: str) -> dict:
        return self._request("POST", f"/api/jobs/{key}/cancel")

    def retry(self, key: str) -> dict:
        return self._request("POST", f"/api/jobs/{key}/retry")["job"]

    def jobs(self) -> list[dict]:
        return self._request("GET", "/api/jobs")["jobs"]

    def status(self) -> dict:
        return self._request("GET", "/api/status")

    def drain(self) -> dict:
        return self._request("POST", "/api/drain")

    # ------------------------------------------------------------ patterns
    def submit_and_wait(
        self,
        spec_dict: dict,
        *,
        timeout: float = 300.0,
        poll_interval: float = 0.1,
        max_retries: "int | None" = None,
    ) -> dict:
        """Submit, wait for a terminal state, and return the final job view.

        The wait is a long-poll over one kept-alive connection: the daemon
        holds each ``?wait=`` request until the job settles, so the client
        learns of it at once and asks rarely.  *poll_interval* is the
        floor on the time between requests — the pace against a daemon
        that ignores ``wait`` (an older one, or one that is draining).

        Honours the daemon's backpressure: a 429 sleeps the advertised
        ``Retry-After`` (or one second) and resubmits — the client is the
        one that waits, the queue never silently grows.
        """
        deadline = time.time() + timeout
        while True:
            try:
                outcome = self.submit(spec_dict, max_retries=max_retries)
                break
            except ServeRejected as exc:
                if exc.status != 429 or time.time() >= deadline:
                    raise
                time.sleep(float(exc.retry_after or 1))
        key, state = outcome["job_key"], outcome["state"]
        conn = self._connect()
        try:
            while (asked := time.time()) < deadline:
                hold = min(deadline - asked, self.timeout / 2)
                job = self._request(
                    "GET", f"/api/jobs/{key}?wait={hold:.3f}", keep=conn
                )["job"]
                state = job["state"]
                if state in TERMINAL:
                    return job
                time.sleep(max(0.0, asked + poll_interval - time.time()))
        finally:
            conn.close()
        raise ServeError(f"job {key[:16]} still {state} after {timeout:.0f}s")
