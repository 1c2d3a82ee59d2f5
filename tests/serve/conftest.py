"""Serve-layer fixtures: isolated cache roots plus a daemon harness that
runs ``repro serve`` as a real subprocess so SIGKILL/SIGTERM tests exercise
the same process boundaries production does."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.jobs.spec import JobSpec
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture()
def cache_root(tmp_path, monkeypatch):
    """Point REPRO_CACHE_DIR at a per-test temp directory (shared by the
    in-process client helpers and any daemon subprocesses the test spawns)."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    return root


def tiny_spec(seed: int = 3, workload: str = "fft") -> JobSpec:
    """The cheapest real job: a tiny workload on the bulk-synchronous
    scheme (~0.5 s wall), varied by seed so tests get distinct job keys."""
    return JobSpec.build(workload, "tiny", scheme="s9", seed=seed, host_cores=4)


class DaemonHarness:
    """Drive a ``repro serve`` daemon subprocess against one cache root.

    ``start()`` waits for the *new incarnation's* endpoint file (matched by
    pid) so restart tests never talk to a stale endpoint left behind by a
    SIGKILLed predecessor.
    """

    def __init__(self, cache_root: Path) -> None:
        self.cache_root = Path(cache_root)
        self.serve_dir = self.cache_root / "serve"
        self.proc: "subprocess.Popen | None" = None

    def start(self, *args: str, env: "dict | None" = None, timeout: float = 30.0):
        full_env = {
            **os.environ,
            "PYTHONPATH": str(SRC),
            "REPRO_CACHE_DIR": str(self.cache_root),
            **(env or {}),
        }
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--seed", "7", *args],
            env=full_env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        endpoint = self.serve_dir / "endpoint.json"
        deadline = time.time() + timeout
        while time.time() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited early ({self.proc.returncode}):\n"
                    + (self.proc.stdout.read() if self.proc.stdout else "")
                )
            try:
                published = json.loads(endpoint.read_text())
                if published.get("pid") == self.proc.pid:
                    return self
            except (OSError, json.JSONDecodeError):
                pass
            time.sleep(0.05)
        raise RuntimeError("daemon did not publish an endpoint in time")

    def client(self, **kwargs) -> ServeClient:
        return ServeClient(serve_dir=self.serve_dir, **kwargs)

    def sigterm(self) -> None:
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)

    def sigkill(self) -> None:
        assert self.proc is not None
        self.proc.kill()

    def wait(self, timeout: float = 60.0) -> int:
        assert self.proc is not None
        return self.proc.wait(timeout=timeout)

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()


@pytest.fixture()
def daemon(cache_root):
    harness = DaemonHarness(cache_root)
    yield harness
    harness.stop()


def wait_terminal(client: ServeClient, key: str, timeout: float = 60.0) -> dict:
    """Poll *key* until it reaches a terminal state (test-paced, fast)."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = client.poll(key)
        if job["state"] in ("DONE", "FAILED", "DEAD"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {key[:16]} still {job['state']} after {timeout}s")


@pytest.fixture()
def idle_daemon(cache_root):
    """HTTP front-end and queue only — no supervision loop, so a submitted
    job stays QUEUED for as long as the test likes."""
    daemon = ServeDaemon(workers=1, seed=7)
    http = threading.Thread(target=daemon.server.serve_forever, daemon=True)
    http.start()
    yield daemon
    if not daemon.stopping:
        daemon.shutdown()
    http.join(timeout=10)


def client_of(daemon: ServeDaemon, **kwargs) -> ServeClient:
    return ServeClient(host=daemon.host, port=daemon.port, **kwargs)
