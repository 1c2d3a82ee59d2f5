"""Simulation-as-a-service: the fault-tolerant serving half of the job
layer (DESIGN.md §13).

``repro serve`` runs a :class:`~repro.serve.daemon.ServeDaemon` — a durable
sqlite job queue (:mod:`repro.serve.queue`), a supervised worker pool
(:mod:`repro.serve.supervisor` + :mod:`repro.serve.worker`), and a local
HTTP API (:mod:`repro.serve.client`) — multiplexing many clients onto the
content-addressed ``execute()`` pipeline.  Engineered around failure:
workers are SIGKILL-safe (lease expiry + bounded retries + dead-letter),
the daemon resumes orphaned jobs on restart, and a full queue pushes back
explicitly instead of dropping work.

Import surface is lazy: pulling a name here imports only the module that
defines it (a client does not load sqlite, nor a worker the HTTP stack).
Nothing under ``repro.core``, ``repro.jobs``, ``repro.cpu`` or
``repro.experiments`` imports this package.
"""

from __future__ import annotations

__all__ = [
    "JobQueue",
    "QueueError",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "ServeRejected",
    "ServeUnavailable",
    "Supervisor",
]

_EXPORTS = {
    "JobQueue": ("repro.serve.queue", "JobQueue"),
    "QueueError": ("repro.serve.queue", "QueueError"),
    "ServeDaemon": ("repro.serve.daemon", "ServeDaemon"),
    "Supervisor": ("repro.serve.supervisor", "Supervisor"),
    "ServeClient": ("repro.serve.client", "ServeClient"),
    "ServeError": ("repro.serve.client", "ServeError"),
    "ServeRejected": ("repro.serve.client", "ServeRejected"),
    "ServeUnavailable": ("repro.serve.client", "ServeUnavailable"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
