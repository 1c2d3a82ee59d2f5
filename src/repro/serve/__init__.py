"""Simulation-as-a-service: the HTTP front-end of the job layer
(DESIGN.md §13).

``repro serve`` runs a :class:`~repro.serve.daemon.ServeDaemon` — a local
HTTP API (:mod:`repro.serve.daemon`, :mod:`repro.serve.client`) over the
job layer's supervised worker pool (:mod:`repro.jobs.supervisor` +
:mod:`repro.jobs.worker`) and a durable sqlite job queue
(:mod:`repro.jobs.queue`) — multiplexing many clients onto the
content-addressed ``execute()`` pipeline.  Engineered around failure:
workers are SIGKILL-safe (death and hang detection + bounded retries +
dead-letter), the daemon resumes orphaned jobs on restart, and a full queue
pushes back explicitly instead of dropping work.

Import surface is lazy: pulling a name here imports only the module that
defines it.  Nothing under ``repro.core``, ``repro.jobs``, ``repro.cpu`` or
``repro.experiments`` imports this package.
"""

from __future__ import annotations

__all__ = [
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "ServeRejected",
    "ServeUnavailable",
]

_EXPORTS = {
    "ServeDaemon": ("repro.serve.daemon", "ServeDaemon"),
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
