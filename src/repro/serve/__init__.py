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

Nothing under ``repro.core``, ``repro.jobs``, ``repro.cpu`` or
``repro.experiments`` imports this package.
"""
