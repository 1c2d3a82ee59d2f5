"""Content-addressed job execution layer (DESIGN.md §12).

Every entry point that simulates — ``run``, ``sweep``, the figure/table
experiment modules — resolves its work through one canonical identity
(:class:`JobSpec` / :func:`job_key`), one persistent memo
(:class:`ResultStore`, the ``results`` section of the cache root), and one
execution pipeline (:func:`execute`: store hit, else a direct run).  A repeated
request is a store lookup, not a re-simulation; the serving daemon
(DESIGN.md §13) is a network front-end over exactly these three calls.

The package exports the names outside callers use; inside ``repro`` every
name comes from the module that defines it (DESIGN.md §3), except
``experiments.parallel``, which calls ``repro.jobs.execute`` through here.
"""

from repro.jobs.execute import execute
from repro.jobs.spec import JobSpec, job_key, spec_program
from repro.jobs.store import ResultStore

__all__ = ["JobSpec", "ResultStore", "execute", "job_key", "spec_program"]
