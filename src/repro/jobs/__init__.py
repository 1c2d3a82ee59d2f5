"""Content-addressed job execution layer (DESIGN.md §12).

Every entry point that simulates — ``run``, ``sweep``, the figure/table
experiment modules — resolves its work through one canonical identity
(:class:`JobSpec` / :func:`job_key`), one persistent memo
(:class:`ResultStore` under ``.repro_cache/results/``), and one execution
pipeline (:func:`execute`: store hit, else a direct run).  A repeated
request is a store lookup, not a re-simulation; the serving daemon
(DESIGN.md §13) is a network front-end over exactly these three calls.
"""

from repro.jobs.execute import JobOutcome, execute, record_summary
from repro.jobs.spec import JOB_FORMAT, JobSpec, digest_payload, job_key, spec_program
from repro.jobs.store import RESULT_FORMAT, ResultStore, results_dir, seal_record

__all__ = [
    "JOB_FORMAT",
    "JobOutcome",
    "JobSpec",
    "RESULT_FORMAT",
    "ResultStore",
    "digest_payload",
    "execute",
    "job_key",
    "record_summary",
    "results_dir",
    "seal_record",
    "spec_program",
]
