"""Persistent result store: the ``results`` section of the cache root.

One sealed JSON record per :func:`repro.jobs.spec.job_key`, holding
everything a repeated request needs without re-simulating (DESIGN.md §12),
each fact once: the sweep point document's fields (headline numbers, output
fingerprint, the flat stats dump and its digest), the output length, the
interval snapshots, the digest payload and provenance.  The ``--stats-out``
document and per-core rows are functions of these (:mod:`repro.core.results`).

Sealing, quarantine, ``verify``/``gc``/``clear`` and the atomic publish are
the cache's one rule for every section (:class:`repro.cache.Section`): a
torn, edited or undecodable record is a miss and moves to ``<key>.corrupt``.
What is particular to records is the decoder: a record names its own key
(``job_key``; a valid blob under another key's name is damage) and its
layout (``format``; an older :data:`RESULT_FORMAT` is *stale*, a plain miss
left for ``gc``).  Every :meth:`ResultStore.load` outcome is counted in the
module-level :data:`TELEMETRY`.

Two processes computing the same key race benignly: both runs are
deterministic, both records seal valid, the last writer wins, and readers
only ever observe a complete record (``tests/jobs/test_store.py`` pins this).
"""

from __future__ import annotations

import json

from repro._util import canonical_json
from repro.cache import Section, cache_root

__all__ = ["RESULT_FORMAT", "TELEMETRY", "ResultStore"]

#: Record layout version: stored in every record; a mismatch is stale.
RESULT_FORMAT = 3

#: Process-wide load-outcome counters, folded by every :class:`ResultStore`
#: instance (``ResultStore.default()`` constructs a fresh handle per call,
#: so per-instance counters would be invisible).  The serve daemon surfaces
#: these in ``/api/status``; tests read them to assert that corruption was
#: *observed*, not silently skipped.
TELEMETRY = {"hits": 0, "misses": 0, "stale": 0, "corrupt": 0}


class ResultStore(Section):
    """Content-addressed store of finished job records."""

    suffix = ".json"

    @classmethod
    def default(cls) -> "ResultStore | None":
        """The store under the cache root, or ``None`` when on-disk caching
        is disabled (``REPRO_CACHE_DIR=""``)."""
        root = cache_root()
        return cls(root / "results") if root is not None else None

    def encode(self, record: dict) -> bytes:
        return canonical_json(record).encode()

    def decode(self, payload: bytes, key: str) -> "dict | None":
        record = json.loads(payload)
        if record["format"] != RESULT_FORMAT:
            return None
        if record["job_key"] != key:
            raise ValueError(f"record of {record['job_key']} filed under {key}")
        return record

    def load(self, key: str) -> "dict | None":
        """The record for *key*, or ``None`` (absent, stale or corrupt — a
        corrupt one quarantined).  The job simply re-runs: damage is
        telemetry, never an exception."""
        status, record = self.fetch(key)
        TELEMETRY["hits" if status == "ok" else "misses"] += 1
        if status in ("stale", "corrupt"):
            TELEMETRY[status] += 1
        return record

    def put(self, key: str, record: dict) -> dict:
        """Seal and atomically publish *record* under *key*; return the
        published form — exactly what ``load`` hands back (tuples become
        lists), without a read-back."""
        record = {**record, "format": RESULT_FORMAT, "job_key": key}
        return json.loads(super().put(key, record))

    def entries(self) -> "list[tuple[str, dict | None]]":
        """(key, record-or-None) for every file, invalid records as None.

        A management scan, not a lookup: it never quarantines or counts
        toward :data:`TELEMETRY` (``cache ls`` must observe without
        mutating).
        """
        return [(key, self.read(key)[1]) for key in self.keys()]
