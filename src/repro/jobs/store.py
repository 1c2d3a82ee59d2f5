"""Persistent, digest-sealed result store: ``.repro_cache/results/``.

One JSON file per :func:`repro.jobs.spec.job_key`, holding everything a
repeated request needs without re-simulating (DESIGN.md §12): the flat
stats dump and its digest, the rendered ``--stats-out`` document, the
output fingerprint, the derived point metrics, per-core summaries, and
provenance (trace key used, wall time, repro version).

**Sealing.**  Every record carries ``record_sha256`` — a SHA-256 over the
canonical-JSON rendering of the record *without* that field.  ``load``
recomputes it; any mismatch (torn write survived somehow, bit rot, a hand
edit) demotes the record to a miss, never to silent garbage.  The same
check backs ``repro cache gc``.

**Quarantine.**  A *corrupt* entry (unparseable bytes, a failed seal, an
embedded key that disagrees with its filename) is not merely ignored: it
is atomically renamed to ``<key>.corrupt`` so the evidence survives for
inspection while the key becomes a clean miss that the next run rewrites.
A *stale* entry (an older ``format``) is a plain miss — an old format is
not damage.  Every load outcome is counted in the module-level
:data:`TELEMETRY` (hits / misses / corrupt / quarantined), and
``repro cache verify`` (:meth:`ResultStore.verify`) scans the whole store
and reports per-key integrity without waiting for a lookup to stumble on
the damage.

**Concurrency.**  Writes go through :func:`repro._util.atomic_write_text`
(same-directory tempfile + ``os.replace``) — the compile cache's pattern.
Two processes computing the same key race benignly: both runs are
deterministic, both records seal valid, last writer wins, and readers only
ever observe a complete record (``tests/jobs/test_store.py`` pins this).

``REPRO_CACHE_DIR`` overrides the cache root exactly as for compiled
programs; the empty string disables the store (``ResultStore.default()``
returns ``None`` and execution layers fall back to always running).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro._util import atomic_write_text, canonical_json, sha256_hex
from repro.lang.compiler import cache_dir

__all__ = ["RESULT_FORMAT", "TELEMETRY", "ResultStore", "results_dir", "seal_record"]

#: Store format version: recorded in every file; a mismatch is a miss.
RESULT_FORMAT = 1

_SEAL_FIELD = "record_sha256"

#: Process-wide load-outcome counters, folded by every :class:`ResultStore`
#: instance (``ResultStore.default()`` constructs a fresh handle per call,
#: so per-instance counters would be invisible).  The serve daemon surfaces
#: these in ``/api/status``; tests read them to assert that corruption was
#: *observed*, not silently skipped.
TELEMETRY = {"hits": 0, "misses": 0, "stale": 0, "corrupt": 0, "quarantined": 0}


def results_dir(create: bool = False) -> Path | None:
    """The result section of the cache root, or ``None`` when disabled."""
    root = cache_dir()
    if root is None:
        return None
    results = root / "results"
    if create:
        results.mkdir(parents=True, exist_ok=True)
    return results


def seal_record(record: dict) -> str:
    """The record's integrity digest (over everything but the seal field)."""
    body = {k: v for k, v in record.items() if k != _SEAL_FIELD}
    return sha256_hex(canonical_json(body))


class ResultStore:
    """Content-addressed store of finished job records."""

    def __init__(self, root: "Path | str") -> None:
        self.root = Path(root)

    @classmethod
    def default(cls) -> "ResultStore | None":
        """The store under the shared cache root, or ``None`` when on-disk
        caching is disabled (``REPRO_CACHE_DIR=""``)."""
        root = results_dir()
        return cls(root) if root is not None else None

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> dict | None:
        """The sealed record for *key*, or ``None`` (absent/corrupt/stale).

        A record only counts when it parses, its format matches, its
        embedded key matches the filename, and its seal verifies.  A stale
        format is a plain miss; a *corrupt* entry (torn bytes, failed seal,
        key mismatch) is additionally quarantined to ``<key>.corrupt`` so
        the next lookup finds a clean miss and the evidence survives.
        Either way the caller sees ``None`` and the job simply re-runs —
        damage is telemetry (:data:`TELEMETRY`), never an exception.
        """
        record, status = self._read(key)
        if status == "ok":
            TELEMETRY["hits"] += 1
            return record
        TELEMETRY["misses"] += 1
        if status == "stale":
            TELEMETRY["stale"] += 1
        elif status == "corrupt":
            TELEMETRY["corrupt"] += 1
            self.quarantine(key)
        return None

    def _read(self, key: str) -> "tuple[dict | None, str]":
        """Parse + classify *key*'s file: (record-or-None, status) where
        status is ``"ok" | "absent" | "stale" | "corrupt"``."""
        path = self.path(key)
        try:
            with open(path) as fh:
                record = json.load(fh)
        except FileNotFoundError:
            return None, "absent"
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None, "corrupt"
        status = self.classify(record, key=key)
        return (record if status == "ok" else None), status

    @staticmethod
    def classify(record: object, key: str | None = None) -> str:
        """Integrity class of a parsed record: ``"ok" | "stale" | "corrupt"``.

        A non-current ``format`` is *stale* (an old layout, not damage);
        everything else that fails — wrong shape, filename/key mismatch,
        broken seal — is *corrupt*.
        """
        if not isinstance(record, dict):
            return "corrupt"
        if record.get("format") != RESULT_FORMAT:
            return "stale"
        if key is not None and record.get("job_key") != key:
            return "corrupt"
        seal = record.get(_SEAL_FIELD)
        if isinstance(seal, str) and seal == seal_record(record):
            return "ok"
        return "corrupt"

    def quarantine(self, key: str) -> "Path | None":
        """Move *key*'s entry aside to ``<key>.corrupt`` (atomic rename).

        Returns the quarantine path, or ``None`` when the entry vanished
        first (two readers racing on the same damaged file quarantine it
        once — ``os.replace`` makes the second rename a no-op failure).
        """
        src = self.path(key)
        dst = src.with_suffix(".corrupt")
        try:
            os.replace(src, dst)
        except OSError:
            return None
        TELEMETRY["quarantined"] += 1
        return dst

    def verify(self) -> dict:
        """Scan every entry and report store integrity (``cache verify``).

        Corrupt entries are quarantined as a side effect — a verify pass
        leaves the store with only loadable or stale entries on disk.
        Returns ``{"checked", "ok": [...], "stale": [...], "corrupt":
        [...], "quarantined": [...]}`` where *quarantined* lists the
        ``.corrupt`` files present after the scan (earlier casualties
        included).
        """
        ok: list[str] = []
        stale: list[str] = []
        corrupt: list[str] = []
        for key in self.keys():
            _, status = self._read(key)
            if status == "ok":
                ok.append(key)
            elif status == "stale":
                stale.append(key)
            elif status == "corrupt":
                corrupt.append(key)
                self.quarantine(key)
        return {
            "checked": len(ok) + len(stale) + len(corrupt),
            "ok": ok,
            "stale": stale,
            "corrupt": corrupt,
            "quarantined": [p.name for p in self._quarantined()],
        }

    def put(self, key: str, record: dict) -> dict:
        """Seal and atomically publish *record* under *key*; return the
        published form (the file is at :meth:`path`).

        The record is normalised through JSON before sealing so that the
        sealed bytes and the re-loaded value can never disagree (e.g.
        tuples vs lists) — what comes back is exactly what ``load`` hands
        back, without the second parse and seal check.
        """
        record = json.loads(json.dumps(record))
        record["format"] = RESULT_FORMAT
        record["job_key"] = key
        record[_SEAL_FIELD] = seal_record(record)
        path = self.path(key)
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(record, indent=2, sort_keys=True) + "\n")
        return record

    # ---------------------------------------------------------- management
    def keys(self) -> list[str]:
        """All stored keys (filename-derived; no validity check)."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def _quarantined(self) -> list[Path]:
        """The ``<key>.corrupt`` files on disk."""
        return sorted(self.root.glob("*.corrupt")) if self.root.is_dir() else []

    def entries(self) -> "list[tuple[str, dict | None]]":
        """(key, record-or-None) for every file, invalid records as None.

        A management scan, not a lookup: reads classify but never
        quarantine or count toward :data:`TELEMETRY` (``gc --dry-run``
        must observe without mutating).
        """
        return [(key, self._read(key)[0]) for key in self.keys()]

    def gc(self, *, toolchain: str | None = None, dry_run: bool = False) -> list[str]:
        """Drop invalid records and valid ones no job key derives to any
        more: records of the retired functional-job mode, plus those recorded
        under a different toolchain fingerprint when *toolchain* is given
        (their keys embed the old fingerprint).  Returns the dropped keys."""
        dropped = []
        for key, record in self.entries():
            spec = record.get("spec", {}) if record is not None else {}
            stale = (
                record is None
                or spec.get("mode", "timing") != "timing"
                or (toolchain is not None and spec.get("toolchain") != toolchain)
            )
            if not stale:
                continue
            dropped.append(key)
            if not dry_run:
                self.path(key).unlink(missing_ok=True)
        return dropped

    def clear(self) -> tuple[int, int]:
        """Remove every record and every quarantined file; returns how many
        of each were removed."""
        records = [self.path(key) for key in self.keys()]
        quarantined = self._quarantined()
        for path in records + quarantined:
            path.unlink(missing_ok=True)
        return len(records), len(quarantined)
