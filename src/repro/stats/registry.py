"""A run's stats dump and the pure functions over it.

A run's statistics are one flat ``{dotted path: value}`` dict
(``core3.l1d.misses``, ``manager.gq.max_depth``,
``scheme.slack_cycles.count``), rendered by the engine at dump time
(``SequentialEngine.render_stats``) as two disjoint dicts: the stats the
digest covers and the stats it leaves out.  This is the gem5-style stats
discipline parti-gem5 and ScaleSimulator lean on: compare synchronization
schemes apples-to-apples by dumping *one* deterministic document per run
instead of hand-copying ad-hoc attributes.

Design constraints (DESIGN.md §7):

* **Zero hot-path cost.**  Components keep their plain counter attributes
  (``stats.accesses += 1``) and the engine reads them only when it renders
  the dump.  The one stat fed during the run is :class:`Distribution`,
  whose ``add`` is O(1) integer bucketing at batch granularity.
* **Determinism.**  A dump is sorted by path; documents and CSV render with
  sorted keys; floats digest via ``float.hex`` so :func:`stats_digest` is
  byte-identical across stepping modes, dispatch modes and sweep job
  counts (pinned by the golden tests).

This module holds only functions of dumps: the digest, the JSON document,
CSV, load, diff and render.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterator, Mapping

from repro.stats.tables import Table

__all__ = [
    "Distribution",
    "StatError",
    "canonical_value",
    "diff_dumps",
    "dump_to_csv",
    "flat_dump",
    "load_dump",
    "load_dump_with_digest",
    "render_dump",
    "stats_digest",
    "stats_document",
]


class StatError(ValueError):
    """Bad sample or malformed dump."""


def canonical_value(value: Any) -> str:
    """Bit-exact canonical rendering for digests (floats via ``hex``)."""
    if isinstance(value, bool):
        return repr(int(value))
    if isinstance(value, float):
        return float(value).hex()
    return repr(value)


class Distribution:
    """Log2-bucketed histogram of non-negative integer samples.

    ``add`` is O(1): one ``bit_length`` bucket increment plus running
    count/sum/min/max — cheap enough for batch-granularity sampling (never
    per simulated cycle).  Bucket ``k`` counts samples with
    ``bit_length() == k``, i.e. values in ``[2**(k-1), 2**k)`` (bucket 0 is
    exactly the zero samples).
    """

    _MAX_BUCKET = 64
    __slots__ = ("path", "count", "total", "_min", "_max", "buckets")

    def __init__(self, path: str) -> None:
        self.path = path
        self.count = 0
        self.total = 0
        self._min = 0
        self._max = 0
        self.buckets = [0] * (self._MAX_BUCKET + 1)

    def add(self, value: int) -> None:
        if value < 0:
            raise StatError(f"{self.path}: negative sample {value}")
        if self.count == 0 or value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self.count += 1
        self.total += value
        bucket = value.bit_length()
        self.buckets[bucket if bucket < self._MAX_BUCKET else self._MAX_BUCKET] += 1

    def entries(self) -> Iterator[tuple[str, Any]]:
        """``(dotted path, value)`` pairs; empty buckets are left out."""
        yield f"{self.path}.count", self.count
        yield f"{self.path}.sum", self.total
        yield f"{self.path}.min", self._min
        yield f"{self.path}.max", self._max
        for k, n in enumerate(self.buckets):
            if n:
                yield f"{self.path}.bucket{k}", n


# ----------------------------------------------------------------- documents
def flat_dump(*parts: Mapping[str, Any]) -> dict[str, Any]:
    """One ``{path: value}`` dict of disjoint stat dicts, in sorted path order."""
    out: dict[str, Any] = {}
    for part in parts:
        out.update(part)
    if len(out) != sum(map(len, parts)):
        raise StatError("a stat path is in more than one dict")
    return dict(sorted(out.items()))


def stats_digest(stats: Mapping[str, Any]) -> str:
    """SHA-256 over the sorted ``path=value`` lines of *stats* (the dict the
    digest covers), values rendered by :func:`canonical_value`."""
    h = hashlib.sha256()
    for line in sorted(f"{path}={canonical_value(value)}\n" for path, value in stats.items()):
        h.update(line.encode())
    return h.hexdigest()


def stats_document(
    meta: Mapping[str, Any], digest: str, stats: Mapping[str, Any], snapshots: list
) -> str:
    """The run's stats document: meta, digest, full dump and snapshots."""
    doc = {"meta": dict(meta), "digest": digest, "stats": stats, "snapshots": snapshots}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dump_to_csv(stats: Mapping[str, Any]) -> str:
    """``stat,value`` lines in sorted path order (floats via ``repr``)."""
    lines = ["stat,value"]
    for path in sorted(stats):
        value = stats[path]
        lines.append(f"{path},{repr(value) if isinstance(value, float) else value}")
    return "\n".join(lines) + "\n"


def load_dump(path: str) -> dict[str, Any]:
    """Read a stats document (or bare flat dict) from a JSON file."""
    return load_dump_with_digest(path)[0]


def load_dump_with_digest(path: str) -> tuple[dict[str, Any], str | None]:
    """Read a stats document plus its recorded digest, if any.

    Bare flat dicts (no document wrapper) carry no digest and return
    ``None`` — callers comparing digests must treat that as "unknown", not
    "equal".
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StatError(f"cannot read {path}: {exc.strerror}") from None
    if not isinstance(doc, dict):
        raise StatError(f"{path}: expected a JSON object")
    stats = doc.get("stats", doc)
    if not isinstance(stats, dict):
        raise StatError(f"{path}: malformed stats document")
    digest = doc.get("digest") if stats is not doc else None
    if digest is not None and not isinstance(digest, str):
        raise StatError(f"{path}: malformed digest field")
    return stats, digest


def diff_dumps(a: Mapping[str, Any], b: Mapping[str, Any]) -> list[str]:
    """Human-readable difference lines between two flat dumps (empty if
    identical).  Values compare canonically, so float diffs are bit-exact."""
    lines = []
    for path in sorted(set(a) | set(b)):
        if path not in a:
            lines.append(f"+ {path} = {b[path]}")
        elif path not in b:
            lines.append(f"- {path} = {a[path]}")
        elif canonical_value(a[path]) != canonical_value(b[path]):
            lines.append(f"~ {path}: {a[path]} -> {b[path]}")
    return lines


def render_dump(stats: Mapping[str, Any], *, title: str = "stats") -> str:
    """ASCII table of a flat dump (sorted paths)."""
    table = Table(title, ["stat", "value"])
    for path in sorted(stats):
        table.add_row(path, stats[path])
    return table.render()
