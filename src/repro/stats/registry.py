"""Hierarchical statistics registry: one instrumentation layer for the stack.

Every instrumented layer — engine and host model, core threads and schemes,
the timing cores with their L1s, the manager-side memory system, the
violation counters — registers its statistics into one tree of groups,
addressed by dotted paths (``core3.l1d.misses``, ``manager.gq.max_depth``,
``scheme.slack_cycles.count``).  This is the gem5-style stats discipline
parti-gem5 and ScaleSimulator lean on: compare synchronization schemes
apples-to-apples by dumping *one* deterministic document per run instead of
hand-copying ad-hoc attributes.

Design constraints (DESIGN.md §7):

* **Zero hot-path cost.**  Components keep their plain counter attributes
  (``stats.accesses += 1``); the registry binds *sources* — zero-argument
  callables resolved only at dump time.  The simulate loop never pays a
  registry call.  The one exception is :class:`Distribution`, whose ``add``
  is O(1) integer bucketing and is only called at batch granularity.
* **Determinism.**  ``dump()`` is a flat ``{path: value}`` dict in sorted
  path order; ``dump_json``/``dump_to_csv`` render with sorted keys; floats
  digest via ``float.hex`` so :meth:`StatsRegistry.stats_digest` is
  byte-identical across stepping modes, dispatch modes and sweep job
  counts (pinned by the golden tests).
* **Typed kinds.**  :class:`Scalar` (a number, direct or sourced),
  :class:`Vector` (per-core / per-bank / per-resource expansion),
  :class:`Distribution` (log2-bucketed histogram with count/sum/min/max)
  and :class:`Formula` (derived value evaluated at dump time; excluded
  from the digest by default because it is redundant with its operands).

Per-interval snapshotting: :meth:`StatsRegistry.snapshot` records a full
dump under a label (the engine calls it every ``--stats-interval N`` target
cycles), giving a time series of slack behaviour without touching the
per-cycle path.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Distribution",
    "Formula",
    "Scalar",
    "Stat",
    "StatError",
    "StatsGroup",
    "StatsRegistry",
    "Vector",
    "canonical_value",
    "diff_dumps",
    "load_dump",
    "render_dump",
]

#: Characters allowed in one path component (brackets admit resource names
#: like ``l2bank[3]``; ``*`` admits scheme names like ``s9*``).
_COMPONENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-[]*")


class StatError(ValueError):
    """Bad path, duplicate registration, or malformed dump."""


def _check_component(name: str) -> str:
    if not name or not set(name) <= _COMPONENT_OK:
        raise StatError(f"bad stat path component {name!r}")
    return name


def canonical_value(value: Any) -> str:
    """Bit-exact canonical rendering for digests (floats via ``hex``)."""
    if isinstance(value, bool):
        return repr(int(value))
    if isinstance(value, float):
        return float(value).hex()
    return repr(value)


# --------------------------------------------------------------------- kinds
class Stat:
    """Base class: one named statistic contributing dump entries."""

    kind = "stat"
    __slots__ = ("path", "desc", "digest")

    def __init__(self, path: str, desc: str = "", digest: bool = True) -> None:
        self.path = path
        self.desc = desc
        self.digest = digest

    def entries(self) -> Iterator[tuple[str, Any]]:
        """Yield ``(dotted_path, value)`` pairs, deterministically ordered."""
        raise NotImplementedError


class Scalar(Stat):
    """A single number: either a direct value (``set``/``add``) or a bound
    zero-argument *source* resolved at dump time."""

    kind = "scalar"
    __slots__ = ("_value", "_source")

    def __init__(
        self,
        path: str,
        *,
        source: Callable[[], Any] | None = None,
        value: Any = 0,
        desc: str = "",
        digest: bool = True,
    ) -> None:
        super().__init__(path, desc, digest)
        self._source = source
        self._value = value

    @property
    def value(self) -> Any:
        return self._source() if self._source is not None else self._value

    def set(self, value: Any) -> None:
        if self._source is not None:
            raise StatError(f"{self.path}: cannot set a sourced scalar")
        self._value = value

    def add(self, delta: Any = 1) -> None:
        if self._source is not None:
            raise StatError(f"{self.path}: cannot add to a sourced scalar")
        self._value += delta

    def entries(self) -> Iterator[tuple[str, Any]]:
        yield self.path, self.value


class Formula(Stat):
    """A derived value computed at dump time from other components' state.

    Excluded from the digest by default: formulas are redundant with their
    operands and float division is the one place a representation change
    could perturb bytes without a behavioural change.
    """

    kind = "formula"
    __slots__ = ("_fn",)

    def __init__(
        self,
        path: str,
        fn: Callable[[], Any],
        *,
        desc: str = "",
        digest: bool = False,
    ) -> None:
        super().__init__(path, desc, digest)
        self._fn = fn

    @property
    def value(self) -> Any:
        try:
            return self._fn()
        except ZeroDivisionError:
            return 0.0

    def entries(self) -> Iterator[tuple[str, Any]]:
        yield self.path, self.value


class Vector(Stat):
    """Per-index expansion: the source yields a sequence or mapping and each
    element dumps as ``path.<index>`` / ``path.<key>`` (keys sorted)."""

    kind = "vector"
    __slots__ = ("_source",)

    def __init__(
        self,
        path: str,
        source: Callable[[], Sequence[Any] | Mapping[str, Any]],
        *,
        desc: str = "",
        digest: bool = True,
    ) -> None:
        super().__init__(path, desc, digest)
        self._source = source

    def entries(self) -> Iterator[tuple[str, Any]]:
        data = self._source()
        if isinstance(data, Mapping):
            items: Iterable[tuple[str, Any]] = sorted(
                (str(k), v) for k, v in data.items()
            )
        else:
            items = ((str(i), v) for i, v in enumerate(data))
        for key, value in items:
            yield f"{self.path}.{_check_component(key)}", value


class Distribution(Stat):
    """Log2-bucketed histogram of non-negative integer samples.

    ``add`` is O(1): one ``bit_length`` bucket increment plus running
    count/sum/min/max — cheap enough for batch-granularity sampling (never
    per simulated cycle).  Bucket ``k`` counts samples with
    ``bit_length() == k``, i.e. values in ``[2**(k-1), 2**k)`` (bucket 0 is
    exactly the zero samples).
    """

    kind = "distribution"
    _MAX_BUCKET = 64
    __slots__ = ("count", "total", "_min", "_max", "buckets")

    def __init__(self, path: str, *, desc: str = "", digest: bool = True) -> None:
        super().__init__(path, desc, digest)
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
        yield f"{self.path}.count", self.count
        yield f"{self.path}.sum", self.total
        yield f"{self.path}.min", self._min
        yield f"{self.path}.max", self._max
        for k, n in enumerate(self.buckets):
            if n:
                yield f"{self.path}.bucket{k}", n


# --------------------------------------------------------------------- tree
class StatsGroup:
    """One node of the tree; fabricates stats under its dotted prefix into
    the ``{path: stat}`` table every group of one registry shares."""

    __slots__ = ("_stats", "_prefix")

    def __init__(self, stats: dict[str, Stat], prefix: str) -> None:
        self._stats = stats
        self._prefix = prefix

    @property
    def path(self) -> str:
        return self._prefix

    def _child_path(self, name: str) -> str:
        for component in name.split("."):
            _check_component(component)
        return f"{self._prefix}.{name}" if self._prefix else name

    def _register(self, stat: Stat) -> Stat:
        if stat.path in self._stats:
            raise StatError(f"duplicate stat path {stat.path!r}")
        self._stats[stat.path] = stat
        return stat

    def group(self, name: str) -> "StatsGroup":
        return StatsGroup(self._stats, self._child_path(name))

    def scalar(self, name: str, **kwargs) -> Scalar:
        return self._register(Scalar(self._child_path(name), **kwargs))

    def formula(self, name: str, fn: Callable[[], Any], **kwargs) -> Formula:
        return self._register(Formula(self._child_path(name), fn, **kwargs))

    def vector(self, name: str, source, **kwargs) -> Vector:
        return self._register(Vector(self._child_path(name), source, **kwargs))


class StatsRegistry(StatsGroup):
    """The root group plus dump/digest/snapshot machinery."""

    __slots__ = ("snapshots",)

    def __init__(self) -> None:
        super().__init__({}, "")
        self.snapshots: list[dict] = []

    def get(self, path: str) -> Stat:
        try:
            return self._stats[path]
        except KeyError:
            raise StatError(f"unknown stat path {path!r}") from None

    def stats(self) -> list[Stat]:
        """All registered stats in sorted path order."""
        return [self._stats[p] for p in sorted(self._stats)]

    # --------------------------------------------------------------- dumps
    def dump(self) -> dict[str, Any]:
        """Flat ``{dotted_path: value}`` in sorted path order."""
        out: dict[str, Any] = {}
        for stat in self._stats.values():
            for path, value in stat.entries():
                out[path] = value
        return dict(sorted(out.items()))

    def stats_digest(self) -> str:
        """SHA-256 over the canonical rendering of all digest-marked stats.

        Byte-identical across stepping modes, dispatch modes and sweep job
        counts; host-scheduler implementation details and derived formulas
        register with ``digest=False`` and are excluded.
        """
        lines = []
        for stat in self._stats.values():
            if not stat.digest:
                continue
            for path, value in stat.entries():
                lines.append(f"{path}={canonical_value(value)}\n")
        h = hashlib.sha256()
        for line in sorted(lines):
            h.update(line.encode())
        return h.hexdigest()

    def snapshot(self, label: Any) -> dict:
        """Record the current dump under *label* (e.g. the global time)."""
        snap = {"label": label, "stats": self.dump()}
        self.snapshots.append(snap)
        return snap

    def dump_json(self, *, meta: Mapping[str, Any] | None = None) -> str:
        doc = {
            "meta": dict(meta or {}),
            "digest": self.stats_digest(),
            "stats": self.dump(),
            "snapshots": self.snapshots,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------- documents
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
    from repro.stats.tables import Table

    table = Table(title, ["stat", "value"])
    for path in sorted(stats):
        table.add_row(path, stats[path])
    return table.render()
