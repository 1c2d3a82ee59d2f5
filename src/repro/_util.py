"""Small shared utilities: deterministic RNG streams, bit manipulation,
crash-safe file output, canonical content digests.

Everything in the simulator that needs randomness seeds its own generator
from ``SimConfig.seed`` (the host cost model one per core, a fault plan one
``random.Random``), so that one seed makes the whole run reproducible (see
DESIGN.md, "Determinism").

:func:`atomic_write_bytes` / :func:`atomic_write_text` are the one
write-a-file-safely primitive shared by every artifact producer — the
cache sections (:mod:`repro.cache`), ``--stats-out`` dumps, sweep JSON
documents, checkpoints, and bench reports.  A reader can never observe a truncated
file: data lands in a same-directory tempfile first and is published with
an atomic ``os.replace``.

:func:`canonical_json` / :func:`sha256_hex` / :func:`output_digest` are the
one content-identity vocabulary shared by every cache key in the system —
job keys (DESIGN.md §12), per-point sweep seeds and output fingerprints all
derive from them, so two subsystems can never fingerprint the same value
differently.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time

import numpy as np

__all__ = [
    "Backoff",
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical_json",
    "output_digest",
    "retry_with_backoff",
    "sha256_hex",
    "sign_extend",
    "to_signed64",
    "to_unsigned64",
    "is_pow2",
    "log2i",
    "align_up",
]

_MASK64 = (1 << 64) - 1


def canonical_json(obj) -> str:
    """The one canonical JSON rendering used for digests: sorted keys, no
    whitespace.  Any structure digested through :func:`sha256_hex` must go
    through here first so that key order and formatting can never leak into
    a cache key."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(*parts: "str | bytes") -> str:
    """SHA-256 hex digest over *parts* joined by NUL separators.

    The NUL join makes the digest injective over the part boundaries
    (``("ab", "c")`` and ``("a", "bc")`` hash differently).  Strings are
    UTF-8 encoded; anything else must be rendered first (use
    :func:`canonical_json` for structures).
    """
    h = hashlib.sha256()
    for i, part in enumerate(parts):
        if i:
            h.update(b"\x00")
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def output_digest(output: list) -> str:
    """Exact fingerprint of a workload output stream (floats via hex).

    ``float.hex()`` round-trips every bit, so two streams digest equal iff
    they are value-identical — the fingerprint sweeps, job records and the
    numpy-oracle checks all compare.
    """
    h = hashlib.sha256()
    for v in output:
        h.update(v.hex().encode() if isinstance(v, float) else repr(v).encode())
        h.update(b";")
    return h.hexdigest()


def atomic_write_bytes(path: "os.PathLike[str] | str", data: bytes) -> None:
    """Write *data* to *path* atomically (same-dir tempfile + ``os.replace``).

    Either the old content or the complete new content is visible — never a
    torn intermediate, even if the process is killed mid-write.  Parent
    directories are created as needed.
    """
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=os.path.basename(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: "os.PathLike[str] | str", text: str, encoding: str = "utf-8") -> None:
    """Atomic counterpart of ``Path.write_text`` (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode(encoding))


class Backoff:
    """A jittered exponential backoff schedule.

    The one retry-pacing vocabulary shared by both recovery loops in the
    system — the worker pool supervisor's lost-worker requeues (for the
    serve daemon and a parallel sweep alike) and client reconnects
    (:func:`retry_with_backoff`) draw their delays from here, so retry
    behaviour is tuned (and tested) in one place.

    ``next()`` yields ``base * 2**attempt`` capped at *cap*, multiplied by a
    jitter factor drawn uniformly from ``[1-jitter, 1+jitter]``.  The jitter
    source is a seeded :class:`numpy.random.Generator` when *seed* is given
    (deterministic — the property tests replay exact schedules) and an
    OS-seeded one otherwise (crash recovery in production wants decorrelated
    retries, not synchronized stampedes).
    """

    def __init__(
        self,
        base: float = 0.5,
        cap: float = 8.0,
        jitter: float = 0.25,
        seed: "int | None" = None,
    ) -> None:
        self.base = float(base)
        self.cap = float(cap)
        self.jitter = float(jitter)
        self.attempt = 0
        self._rng = np.random.default_rng(seed)

    def peek(self) -> float:
        """The un-jittered delay the next ``next()`` call scales."""
        return min(self.base * (2.0 ** self.attempt), self.cap)

    def next(self) -> float:
        """Advance the schedule and return the next (jittered) delay."""
        delay = self.peek()
        self.attempt += 1
        if self.jitter:
            delay *= 1.0 + self.jitter * float(self._rng.uniform(-1.0, 1.0))
        return delay

    def reset(self) -> None:
        """Restart the schedule (call after a successful attempt)."""
        self.attempt = 0


def retry_with_backoff(
    fn,
    *,
    retries: int = 3,
    retry_on: "type[BaseException] | tuple" = Exception,
    backoff: "Backoff | None" = None,
    on_retry=None,
):
    """Call ``fn()`` up to ``1 + retries`` times, sleeping a :class:`Backoff`
    delay between attempts.

    Only exceptions matching *retry_on* are retried; anything else (and the
    final matching failure) propagates.  *on_retry*, when given, is called as
    ``on_retry(attempt, exc, delay)`` before each sleep — loggers and tests
    hook observation there rather than monkeypatching ``time.sleep``.
    """
    backoff = backoff if backoff is not None else Backoff()
    attempt = 0
    while True:
        try:
            return fn()
        except retry_on as exc:
            attempt += 1
            if attempt > retries:
                raise
            delay = backoff.next()
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            time.sleep(delay)


def sign_extend(value: int, bits: int) -> int:
    """Interpret the low *bits* of *value* as a two's-complement integer."""
    mask = (1 << bits) - 1
    value &= mask
    sign = 1 << (bits - 1)
    return value - (1 << bits) if value & sign else value


def to_signed64(value: int) -> int:
    """Wrap an arbitrary Python int into signed 64-bit two's complement."""
    value &= _MASK64
    return value - (1 << 64) if value >> 63 else value


def to_unsigned64(value: int) -> int:
    """Reinterpret a (possibly negative) int as its unsigned 64-bit pattern."""
    return value & _MASK64


def is_pow2(n: int) -> bool:
    """True if *n* is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def log2i(n: int) -> int:
    """Integer log2 of a power of two; raises ``ValueError`` otherwise."""
    if not is_pow2(n):
        raise ValueError(f"{n} is not a positive power of two")
    return n.bit_length() - 1


def align_up(value: int, alignment: int) -> int:
    """Round *value* up to the next multiple of *alignment* (a power of two)."""
    if not is_pow2(alignment):
        raise ValueError(f"alignment {alignment} is not a power of two")
    return (value + alignment - 1) & ~(alignment - 1)
