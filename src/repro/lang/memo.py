"""Per-process memo over the on-disk compile cache (DESIGN.md §6).

:func:`repro.lang.compiler.compile_source` unpickles a *new* ``Program``
per call, and everything derived from a Program rides on the object itself
(the predecoded closure tables and the timing superblocks,
:mod:`repro.cpu.predecode`) — so a process that runs many short jobs on the
same few workloads (a serve worker, a sweep pool worker, the daemon keying
submissions) re-derived all of it per job.  ``compile_source`` here is the
package's public entry point (``repro.lang.compile_source``): it hands back
the *same* :class:`CompiledProgram` for the same compile-cache entry, so
the derived tables survive from one job to the next.

The memo is keyed by the absolute path of the on-disk entry — source, name,
toolchain fingerprint, Python version *and* cache directory — so it can
only answer where the disk cache would have: ``cache=False``, a disabled
cache (``REPRO_CACHE_DIR=""``) and a different cache directory all bypass
it.  Sharing is safe because a Program is frozen and its derived tables
are stateless between calls; the N cores of one engine already share them.

This lives beside ``compiler.py`` rather than in it on purpose: that
file's bytes are part of the toolchain fingerprint, and so of every job
key and cache key — a cache-policy edit there would orphan every stored
result.
"""

from __future__ import annotations

import os
import threading

from repro.lang import compiler
from repro.lang.compiler import CompiledProgram

__all__ = ["compile_source"]

#: Entries kept per process; the oldest is dropped first.  A sweep or a
#: serve mix touches a handful of programs, far below this.
_MEMO_MAX = 16

_memo: dict[str, CompiledProgram] = {}
_lock = threading.Lock()  # the daemon keys submissions on several threads


def compile_source(
    source: str, *, name: str = "<slang>", cache: bool = True
) -> CompiledProgram:
    """:func:`repro.lang.compiler.compile_source`, memoised per process.

    Two calls that name the same on-disk cache entry return the identical
    object (one disk read, or one compile, per process); without a disk
    cache every call compiles afresh, exactly as before.
    """
    directory = compiler.cache_dir() if cache else None
    if directory is None:
        return compiler.compile_source(source, name=name, cache=cache)
    path = os.path.abspath(directory / f"{compiler._cache_key(source, name)}.pkl")
    with _lock:
        compiled = _memo.get(path)
        if compiled is None:
            compiled = _memo[path] = compiler.compile_source(source, name=name)
            if len(_memo) > _MEMO_MAX:
                del _memo[next(iter(_memo))]
    return compiled
