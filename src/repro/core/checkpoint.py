"""Checkpoint/restore for the sequential engine (DESIGN.md §8).

A checkpoint is one pickle of the *whole* :class:`SequentialEngine` taken at
a manager-step boundary — the only points where every core thread is between
turns.  The run loop's state (the host-ready heap, suspend/park flags, host
availability, manager dirtiness) lives on the engine, and ``run()``'s
``sync_stats`` writes its scalars back before the dump, so the pickle is the
engine and nothing else: a restored ``run()`` reads the same attributes a
fresh one does.

**Restore equivalence** is the contract (pinned by
``tests/core/test_checkpoint.py`` against the checkpoint goldens): a run
that is checkpointed, discarded, restored and finished produces the same
stats digest — including bit-exact modeled host times — as the same run left
uninterrupted.  Checkpointing itself is behaviour-free: enabling it does not
change any digest.

What makes the engine picklable (each site documents its own hook):

* ``TargetMemory`` re-derives its float view over the word array;
* ``Program`` / the core models drop their memoised predecode closures and
  re-derive them on restore;
* the engine drops its experiment probe, and the system emulation its spawn
  hook (bound by ``run()``).

The engine's stats are plain data — the slack histogram and the interval
snapshots taken so far — so they travel in the pickle: a restored run's
stats document equals the uninterrupted run's, snapshots included.

Nothing outside the engine is saved: every queue breaks its timestamp ties
by its own push count, a plain int pickled with the queue, so event order
survives a process boundary with the engine itself.

A checkpoint is a pickle of engine internals, so the layout of every class
in it matters.  The file is a small header pickle — the sha256 of every
``.py`` file of the package (:func:`source_fingerprint`) — followed by the
engine pickle.  A restore under other source bytes is refused from the
header, before any engine class is unpickled.

Fault-injected runs cannot be checkpointed: fault hooks are closures
installed over engine seams, and a restored run would silently lose them.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from repro._util import atomic_write_bytes, source_digest
from repro.core.engine import EngineError, SequentialEngine

__all__ = ["CheckpointError", "load_checkpoint", "save_checkpoint", "source_fingerprint"]

_fingerprint: str | None = None


class CheckpointError(EngineError):
    """A checkpoint could not be written or restored."""


def source_fingerprint() -> str:
    """SHA-256 over every ``.py`` file of the package (memoised per process)."""
    global _fingerprint
    if _fingerprint is None:
        root = Path(__file__).resolve().parents[1]
        _fingerprint = source_digest(
            root, sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py"))
        )
    return _fingerprint


def save_checkpoint(engine: SequentialEngine, path: str) -> None:
    """Atomically write *engine* (mid-run or idle) to *path*.

    Called by the run loop at manager-step boundaries; also usable directly
    on a freshly built engine (a "time zero" checkpoint).
    """
    if engine.faults is not None:
        raise CheckpointError(
            "cannot checkpoint a fault-injected run: fault hooks are closures "
            "over engine seams and would not survive a restore"
        )
    header = {"source": source_fingerprint()}
    try:
        blob = pickle.dumps(header) + pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable attribute — name it, don't truncate
        raise CheckpointError(f"engine state is not picklable: {exc}") from exc
    atomic_write_bytes(path, blob)


def load_checkpoint(path: str) -> SequentialEngine:
    """Load a checkpoint; the returned engine's ``run()`` resumes the run."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    with fh:
        try:
            header = pickle.load(fh)
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
            # Not a pickle, or one naming classes this build does not have.
            raise CheckpointError(f"{path} is not a checkpoint file: {exc}") from exc
        if not isinstance(header, dict) or "source" not in header:
            raise CheckpointError(f"{path} is not a checkpoint file of this build")
        if header["source"] != source_fingerprint():
            raise CheckpointError(
                f"{path}: checkpoint written under source "
                f"{str(header['source'])[:12]}, this build is "
                f"{source_fingerprint()[:12]}; restart the run"
            )
        try:
            engine = pickle.load(fh)
        except (pickle.UnpicklingError, EOFError) as exc:
            raise CheckpointError(f"{path} is a truncated checkpoint: {exc}") from exc
    return engine
