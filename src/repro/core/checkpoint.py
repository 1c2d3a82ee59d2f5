"""Checkpoint/restore for the sequential engine (DESIGN.md §8).

A checkpoint is one pickle of the *whole* :class:`SequentialEngine` taken at
a manager-step boundary — the only points where every core thread is between
turns, so the run loop's transient state collapses to a small snapshot of
hoisted locals (the host-ready heap, suspend/park flags, manager dirtiness)
that ``SequentialEngine._write_checkpoint`` stashes on the engine for the
duration of the dump.  Restoring unpickles the engine, fast-forwards the
global event sequence counter, and ``run()`` resumes from the recorded
locals.

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
* the engine drops its lazily-built stats registry (dump-time lambdas) and
  experiment probe, and the system emulation its spawn hook (bound by
  ``run()``);
* the global :func:`repro.core.events.new_seq` position is saved alongside
  the engine and restored monotonically (seqs are deterministic heap
  tie-breakers, so absolute values must survive a process boundary).

Fault-injected runs cannot be checkpointed: fault hooks are closures
installed over engine seams, and a restored run would silently lose them.
"""

from __future__ import annotations

import pickle

from repro._util import atomic_write_bytes
from repro.core import events
from repro.core.engine import EngineError, SequentialEngine

__all__ = ["CHECKPOINT_FORMAT", "CheckpointError", "load_checkpoint", "save_checkpoint"]

#: Bumped whenever the payload layout changes; restores refuse mismatches
#: rather than resuming from a stale-format file.  2: the ``_resume``
#: payload lost its static-scheduler marker with the static run loop — a
#: format-1 file may have been cut by that loop.  3: ``SimConfig`` lost
#: four fields (memory domains, watchdog window, stepping, dispatch) — a
#: format-2 pickle would restore a config with stale attributes.  4: the
#: out-of-order core pickles a scoreboard (``pending``/``consumers``, a
#: completion heap, a ready list) instead of ``deps`` chains; in-order
#: pickles did not change shape, format-3 files are refused for ``ooo`` only.
#: 5: the in-order and replay cores share one pipeline class — the in-flight
#: request ``_pending`` is one ``(op, addr, block, cache)`` record for both
#: (it was ``insn``/``is_write``/``is_ifetch`` slots on the direct core and a
#: tuple on the replay core), and the system object pickles as
#: ``SystemBase`` state.  6: ``SimConfig`` lost the two heartbeat fields (the
#: serve worker samples progress from outside the engine now) — a format-5
#: pickle would restore a config with stale attributes.  7: the GQ pickles
#: one structure (its policy's FIFO or heap, no live count) and ``Event``
#: lost ``consumed`` — a format-6 GQ would restore both structures (and
#: the memory system's order tracking moved out of the bus/L2/DRAM models).
#: 8: the host model pickles one scheduler's state (no instance-bound
#: ``run``/``poll_until``, no ``_idle``/``_busy_heap``) and the system
#: emulation's spawn hook pickles as ``None`` — a format-7 pickle names host
#: methods this build no longer has.  9: the host model's ``free_at`` is a
#: heap (a format-8 pickle holds it in scan order, with ``_makespan``) and
#: the cost model pickles jitter lists, not ``_JitterStream`` objects.
CHECKPOINT_FORMAT = 9


class CheckpointError(EngineError):
    """A checkpoint could not be written or restored."""


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
    payload = {
        "format": CHECKPOINT_FORMAT,
        "seq_position": events.seq_position(),
        "engine": engine,
    }
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable attribute — name it, don't truncate
        raise CheckpointError(f"engine state is not picklable: {exc}") from exc
    atomic_write_bytes(path, blob)


def load_checkpoint(path: str) -> SequentialEngine:
    """Load a checkpoint; the returned engine's ``run()`` resumes the run."""
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except (pickle.UnpicklingError, EOFError) as exc:
        raise CheckpointError(f"{path} is not a checkpoint file: {exc}") from exc
    if not isinstance(payload, dict) or "format" not in payload:
        raise CheckpointError(f"{path} is not a checkpoint file")
    if payload["format"] != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path}: checkpoint format {payload['format']} "
            f"(this build reads format {CHECKPOINT_FORMAT})"
        )
    events.seq_advance_to(payload["seq_position"])
    return payload["engine"]
