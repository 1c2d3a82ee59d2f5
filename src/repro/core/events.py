"""Event types flowing through the OutQ / InQ / GQ queues (paper Figure 1).

Core threads emit *requests* (L1 miss service: GETS/GETX/UPGRADE, and PUTM
writebacks) into their OutQ.  The manager drains OutQs into the GQ,
services requests against the shared memory system, and pushes *responses*
(data + granted MESI state) and *coherence messages* (invalidate/downgrade)
into core InQs.  "In each entry, a timestamp records the time ... an event
initiates and should take effect."

Hot-path layout: :class:`EvKind` is an :class:`~enum.IntEnum` so kinds can
index flat dispatch tables (:data:`REQUEST_KINDS` is such a table), and
:class:`Event` is a ``__slots__`` dataclass — millions of events are created
per run, so per-instance dict overhead is worth eliminating.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.mem.directory import ReqKind

__all__ = ["EvKind", "Event", "REQUEST_KINDS", "new_seq"]


class EvKind(enum.IntEnum):
    # Core -> manager (OutQ / GQ).  Request kinds come first so table
    # indexing stays trivial.
    GETS = 0
    GETX = 1
    UPGRADE = 2
    PUTM = 3
    # Manager -> core (InQ).
    RESPONSE = 4
    INVALIDATE = 5
    DOWNGRADE = 6

    @property
    def label(self) -> str:
        return self.name.lower()


#: OutQ kinds and their directory request mapping, indexed by ``int(kind)``
#: (``None`` for the manager->core kinds).
REQUEST_KINDS: tuple[ReqKind | None, ...] = (
    ReqKind.GETS,
    ReqKind.GETX,
    ReqKind.UPGRADE,
    ReqKind.PUTM,
    None,
    None,
    None,
)

_seq_counter = itertools.count()


def new_seq() -> int:
    """Monotonic sequence number used as a deterministic tie-breaker."""
    return next(_seq_counter)


def seq_position() -> int:
    """The next value :func:`new_seq` will hand out (without consuming it).

    ``itertools.count`` exposes its position only through ``repr`` —
    ``count(42)`` — which is stable, documented behaviour; parsing it avoids
    burning a sequence number just to observe the counter.  Checkpoints
    record this so a restored process replays the exact seq stream (seqs are
    heap tie-breakers, so absolute values must line up across processes).
    """
    text = repr(_seq_counter)
    return int(text[text.index("(") + 1 : -1])


def seq_advance_to(position: int) -> None:
    """Fast-forward the global seq counter to at least *position*.

    Used by checkpoint restore.  Never rewinds: in-process restores may have
    already consumed seqs past the checkpoint, and monotonicity is the only
    property the tie-break depends on.
    """
    global _seq_counter
    if position > seq_position():
        _seq_counter = itertools.count(position)


@dataclass(slots=True)
class Event:
    """One queue entry.

    ``ts`` is the simulated time the event initiates (requests: the issuing
    core's local time) or should take effect (responses: data-ready time;
    coherence messages: directory processing time).
    """

    kind: EvKind
    addr: int
    core: int
    ts: int
    seq: int = field(default_factory=new_seq)
    #: For RESPONSE: the MESI state granted to the requester's L1.
    grant: str | None = None
    #: For RESPONSE: the seq of the request this answers.
    req_seq: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind.label} core={self.core} addr={self.addr:#x} ts={self.ts} seq={self.seq}>"
