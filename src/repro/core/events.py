"""Event types flowing through the OutQ / InQ / GQ queues (paper Figure 1).

Core threads emit *requests* (L1 miss service: GETS/GETX/UPGRADE, and PUTM
writebacks) into their OutQ.  The manager drains OutQs into the GQ,
services requests against the shared memory system, and pushes *responses*
(data + granted MESI state) and *coherence messages* (invalidate/downgrade)
into core InQs.  "In each entry, a timestamp records the time ... an event
initiates and should take effect."

The timestamp is all an event carries for ordering: each queue breaks its
own timestamp ties by its own push count (:mod:`repro.core.queues`).  The
kinds (:class:`EvKind`) and grants (:class:`~repro.mem.directory.MESI`) are
the directory's own vocabulary, so a request reaches the memory system and a
grant reaches the L1 untranslated.  :class:`Event` is a ``__slots__``
dataclass — millions of events are created per run, so per-instance dict
overhead is worth eliminating.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.directory import MESI, EvKind

__all__ = ["EvKind", "Event"]


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
    #: For RESPONSE: the MESI state granted to the requester's L1.
    grant: MESI | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind.label} core={self.core} addr={self.addr:#x} ts={self.ts}>"
