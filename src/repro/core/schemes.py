"""Slack simulation schemes (paper §3.1).

A scheme answers two questions for the simulation manager:

1. **How far may each core thread run?** — ``max_local(global_time)`` gives
   the window upper bound ("Global Time <= Local Time <= Max Local Time").
2. **When may a GQ request be serviced?** — the ``gq_policy``:

   * ``immediate``: service requests in arrival order as soon as the manager
     sees them (bounded / unbounded slack);
   * ``barrier``: service only when every active core has exhausted its
     window, i.e. at the quantum barrier (cycle-by-cycle, quantum-based);
   * ``oldest``: service strictly in timestamp order and only once global
     time has reached a request's timestamp (lookahead, oldest-first bounded
     slack) — conservative, violation-free when slack <= critical latency.

Scheme strings: ``cc``, ``q10``, ``aq10-160``, ``l10``, ``s9``, ``s9*``,
``s100``, ``su`` (any integer parameter is accepted).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Scheme",
    "CycleByCycle",
    "QuantumBased",
    "AdaptiveQuantum",
    "Lookahead",
    "BoundedSlack",
    "OldestFirstBoundedSlack",
    "UnboundedSlack",
    "parse_scheme",
    "INFINITY",
]

#: Effectively-unbounded max local time.
INFINITY = 1 << 62


@dataclass
class Scheme:
    """Base class: a scheme's window rule and request policy.  Subclasses add
    their parameters; :class:`AdaptiveQuantum` also moves its barrier as the
    run goes (:meth:`AdaptiveQuantum.adapt`)."""

    name: str
    #: "immediate" | "barrier" | "oldest"
    gq_policy: str
    #: Window size in cycles (INFINITY for unbounded).
    slack: int

    def max_local(self, global_time: int) -> int:
        """Upper bound on every core's local time given the current global."""
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.name} (policy={self.gq_policy}, slack={self.slack if self.slack < INFINITY else 'inf'})"


class CycleByCycle(Scheme):
    """0 slack: all threads synchronize after every simulated cycle (the
    accuracy gold standard, Figure 2a)."""

    def __init__(self) -> None:
        super().__init__(name="cc", gq_policy="barrier", slack=1)

    def max_local(self, global_time: int) -> int:
        return global_time + 1


class QuantumBased(Scheme):
    """Barrier every *quantum* cycles (WWT-II style, Figure 2b)."""

    def __init__(self, quantum: int) -> None:
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        super().__init__(name=f"q{quantum}", gq_policy="barrier", slack=quantum)
        self.quantum = quantum

    def max_local(self, global_time: int) -> int:
        q = self.quantum
        return (global_time // q + 1) * q


class AdaptiveQuantum(Scheme):
    """Extension (paper §5, after Falcón et al. [8]): a barrier quantum that
    adapts to inter-core traffic.  When few requests cross a quantum the
    barrier interval doubles (less synchronization); when traffic is dense it
    halves back toward the minimum.  Not conservative: the quantum may grow
    past the critical latency, delaying event visibility — the adaptive
    trade-off the related work reports ("dramatic speedup with less than 5%
    error").

    Spec string: ``aqMIN-MAX`` (e.g. ``aq10-160``).
    """

    def __init__(self, min_quantum: int, max_quantum: int) -> None:
        if not 1 <= min_quantum <= max_quantum:
            raise ValueError("need 1 <= min_quantum <= max_quantum")
        super().__init__(
            name=f"aq{min_quantum}-{max_quantum}",
            gq_policy="barrier",
            slack=max_quantum,
        )
        self.min_quantum = min_quantum
        self.max_quantum = max_quantum
        self.current_quantum = min_quantum
        # The barrier point must be an *absolute* boundary: if it were
        # global-relative it would slide with every global-time update and
        # the barrier would never complete (requests would starve).
        self.next_boundary = min_quantum
        #: Requests per quantum cycle above which the quantum shrinks /
        #: below which it grows (hysteresis band).
        self.dense_rate = 0.10
        self.sparse_rate = 0.02

    def max_local(self, global_time: int) -> int:
        return self.next_boundary

    def adapt(self, requests: int, quantum_cycles: int) -> None:
        """Manager feedback hook, called at each barrier: pick the next
        quantum from the observed request rate, then move the boundary."""
        if quantum_cycles <= 0:
            quantum_cycles = self.current_quantum
        rate = requests / quantum_cycles
        q = self.current_quantum
        if rate > self.dense_rate:
            q = max(self.min_quantum, q // 2)
        elif rate < self.sparse_rate:
            q = min(self.max_quantum, q * 2)
        self.current_quantum = q
        self.next_boundary += q


class Lookahead(Scheme):
    """Chandy-Misra-style conservative lookahead (Figure order §3.1): cores
    may run up to the oldest unprocessed event plus the lookahead; requests
    are processed in timestamp order when global time reaches them."""

    def __init__(self, lookahead: int) -> None:
        if lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        super().__init__(name=f"l{lookahead}", gq_policy="oldest", slack=lookahead)
        self.lookahead = lookahead

    def max_local(self, global_time: int, oldest_pending_ts: int | None = None) -> int:
        base = global_time if oldest_pending_ts is None else min(global_time, oldest_pending_ts)
        return base + self.lookahead


class BoundedSlack(Scheme):
    """The paper's proposal (Figure 2c): sliding window [Tg, Tg+S] with no
    barriers; requests serviced immediately in arrival order."""

    def __init__(self, slack: int) -> None:
        if slack < 1:
            raise ValueError("slack must be >= 1")
        super().__init__(name=f"s{slack}", gq_policy="immediate", slack=slack)

    def max_local(self, global_time: int) -> int:
        return global_time + self.slack


class OldestFirstBoundedSlack(Scheme):
    """Bounded slack + timestamp-ordered request processing at global time
    (the paper's S*; conservative when slack < critical latency)."""

    def __init__(self, slack: int) -> None:
        if slack < 1:
            raise ValueError("slack must be >= 1")
        super().__init__(name=f"s{slack}*", gq_policy="oldest", slack=slack)

    def max_local(self, global_time: int) -> int:
        return global_time + self.slack


class UnboundedSlack(Scheme):
    """No synchronization at all (Figure 2d): the extreme case."""

    def __init__(self) -> None:
        super().__init__(name="su", gq_policy="immediate", slack=INFINITY)

    def max_local(self, global_time: int) -> int:
        return INFINITY


_SCHEME_RE = re.compile(r"^(cc|su|aq(\d+)-(\d+)|q(\d+)|l(\d+)|s(\d+)(\*)?)$")


def parse_scheme(spec: str | Scheme) -> Scheme:
    """Parse a scheme spec string (``cc``/``qN``/``aqMIN-MAX``/``lN``/``sN``/``sN*``/``su``)."""
    if isinstance(spec, Scheme):
        return spec
    m = _SCHEME_RE.match(spec.strip().lower())
    if not m:
        raise ValueError(
            f"bad scheme {spec!r}: expected cc, qN, aqMIN-MAX, lN, sN, sN* or su"
        )
    if m.group(1) == "cc":
        return CycleByCycle()
    if m.group(1) == "su":
        return UnboundedSlack()
    if m.group(2):
        return AdaptiveQuantum(int(m.group(2)), int(m.group(3)))
    if m.group(4):
        return QuantumBased(int(m.group(4)))
    if m.group(5):
        return Lookahead(int(m.group(5)))
    slack = int(m.group(6))
    return OldestFirstBoundedSlack(slack) if m.group(7) else BoundedSlack(slack)
