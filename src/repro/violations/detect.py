"""Violation taxonomy counters (paper §3.2).

The paper classifies slack-induced distortions into three families:

* **simulation-state violations** (§3.2.1, Figure 4): a shared *simulator*
  resource (bus, L2 bank, DRAM port) is granted to requests out of
  simulated-time order, so occupancy intervals can overlap in simulated time;
* **simulated-system-state violations** (§3.2.2, Figures 5-6): hardware
  bookkeeping state (directory entries) transitions in an order that differs
  from the cycle-by-cycle order;
* **workload-state violations** (§3.2.3, Figure 7): a conflicting
  Store/Load pair to the same word executes in an order that differs from
  simulated-time order, so the load observes a different value.

Counters are cheap to maintain and are asserted to be zero for conservative
schemes (cc, quantum<=critical, lookahead, oldest-first) in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ViolationCounters", "WordOrderTracker"]


@dataclass
class ViolationCounters:
    """Aggregated violation counts for one simulation run."""

    simulation_state: int = 0
    system_state: int = 0
    workload_state: int = 0
    fastforwards: int = 0
    fastforward_cycles: int = 0

    #: per-resource detail: resource name -> count
    by_resource: dict = field(default_factory=dict)

    def record_simulation_state(self, resource: str) -> None:
        self.simulation_state += 1
        self.by_resource[resource] = self.by_resource.get(resource, 0) + 1

    def record_system_state(self, resource: str = "directory") -> None:
        self.system_state += 1
        self.by_resource[resource] = self.by_resource.get(resource, 0) + 1

    def record_workload_state(self) -> None:
        self.workload_state += 1

    def record_fastforward(self, cycles: int) -> None:
        self.fastforwards += 1
        self.fastforward_cycles += cycles

    @property
    def total(self) -> int:
        return self.simulation_state + self.system_state + self.workload_state

    def summary(self) -> str:
        return (
            f"violations: simulation={self.simulation_state} "
            f"system={self.system_state} workload={self.workload_state} "
            f"fastforwards={self.fastforwards}"
        )


class WordOrderTracker:
    """Detects conflicting same-word access reordering (paper Figure 7).

    Tracks, per word address, the latest simulated time at which any core
    loaded or stored it.  A *workload-state violation* is flagged when a
    store is processed whose simulated time precedes an already-performed
    load of the same word by a different core (the load returned the old
    value although the store "happened" before it), or symmetrically a load
    processed before an already-performed earlier store.

    With fast-forwarding enabled (paper §3.2.3), the store's core is told how
    many cycles to fast-forward so the store appears contemporaneous with the
    conflicting load — "this idle time must be undetectable by the program".
    """

    __slots__ = ("counters", "fastforward", "_last_load", "_last_store")

    def __init__(self, counters: ViolationCounters, fastforward: bool = False) -> None:
        self.counters = counters
        self.fastforward = fastforward
        self._last_load: dict[int, tuple[int, int]] = {}   # addr -> (ts, core)
        self._last_store: dict[int, tuple[int, int]] = {}

    def observe_load(self, addr: int, core: int, ts: int) -> None:
        prev = self._last_load.get(addr)
        if prev is None or ts > prev[0]:
            self._last_load[addr] = (ts, core)
        last_store = self._last_store.get(addr)
        if last_store is not None and last_store[1] != core and last_store[0] > ts:
            # A store with a *later* timestamp was already performed: this
            # load reads the new value although it is in the store's past.
            self.counters.record_workload_state()

    def observe_store(self, addr: int, core: int, ts: int) -> int:
        """Record a store; returns fast-forward cycles for the storing core
        (0 unless fast-forwarding is enabled and a violation was detected)."""
        last_load = self._last_load.get(addr)
        ff = 0
        if last_load is not None and last_load[1] != core and last_load[0] >= ts:
            self.counters.record_workload_state()
            if self.fastforward:
                ff = last_load[0] - ts + 1
                self.counters.record_fastforward(ff)
                ts += ff
        prev = self._last_store.get(addr)
        if prev is None or ts > prev[0]:
            self._last_store[addr] = (ts, core)
        return ff
