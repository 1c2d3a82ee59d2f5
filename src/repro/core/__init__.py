"""The slack simulation engine — the paper's primary contribution.

Schemes: cycle-by-cycle (``cc``), quantum-based (``qN``), lookahead
(``lN``), bounded slack (``sN``), oldest-first bounded slack (``sN*``) and
unbounded slack (``su``).  One engine: :class:`SequentialEngine` runs the
paper's thread structure (N core threads + one manager) deterministically
on the virtual host.  The same structure on real Python threads lives in
the test harness (``tests/core/threaded_harness.py``), where it proves the
queue/clock protocol under genuine preemption.
"""

from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.corethread import BatchStats, CoreState, CoreThread
from repro.core.engine import EngineError, SequentialEngine, run_simulation
from repro.core.events import EvKind, Event
from repro.core.manager import SimulationManager
from repro.core.queues import GlobalQueue, InQ, OutQ
from repro.core.results import CoreResult, SimulationResult
from repro.core.schemes import (
    INFINITY,
    AdaptiveQuantum,
    BoundedSlack,
    CycleByCycle,
    Lookahead,
    OldestFirstBoundedSlack,
    QuantumBased,
    Scheme,
    UnboundedSlack,
    parse_scheme,
)

__all__ = [
    "HostConfig",
    "SimConfig",
    "TargetConfig",
    "BatchStats",
    "CoreState",
    "CoreThread",
    "EngineError",
    "SequentialEngine",
    "run_simulation",
    "EvKind",
    "Event",
    "SimulationManager",
    "GlobalQueue",
    "InQ",
    "OutQ",
    "CoreResult",
    "SimulationResult",
    "INFINITY",
    "AdaptiveQuantum",
    "BoundedSlack",
    "CycleByCycle",
    "Lookahead",
    "OldestFirstBoundedSlack",
    "QuantumBased",
    "Scheme",
    "UnboundedSlack",
    "parse_scheme",
]
