"""Simulation run results and derived metrics (speedup, error, KIPS).

:class:`SimulationResult` is a thin view over the engine's stats registry:
the engine attaches a ``registry_factory`` at build time, and ``stats`` (the
registry's flat dump) and ``stats_sha256`` (its digest) materialise lazily on
first access — callers that never look at stats (the perf benches) pay none
of the dump cost.  The summary fields read the same component attributes the
registry's sources are bound to, so the two views cannot drift
(``tests/core/test_stats_integration.py`` pins the agreement).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.host.costmodel import HOST_UNIT_SECONDS
from repro.violations.detect import ViolationCounters

__all__ = ["SimulationResult", "CoreResult"]


@dataclass
class CoreResult:
    """Per-core outcome."""

    core_id: int
    committed: int
    cycles: int
    final_time: int
    l1_accesses: int
    l1_misses: int

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


@dataclass
class SimulationResult:
    """Everything a run produced."""

    scheme: str
    host_cores: int
    seed: int
    completed: bool
    #: Target execution time: last workload-thread exit (completed runs) or
    #: global time at truncation.
    execution_cycles: int
    global_time: int
    instructions: int
    host_time: float
    host_busy: float
    cores: list[CoreResult] = field(default_factory=list)
    violations: ViolationCounters = field(default_factory=ViolationCounters)
    output: list = field(default_factory=list)
    requests: int = 0
    barriers: int = 0
    lock_acquires: int = 0
    lock_contended: int = 0
    engine_steps: int = 0
    #: Zero-arg callable yielding the run's stats registry; resolved lazily
    #: so the registry/dump/digest cost stays off the simulate fast path.
    registry_factory: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._registry = None
        self._stats = None
        self._digest = None

    @property
    def registry(self):
        """The run's live stats registry (None for hand-built results)."""
        if self._registry is None and self.registry_factory is not None:
            self._registry = self.registry_factory()
        return self._registry

    @property
    def stats(self) -> dict:
        """Flat ``{dotted_path: value}`` dump of the run's stats registry,
        materialised on first access and cached."""
        if self._stats is None:
            reg = self.registry
            self._stats = reg.dump() if reg is not None else {}
        return self._stats

    @property
    def stats_sha256(self) -> str:
        """Digest of the registry's digest-marked stats (determinism
        fingerprint), computed on first access and cached."""
        if self._digest is None:
            reg = self.registry
            self._digest = reg.stats_digest() if reg is not None else ""
        return self._digest

    # ------------------------------------------------------------ derived
    @property
    def host_seconds(self) -> float:
        return self.host_time * HOST_UNIT_SECONDS

    @property
    def kips(self) -> float:
        """Simulated kilo-instructions per modeled host second (Table 2)."""
        return self.instructions / self.host_seconds / 1000.0 if self.host_time else 0.0

    @property
    def host_utilization(self) -> float:
        return self.host_busy / (self.host_time * self.host_cores) if self.host_time else 0.0

    # ------------------------------------------------------------- registry
    def dump_json(self) -> str:
        """Full stats document (meta + stats + snapshots + digest), sorted."""
        meta = {
            "scheme": self.scheme,
            "seed": self.seed,
            "host_cores": self.host_cores,
            "completed": self.completed,
        }
        if self.registry is not None:
            return self.registry.dump_json(meta=meta)
        doc = {
            "meta": meta,
            "digest": self.stats_sha256,
            "stats": dict(sorted(self.stats.items())),
            "snapshots": [],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def dump_csv(self) -> str:
        """``stat,value`` lines of the registry dump, sorted by path."""
        from repro.stats.registry import dump_to_csv

        return dump_to_csv(self.stats)

    def int_output(self) -> list[int]:
        return [v for v in self.output if isinstance(v, int)]

    def float_output(self) -> list[float]:
        return [v for v in self.output if isinstance(v, float)]

    def summary(self) -> str:
        return (
            f"[{self.scheme} H={self.host_cores}] "
            f"T_target={self.execution_cycles} cyc, instr={self.instructions}, "
            f"T_host={self.host_time:.0f} u ({self.kips:.1f} KIPS), "
            f"util={self.host_utilization:.2f}, {self.violations.summary()}"
        )
