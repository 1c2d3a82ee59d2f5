"""A run's result: the stats dump is its one account.

:class:`SimulationResult` holds only what the run alone knows (completion,
output, the live violation counters, the run's stats snapshots) and reads
every number from its flat stats dump through :data:`HEADLINES`.  The dump
renders on first access, so a caller that reads no number pays none of its
cost.  The per-core rows (and the cores that ran), the summary line and the
``--stats-out`` document are functions of a dump, so a stored job record
(which carries the same dump, digest and snapshots) yields the same ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.host.costmodel import HOST_UNIT_SECONDS
from repro.stats.registry import flat_dump, stats_digest, stats_document
from repro.violations.detect import ViolationCounters

__all__ = [
    "HEADLINES", "SimulationResult", "core_rows", "kips", "ran_cores", "run_document",
    "summary_line",
]

#: Each headline attribute of a result and the dump path it reads.  A stat
#: the run does not register reads 0: trace cores register no ``sync.*``.
HEADLINES = {
    "scheme": "sim.scheme",
    "seed": "sim.seed",
    "host_cores": "sim.host_cores",
    #: Target execution time: the last workload-thread exit.
    "execution_cycles": "target.execution_cycles",
    "global_time": "target.global_time",
    "instructions": "target.instructions",
    "host_time": "host.makespan",
    "host_busy": "host.busy",
    "host_utilization": "host.utilization",
    "requests": "manager.requests",
    "barriers": "manager.barriers",
    "lock_acquires": "sync.lock_acquires",
    "lock_contended": "sync.lock_contended",
    "engine_steps": "engine.steps",
}


def kips(stats: dict) -> float:
    """Simulated kilo-instructions per modeled host second (Table 2)."""
    host_seconds = stats["host.makespan"] * HOST_UNIT_SECONDS
    return stats["target.instructions"] / host_seconds / 1000.0 if host_seconds else 0.0


def ran_cores(stats: dict) -> tuple:
    """Ids of the cores that ran.  A run runs to its end, so every activated
    core ran to its halt, and a core ran iff it clocked a cycle."""
    return tuple(
        i for i in range(stats["sim.target_cores"]) if stats.get(f"core{i}.cycles", 0) > 0
    )


def core_rows(stats: dict) -> list[dict]:
    """One row per core that ran; a core with no L1 reports zero traffic."""
    return [
        {
            "core": i,
            "committed": stats[f"core{i}.committed"],
            "cycles": stats[f"core{i}.cycles"],
            "l1_accesses": stats.get(f"core{i}.l1d.accesses", 0),
            "l1_misses": stats.get(f"core{i}.l1d.misses", 0),
        }
        for i in ran_cores(stats)
    ]


def summary_line(stats: dict) -> str:
    """The one-line run summary of a dump — a live run's or a stored one's."""
    return (
        f"[{stats['sim.scheme']} H={stats['sim.host_cores']}] "
        f"T_target={stats['target.execution_cycles']} cyc, "
        f"instr={stats['target.instructions']}, "
        f"T_host={stats['host.makespan']:.0f} u ({kips(stats):.1f} KIPS), "
        f"util={stats['host.utilization']:.2f}, "
        f"violations: simulation={stats['violations.simulation_state']} "
        f"system={stats['violations.system_state']} "
        f"workload={stats['violations.workload_state']} "
        f"fastforwards={stats['violations.fastforwards']}"
    )


def run_document(stats: dict, digest: str, snapshots: list, completed: bool) -> str:
    """The run's stats document (meta + stats + snapshots + digest), sorted:
    what ``run --stats-out`` writes for a live run and a stored record alike."""
    meta = {name: stats.get(HEADLINES[name], 0) for name in ("scheme", "seed", "host_cores")}
    meta["completed"] = completed
    return stats_document(meta, digest, stats, snapshots)


@dataclass
class SimulationResult:
    """What a run alone knows, over the stats dump that holds its numbers."""

    completed: bool
    output: list = field(default_factory=list)
    violations: ViolationCounters = field(default_factory=ViolationCounters)
    #: Zero-arg callable rendering the run's stats as two flat dicts: the
    #: stats the digest covers and the stats it leaves out.
    stats_factory: object = field(default=None, repr=False, compare=False)
    #: The run's interval snapshots, ``{"label", "stats"}`` dicts in order.
    snapshots: list = field(default_factory=list, repr=False, compare=False)

    _stats = _digest = None  # rendered on first access

    def __getattr__(self, name: str):
        path = HEADLINES.get(name)
        if path is None:
            raise AttributeError(name)
        return self.stats.get(path, 0)

    def _render(self) -> None:
        covered, left_out = self.stats_factory()
        self._stats = flat_dump(covered, left_out)
        self._digest = stats_digest(covered)

    @property
    def stats(self) -> dict:
        """Flat ``{dotted_path: value}`` dump of the run, in sorted path
        order; rendered on first access and cached."""
        if self._stats is None:
            self._render()
        return self._stats

    @property
    def stats_sha256(self) -> str:
        """Digest of the stats it covers (determinism fingerprint), computed
        on first access and cached."""
        if self._digest is None:
            self._render()
        return self._digest

    @property
    def kips(self) -> float:
        return kips(self.stats)

    @property
    def ran(self) -> tuple:
        """Ids of the cores that ran."""
        return ran_cores(self.stats)

    @property
    def cores(self) -> list[dict]:
        """Per-core rows of the cores that ran (the job record's shape)."""
        return core_rows(self.stats)

    def dump_json(self) -> str:
        """Full stats document (meta + stats + snapshots + digest), sorted."""
        return run_document(self.stats, self.stats_sha256, self.snapshots, self.completed)

    def int_output(self) -> list[int]:
        return [v for v in self.output if isinstance(v, int)]

    def summary(self) -> str:
        return summary_line(self.stats)
