"""Shared experiment plumbing: a store-backed runner over (workload, scheme,
host-cores, seed) and the standard scheme/host grids of the evaluation.

Every :meth:`Runner.run` and :meth:`Runner.point` names its request as a
sweep :class:`~repro.experiments.parallel.PointSpec` and resolves it through
the content-addressed job layer (:mod:`repro.jobs`, DESIGN.md §12):
``execute()`` serves it from ``.repro_cache/results/`` when a sealed record
exists, and either way the experiment code sees a :class:`RecordResult` —
a :class:`~repro.core.results.SimulationResult`-shaped view over the stored
record.  Re-rendering a figure or table on a warm store therefore simulates
nothing, and a ``repro sweep`` warms the exact records the single-experiment
entry points read.
"""

from __future__ import annotations

import os

from repro.workloads.base import Workload
from repro.workloads.registry import BENCHMARKS, make_workload

__all__ = [
    "RecordResult",
    "Runner",
    "SCHEMES",
    "HOST_COUNTS",
    "BENCHMARKS",
    "default_scale",
]

#: The paper's scheme set (Figure 8 legend order).
SCHEMES = ("cc", "q10", "l10", "s9", "s9*", "s100", "su")

#: Figure 8's X axis.
HOST_COUNTS = (2, 4, 8)


def default_scale() -> str:
    """Workload scale for experiments; override with REPRO_SCALE=tiny|small|paper."""
    return os.environ.get("REPRO_SCALE", "small")


class RecordResult:
    """A job-store record wearing :class:`SimulationResult`'s interface.

    Exposes the deterministic fields experiments read (metrics, the flat
    stats dump, the stats digest) whether the record came from a live run
    or straight off the store — the two are byte-identical by construction,
    so experiment code cannot tell (and must not care) which happened.
    """

    def __init__(self, record: dict) -> None:
        self.record = record

    # ------------------------------------------------------------- fields
    @property
    def completed(self) -> bool:
        return self.record["completed"]

    @property
    def execution_cycles(self) -> int:
        return self.record["metrics"]["execution_cycles"]

    @property
    def global_time(self) -> int:
        return self.record["metrics"]["global_time"]

    @property
    def instructions(self) -> int:
        return self.record["metrics"]["instructions"]

    @property
    def host_time(self) -> float:
        return self.record["metrics"]["host_time"]

    @property
    def kips(self) -> float:
        return self.record["metrics"]["kips"]

    @property
    def host_utilization(self) -> float:
        return self.record["metrics"]["host_utilization"]

    @property
    def stats(self) -> dict:
        return self.record["stats"]

    @property
    def stats_sha256(self) -> str:
        return self.record["stats_digest"]

    @property
    def output_sha256(self) -> str:
        return self.record["output_sha256"]

    @property
    def cores(self) -> list:
        return self.record["cores"]

    # ------------------------------------------------------------ derived
    def speedup_over(self, baseline) -> float:
        """Simulation speedup = baseline simulation time / this run's time."""
        if self.host_time == 0:
            return float("inf")
        return baseline.host_time / self.host_time

    def error_vs(self, gold) -> float:
        """Relative execution-time error against a gold (cc) run (Table 3)."""
        if gold.execution_cycles == 0:
            return 0.0
        return abs(self.execution_cycles - gold.execution_cycles) / gold.execution_cycles

    def summary(self) -> str:
        from repro.jobs import record_summary

        return record_summary(self.record)


class Runner:
    """Store-backed simulation runner used by every experiment module.

    One in-process memo, keyed by the point's :class:`PointSpec`, sits in
    front of the persistent result store: repeated requests inside one
    experiment pay a dict lookup, repeated requests across processes pay a
    store read, and only genuinely new (workload, scheme, hosts, seed)
    combinations simulate.
    """

    def __init__(self, scale: str | None = None, seed: int = 1) -> None:
        self.scale = scale or default_scale()
        self.seed = seed
        self._workloads: dict[str, Workload] = {}
        self._records: dict = {}

    def workload(self, name: str) -> Workload:
        w = self._workloads.get(name)
        if w is None:
            w = make_workload(name, scale=self.scale)
            self._workloads[name] = w
        return w

    def _record(self, spec) -> dict:
        """*spec*'s store record (memoised), via the job layer."""
        record = self._records.get(spec)
        if record is None:
            from repro.experiments.parallel import execute_point

            record = self._records[spec] = execute_point(spec).record
        return record

    def run(
        self,
        workload: str,
        scheme: str,
        host_cores: int,
        *,
        seed: int | None = None,
        fastforward: bool = False,
        core_model: str = "inorder",
    ) -> RecordResult:
        """Resolve one run through the job layer (store hit or simulate)."""
        from repro.experiments.parallel import PointSpec

        seed = self.seed if seed is None else seed
        return RecordResult(
            self._record(
                PointSpec(workload, scheme, host_cores, self.scale, seed, fastforward, core_model)
            )
        )

    def point(self, spec) -> dict:
        """A sweep grid point's document: the same record, reduced."""
        from repro.experiments.parallel import point_document

        return point_document(spec, self._record(spec))

    def baseline(self, workload: str) -> RecordResult:
        """The paper's baseline: cycle-by-cycle on a single host core."""
        return self.run(workload, "cc", 1)
