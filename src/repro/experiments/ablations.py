"""Ablation studies around the paper's design claims (DESIGN.md A1-A4).

* **A1 slack sweep** — §6 claims a speed/accuracy *trade-off*: error and
  speedup should both grow with the slack bound.
* **A2 critical latency** — §3.1: conservative oldest-first processing is
  violation-free iff slack < critical latency; sweeping the quantum/slack
  across the critical latency should show the violation onset.
* **A3 fast-forwarding** — §3.2.3 proposes compensating workload violations
  by fast-forwarding the storing core; measure violations and error with it
  on/off.
* **A4 core-model sensitivity** — the scheme *ordering* should not depend on
  the core microarchitecture (in-order vs OoO).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import Runner
from repro.experiments.parallel import ABLATION_SLACKS, build_points, point_key
from repro.stats.tables import Table

__all__ = [
    "run_slack_sweep",
    "run_critical_latency_sweep",
    "run_fastforward_ablation",
    "run_coremodel_ablation",
    "run_adaptive_quantum",
    "render_sweep",
]


@dataclass
class SweepPoint:
    label: str
    speedup: float
    error: float
    violations: int
    workload_violations: int = 0


def _total_violations(result) -> int:
    """Violation total read off the run's stats registry dump."""
    stats = result.stats
    return (
        stats["violations.simulation_state"]
        + stats["violations.system_state"]
        + stats["violations.workload_state"]
    )


def run_slack_sweep(
    workload: str = "fft",
    slacks: tuple[int, ...] = ABLATION_SLACKS,
    *,
    host_cores: int = 8,
    runner: Runner | None = None,
) -> list[SweepPoint]:
    """A1: bounded slack sweep — speedup and error vs the slack bound.

    The grid comes from :func:`repro.experiments.parallel.build_points`
    ("ablations") — the same points ``repro sweep ablations`` runs, so the
    two share stored records; the slack bounds default to the sweep's
    :data:`~repro.experiments.parallel.ABLATION_SLACKS`.
    """
    runner = runner or Runner()
    grid = build_points(
        "ablations", runner.scale, runner.seed,
        workload=workload, slacks=slacks, host_cores=host_cores,
    )
    docs = {point_key(p): runner.point(p) for p in grid}
    base = docs[f"{workload}/cc/h1"]
    gold = docs[f"{workload}/cc/h{host_cores}"]

    def _point(scheme: str) -> SweepPoint:
        doc = docs[f"{workload}/{scheme}/h{host_cores}"]
        return SweepPoint(
            label=scheme,
            speedup=(
                base["host_time"] / doc["host_time"]
                if doc["host_time"]
                else float("inf")
            ),
            error=(
                abs(doc["execution_cycles"] - gold["execution_cycles"])
                / gold["execution_cycles"]
                if gold["execution_cycles"]
                else 0.0
            ),
            violations=doc["violations"],
            workload_violations=doc["workload_violations"],
        )

    return [_point(f"s{slack}") for slack in slacks] + [_point("su")]


def run_critical_latency_sweep(
    workload: str = "fft",
    slacks: tuple[int, ...] = (2, 5, 9, 15, 30, 60),
    *,
    host_cores: int = 8,
    runner: Runner | None = None,
) -> list[SweepPoint]:
    """A2: oldest-first bounded slack around the critical latency (10).

    Below the critical latency the conservative S* discipline is
    violation-free; above it even oldest-first processing can reorder
    against in-flight responses (paper §3.1).
    """
    runner = runner or Runner()
    gold = runner.run(workload, "cc", host_cores)
    base = runner.baseline(workload)
    points = []
    for slack in slacks:
        result = runner.run(workload, f"s{slack}*", host_cores)
        points.append(
            SweepPoint(
                label=f"s{slack}*",
                speedup=result.speedup_over(base),
                error=result.error_vs(gold),
                violations=_total_violations(result),
            )
        )
    return points


def run_fastforward_ablation(
    workload: str = "water",
    scheme: str = "s100",
    *,
    host_cores: int = 8,
    runner: Runner | None = None,
) -> dict:
    """A3: workload-state violation compensation by fast-forwarding."""
    runner = runner or Runner()
    gold = runner.run(workload, "cc", host_cores)
    off = runner.run(workload, scheme, host_cores, fastforward=False)
    on = runner.run(workload, scheme, host_cores, fastforward=True)
    return {
        "scheme": scheme,
        "workload": workload,
        "off": {
            "error": off.error_vs(gold),
            "workload_violations": off.stats["violations.workload_state"],
            "fastforwards": off.stats["violations.fastforwards"],
        },
        "on": {
            "error": on.error_vs(gold),
            "workload_violations": on.stats["violations.workload_state"],
            "fastforwards": on.stats["violations.fastforwards"],
        },
    }


def run_coremodel_ablation(
    workload: str = "fft",
    schemes: tuple[str, ...] = ("cc", "q10", "s9", "su"),
    *,
    host_cores: int = 8,
    runner: Runner | None = None,
) -> dict:
    """A4: does the scheme speed ordering survive a core-model change?"""
    runner = runner or Runner()
    orderings = {}
    for model in ("inorder", "ooo"):
        times = {
            scheme: runner.run(workload, scheme, host_cores, core_model=model).host_time
            for scheme in schemes
        }
        orderings[model] = sorted(schemes, key=lambda s: times[s], reverse=True)
    return orderings


def run_adaptive_quantum(
    workload: str = "fft",
    configs: tuple[str, ...] = ("q10", "aq10-160", "aq4-40"),
    *,
    host_cores: int = 8,
    runner: Runner | None = None,
) -> list[SweepPoint]:
    """A5 (extension, paper §5 / Falcón et al. [8]): traffic-adaptive quantum
    vs the fixed critical-latency quantum."""
    runner = runner or Runner()
    gold = runner.run(workload, "cc", host_cores)
    base = runner.baseline(workload)
    points = []
    for config in configs:
        result = runner.run(workload, config, host_cores)
        points.append(
            SweepPoint(
                label=config,
                speedup=result.speedup_over(base),
                error=result.error_vs(gold),
                violations=_total_violations(result),
            )
        )
    return points


def render_sweep(title: str, points: list[SweepPoint]) -> str:
    table = Table(title, ["config", "speedup", "error", "violations"])
    for p in points:
        table.add_row(p.label, p.speedup, f"{p.error * 100:.2f}%", p.violations)
    return table.render()
