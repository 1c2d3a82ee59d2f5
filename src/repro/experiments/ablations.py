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

A1 is the ``ablations`` sweep grid (per-point ``derive_seed``); A2-A5 are not
grids and run every point under the plain base seed their committed reports
are pinned to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import default_scale, error, speedup
from repro.experiments.parallel import ABLATION_SLACKS, build_points, resolve
from repro.jobs.spec import JobSpec
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


def _sweep_points(
    docs: dict, workload: str, schemes: list[str], host_cores: int
) -> list[SweepPoint]:
    """*schemes* at *host_cores* against the two cc references in *docs*."""
    base = docs[f"{workload}/cc/h1"]
    gold = docs[f"{workload}/cc/h{host_cores}"]
    points = []
    for scheme in schemes:
        doc = docs[f"{workload}/{scheme}/h{host_cores}"]
        points.append(
            SweepPoint(
                label=scheme,
                speedup=speedup(base, doc),
                error=error(gold, doc),
                violations=doc["violations"],
                workload_violations=doc["workload_violations"],
            )
        )
    return points


def _plain_sweep(
    workload: str, schemes: list[str], host_cores: int, scale: str | None, seed: int
) -> list[SweepPoint]:
    """*schemes* against the cc references, every run under the plain *seed*."""
    scale = scale or default_scale()
    docs = resolve(
        [
            JobSpec(
                workload=workload, scale=scale, scheme=scheme, seed=seed,
                host_cores=hosts,
            )
            for scheme, hosts in [("cc", 1), ("cc", host_cores)]
            + [(s, host_cores) for s in schemes]
        ]
    )
    return _sweep_points(docs, workload, schemes, host_cores)


def run_slack_sweep(
    workload: str = "fft",
    slacks: tuple[int, ...] = ABLATION_SLACKS,
    *,
    host_cores: int = 8,
    scale: str | None = None,
    seed: int = 1,
) -> list[SweepPoint]:
    """A1: bounded slack sweep — speedup and error vs the slack bound.

    The grid comes from :func:`repro.experiments.parallel.build_points`
    ("ablations") — the same points ``repro sweep ablations`` runs, so the
    two share stored records; the slack bounds default to the sweep's
    :data:`~repro.experiments.parallel.ABLATION_SLACKS`.
    """
    docs = resolve(
        build_points(
            "ablations", scale or default_scale(), seed,
            workload=workload, slacks=slacks, host_cores=host_cores,
        )
    )
    return _sweep_points(
        docs, workload, [f"s{slack}" for slack in slacks] + ["su"], host_cores
    )


def run_critical_latency_sweep(
    workload: str = "fft",
    slacks: tuple[int, ...] = (2, 5, 9, 15, 30, 60),
    *,
    host_cores: int = 8,
    scale: str | None = None,
    seed: int = 1,
) -> list[SweepPoint]:
    """A2: oldest-first bounded slack around the critical latency (10).

    Below the critical latency the conservative S* discipline is
    violation-free; above it even oldest-first processing can reorder
    against in-flight responses (paper §3.1).
    """
    return _plain_sweep(
        workload, [f"s{slack}*" for slack in slacks], host_cores, scale, seed
    )


def run_fastforward_ablation(
    workload: str = "water",
    scheme: str = "s100",
    *,
    host_cores: int = 8,
    scale: str | None = None,
    seed: int = 1,
) -> dict:
    """A3: workload-state violation compensation by fast-forwarding."""
    scale = scale or default_scale()
    docs = resolve(
        [
            JobSpec(
                workload=workload, scale=scale, scheme=name, seed=seed,
                host_cores=host_cores, fastforward=fastforward,
            )
            for name, fastforward in (("cc", False), (scheme, False), (scheme, True))
        ]
    )
    gold = docs[f"{workload}/cc/h{host_cores}"]
    result = {"scheme": scheme, "workload": workload}
    for label, suffix in (("off", ""), ("on", "/ff")):
        doc = docs[f"{workload}/{scheme}/h{host_cores}{suffix}"]
        result[label] = {
            "error": error(gold, doc),
            "workload_violations": doc["workload_violations"],
            "fastforwards": doc["stats"]["violations.fastforwards"],
        }
    return result


def run_coremodel_ablation(
    workload: str = "fft",
    schemes: tuple[str, ...] = ("cc", "q10", "s9", "su"),
    *,
    host_cores: int = 8,
    scale: str | None = None,
    seed: int = 1,
) -> dict:
    """A4: does the scheme speed ordering survive a core-model change?"""
    scale = scale or default_scale()
    orderings = {}
    for model in ("inorder", "ooo"):
        docs = resolve(
            [
                JobSpec(
                    workload=workload, scale=scale, scheme=scheme, seed=seed,
                    host_cores=host_cores, core_model=model,
                )
                for scheme in schemes
            ]
        )
        times = {
            scheme: docs[f"{workload}/{scheme}/h{host_cores}"]["host_time"]
            for scheme in schemes
        }
        orderings[model] = sorted(schemes, key=lambda s: times[s], reverse=True)
    return orderings


def run_adaptive_quantum(
    workload: str = "fft",
    configs: tuple[str, ...] = ("q10", "aq10-160", "aq4-40"),
    *,
    host_cores: int = 8,
    scale: str | None = None,
    seed: int = 1,
) -> list[SweepPoint]:
    """A5 (extension, paper §5 / Falcón et al. [8]): traffic-adaptive quantum
    vs the fixed critical-latency quantum."""
    return _plain_sweep(workload, list(configs), host_cores, scale, seed)


def render_sweep(title: str, points: list[SweepPoint]) -> str:
    table = Table(title, ["config", "speedup", "error", "violations"])
    for p in points:
        table.add_row(p.label, p.speedup, f"{p.error * 100:.2f}%", p.violations)
    return table.render()
