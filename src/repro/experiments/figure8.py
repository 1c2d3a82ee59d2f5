"""Figure 8: simulation speedups per benchmark, scheme and host-core count.

Speedup of a run = baseline simulation time / run simulation time, where the
baseline is the cycle-by-cycle simulation of the 8-core target on **one**
host core (§4.2.1).  Panels (a)-(d) are the four benchmarks; panel (e) is
the harmonic mean across benchmarks.

Expected shape (paper §4.2.1, asserted in tests/benchmarks):

* speedup improves with host cores for every scheme;
* cc is lowest and scales worst;
* all slack schemes (incl. quantum) beat cc clearly (>= ~3.3x even at 2 hosts);
* su >= s100 >= s9 >= q10; s9* ~ s9; l10 >= q10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import (
    BENCHMARKS, HOST_COUNTS, SCHEMES, default_scale, speedup,
)
from repro.experiments.parallel import build_points, resolve
from repro.stats.metrics import harmonic_mean
from repro.stats.tables import Table

__all__ = ["run_figure8", "Figure8Data", "render_figure8"]


@dataclass
class Figure8Data:
    """speedup[benchmark][scheme][host_cores] plus the harmonic-mean panel."""

    schemes: tuple[str, ...]
    host_counts: tuple[int, ...]
    benchmarks: tuple[str, ...]
    speedup: dict = field(default_factory=dict)   # bench -> scheme -> {H: x}
    hmean: dict = field(default_factory=dict)     # scheme -> {H: x}

    def series(self, benchmark: str, scheme: str) -> list[float]:
        return [self.speedup[benchmark][scheme][h] for h in self.host_counts]


def run_figure8(
    scale: str | None = None,
    seed: int = 1,
    *,
    schemes: tuple[str, ...] = SCHEMES,
    host_counts: tuple[int, ...] = HOST_COUNTS,
    benchmarks: tuple[str, ...] = BENCHMARKS,
) -> Figure8Data:
    """Run the full Figure 8 grid (plus the cc@1 baselines).

    The point list comes from :func:`repro.experiments.parallel.build_points`
    — the same grid authority ``repro sweep figure8`` uses — so the figure's
    job identities are exactly the sweep's and one warms the store for the
    other.
    """
    docs = resolve(
        build_points(
            "figure8", scale or default_scale(), seed,
            benchmarks=benchmarks, schemes=schemes, host_counts=host_counts,
        )
    )
    data = Figure8Data(schemes=schemes, host_counts=host_counts, benchmarks=benchmarks)
    for bench in benchmarks:
        base = docs[f"{bench}/cc/h1"]
        data.speedup[bench] = {}
        for scheme in schemes:
            data.speedup[bench][scheme] = {}
            for hosts in host_counts:
                # Makespans come off the stats registry dumps of both runs.
                data.speedup[bench][scheme][hosts] = speedup(
                    base, docs[f"{bench}/{scheme}/h{hosts}"]
                )
    for scheme in schemes:
        data.hmean[scheme] = {}
        for hosts in host_counts:
            data.hmean[scheme][hosts] = harmonic_mean(
                [data.speedup[b][scheme][hosts] for b in benchmarks]
            )
    return data


def render_figure8(data: Figure8Data) -> str:
    """Render panels (a)-(e) as ASCII tables (rows = schemes, cols = hosts)."""
    panels = []
    labels = {b: f"Figure 8({chr(ord('a') + i)}): {b}" for i, b in enumerate(data.benchmarks)}
    for bench in data.benchmarks:
        table = Table(labels[bench] + " — simulation speedup over cc@1host",
                      ["scheme"] + [f"{h} hosts" for h in data.host_counts])
        for scheme in data.schemes:
            table.add_row(scheme, *[data.speedup[bench][scheme][h] for h in data.host_counts])
        panels.append(table.render())
    table = Table(
        "Figure 8(e): harmonic mean of benchmark speedups",
        ["scheme"] + [f"{h} hosts" for h in data.host_counts],
    )
    for scheme in data.schemes:
        table.add_row(scheme, *[data.hmean[scheme][h] for h in data.host_counts])
    panels.append(table.render())
    return "\n\n".join(panels)
