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

from repro.experiments.common import SCHEMES
from repro.stats.metrics import harmonic_mean
from repro.stats.tables import Table

__all__ = ["harmonic_means", "panels", "render_figure8"]


def panels(document: dict) -> dict:
    """``speedup[benchmark][scheme][host_cores]`` of a ``figure8`` sweep
    document, schemes in the figure's legend order (any other after it)."""
    flat: dict = {}
    for key, value in document["derived"]["speedup_over_cc1"].items():
        spec = document["points"][key]["spec"]
        flat.setdefault(spec["workload"], {}).setdefault(spec["scheme"], {})[
            spec["host_cores"]
        ] = value
    return {
        bench: {
            scheme: dict(sorted(rows[scheme].items()))
            for scheme in sorted(rows, key=(SCHEMES + tuple(rows)).index)
        }
        for bench, rows in sorted(flat.items())
    }


def harmonic_means(speedup: dict) -> dict:
    """Panel (e): ``hmean[scheme][host_cores]`` across the benchmarks of
    :func:`panels`' result."""
    first = next(iter(speedup.values()))
    return {
        scheme: {
            hosts: harmonic_mean([rows[scheme][hosts] for rows in speedup.values()])
            for hosts in by_hosts
        }
        for scheme, by_hosts in first.items()
    }


def _panel(title: str, rows: dict) -> str:
    """One ASCII table of ``rows[scheme][host_cores]`` (cols = hosts)."""
    host_counts = next(iter(rows.values()))
    table = Table(title, ["scheme"] + [f"{h} hosts" for h in host_counts])
    for scheme, by_hosts in rows.items():
        table.add_row(scheme, *by_hosts.values())
    return table.render()


def render_figure8(document: dict) -> str:
    """Render panels (a)-(e) of a ``figure8`` sweep document."""
    speedup = panels(document)
    rendered = [
        _panel(
            f"Figure 8({chr(ord('a') + i)}): {bench} — simulation speedup over cc@1host", rows
        )
        for i, (bench, rows) in enumerate(speedup.items())
    ]
    rendered.append(
        _panel("Figure 8(e): harmonic mean of benchmark speedups", harmonic_means(speedup))
    )
    return "\n\n".join(rendered)
