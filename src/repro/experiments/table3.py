"""Table 3: relative execution-time errors due to slack.

Paper values (8 host cores):

===============  ======  ======  ======
benchmark        S9      S100    SU
===============  ======  ======  ======
Barnes           0.08%   1.82%   5.94%
FFT              0.01%   0.07%   1.83%
LU               0.03%   0.09%   1.98%
Water-Nsquared   0.01%   0.12%   5.11%
===============  ======  ======  ======

The gold standard is the cycle-by-cycle run ("always accurate", §3.2).
Conservative schemes (q10/l10/s9*) are included as extra columns — the paper
argues they are exact; in this reproduction they carry a small residual
error from synchronization-API emulation ordering (see EXPERIMENTS.md).  The
error ceilings in :data:`CLAIMS` are looser than the paper's values: at our
small inputs synchronization is far denser per instruction than at 100M.
"""

from __future__ import annotations

from repro.experiments.common import claim_table
from repro.stats.tables import Table

__all__ = ["CLAIMS", "PAPER_TABLE3", "render_table3"]

#: Paper's Table 3 (fractions, not percent).
PAPER_TABLE3 = {
    "barnes": {"s9": 0.0008, "s100": 0.0182, "su": 0.0594},
    "fft": {"s9": 0.0001, "s100": 0.0007, "su": 0.0183},
    "lu": {"s9": 0.0003, "s100": 0.0009, "su": 0.0198},
    "water": {"s9": 0.0001, "s100": 0.0012, "su": 0.0511},
}

#: The table's columns; with the cc gold they are the ``table3`` grid's schemes.
ERROR_SCHEMES = ("s9", "s100", "su")
CONSERVATIVE_SCHEMES = ("q10", "l10", "s9*")


def render_table3(document: dict) -> str:
    """Table 3 (plus the conservative-scheme columns) off a ``table3`` sweep
    document: errors from its derived metrics, violation totals from its
    points."""
    points = document["points"]
    benchmarks = sorted({point["spec"]["workload"] for point in points.values()})
    hosts = next(iter(points.values()))["spec"]["host_cores"]

    def percent(fraction: float) -> str:
        return f"{fraction * 100:.2f}%"

    def errors(bench: str, schemes: tuple[str, ...]) -> list[str]:
        return [
            percent(document["derived"]["error_vs_cc"][f"{bench}/{scheme}/h{hosts}"])
            for scheme in schemes
        ]

    table = Table(
        f"Table 3: relative execution-time errors due to slack ({hosts} host cores)",
        ["Benchmark", "S9", "S9 (paper)", "S100", "S100 (paper)", "SU", "SU (paper)"],
    )
    extra = Table(
        "Conservative schemes (paper: exact; residual = sync-emulation ordering)",
        ["Benchmark", "Q10", "L10", "S9*", "violations s9/s100/su"],
    )
    for bench in benchmarks:
        paper = [percent(PAPER_TABLE3[bench][scheme]) for scheme in ERROR_SCHEMES]
        ours = errors(bench, ERROR_SCHEMES)
        table.add_row(bench, *[cell for pair in zip(ours, paper) for cell in pair])
        extra.add_row(
            bench,
            *errors(bench, CONSERVATIVE_SCHEMES),
            "/".join(
                str(points[f"{bench}/{scheme}/h{hosts}"]["violations"])
                for scheme in ERROR_SCHEMES
            ),
        )
    return table.render() + "\n\n" + extra.render()


def _column(document: dict, scheme: str, field: str = "error") -> dict:
    """``{benchmark: field}`` of *scheme*'s points; ``"error"`` is the derived
    error against cc."""
    errors = document["derived"]["error_vs_cc"]
    return {
        point["spec"]["workload"]: errors[key] if field == "error" else point[field]
        for key, point in document["points"].items()
        if point["spec"]["scheme"] == scheme
    }


#: The reproduced shape on a ``table3`` document, on every benchmark: the
#: error grows with the slack bound (within two points), s9 stays under 6 %
#: and su under 35 %, and the conservative schemes never reorder memory.
CLAIMS = claim_table("table3", {
    "error_grows_with_slack": (
        lambda d: {scheme: _column(d, scheme) for scheme in ERROR_SCHEMES},
        lambda n: all(
            n["s9"][b] <= n["s100"][b] + 0.02 and n["s100"][b] <= n["su"][b] + 0.02 for b in n["s9"]
        ),
    ),
    "s9_error_small": (lambda d: _column(d, "s9"), lambda n: max(n.values()) < 0.06),
    "su_error_moderate": (lambda d: _column(d, "su"), lambda n: max(n.values()) < 0.35),
    "conservative_order_exact": (
        lambda d: {scheme: _column(d, scheme, "violations") for scheme in CONSERVATIVE_SCHEMES},
        lambda n: not any(count for column in n.values() for count in column.values()),
    ),
})
