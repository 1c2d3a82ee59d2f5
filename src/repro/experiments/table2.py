"""Table 2: benchmarks, input sets and baseline KIPS.

Paper: "the KIPS column shows the instruction throughput of the
cycle-by-cycle simulations ... when all threads are executed by one single
host core.  This single-core cycle-by-cycle simulation of our 8-core target
is used as the baseline" (§4.2.1).  Paper values: Barnes 111.3, FFT 120.5,
LU 114.4, Water-Nsquared 127.1 KIPS.
"""

from __future__ import annotations

from repro.experiments.common import claim_table
from repro.stats.tables import Table
from repro.workloads.registry import make_workload

__all__ = ["CLAIMS", "PAPER_TABLE2_KIPS", "render_table2"]

#: The paper's Table 2 KIPS values (for EXPERIMENTS.md comparison).
PAPER_TABLE2_KIPS = {"barnes": 111.3, "fft": 120.5, "lu": 114.4, "water": 127.1}

PAPER_INPUT_SETS = {
    "barnes": "1024",
    "fft": "64K points",
    "lu": "256 x 256 matrix",
    "water": "216 molecules",
}


def render_table2(document: dict) -> str:
    """Table 2 off a ``table2`` sweep document: its points are the baseline
    (cc, 1 host core) runs."""
    table = Table(
        "Table 2: Benchmarks (baseline = cycle-by-cycle on 1 host core)",
        ["Benchmark", "Input Set (ours)", "Input Set (paper)", "Instr", "KIPS", "KIPS (paper)"],
    )
    for point in document["points"].values():
        name = point["spec"]["workload"]
        table.add_row(
            name,
            make_workload(name, scale=document["scale"]).input_set,
            PAPER_INPUT_SETS[name],
            point["instructions"],
            point["kips"],
            PAPER_TABLE2_KIPS[name],
        )
    return table.render()


def _of(field: str):
    """Numbers: ``{benchmark: field}`` of the baseline points."""
    return lambda document: {
        point["spec"]["workload"]: point[field] for point in document["points"].values()
    }


#: A ``table2`` document's baselines run real programs at the paper's order
#: of magnitude (111-127 KIPS).
CLAIMS = claim_table("table2", {
    "kips_in_paper_magnitude": (_of("kips"), lambda n: all(30 < v < 500 for v in n.values())),
    "baselines_run_real_programs": (_of("instructions"), lambda n: min(n.values()) > 1000),
})
