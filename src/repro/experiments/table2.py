"""Table 2: benchmarks, input sets and baseline KIPS.

Paper: "the KIPS column shows the instruction throughput of the
cycle-by-cycle simulations ... when all threads are executed by one single
host core.  This single-core cycle-by-cycle simulation of our 8-core target
is used as the baseline" (§4.2.1).  Paper values: Barnes 111.3, FFT 120.5,
LU 114.4, Water-Nsquared 127.1 KIPS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import BENCHMARKS, default_scale
from repro.experiments.parallel import resolve
from repro.jobs.spec import JobSpec
from repro.stats.tables import Table
from repro.workloads.registry import make_workload

__all__ = ["run_table2", "Table2Row", "PAPER_TABLE2_KIPS"]

#: The paper's Table 2 KIPS values (for EXPERIMENTS.md comparison).
PAPER_TABLE2_KIPS = {"barnes": 111.3, "fft": 120.5, "lu": 114.4, "water": 127.1}

PAPER_INPUT_SETS = {
    "barnes": "1024",
    "fft": "64K points",
    "lu": "256 x 256 matrix",
    "water": "216 molecules",
}


@dataclass
class Table2Row:
    benchmark: str
    input_set: str
    paper_input_set: str
    instructions: int
    kips: float
    paper_kips: float


def run_table2(scale: str | None = None, seed: int = 1) -> list[Table2Row]:
    """Regenerate Table 2 with the baseline (cc, 1 host core) runs."""
    scale = scale or default_scale()
    docs = resolve(
        [
            JobSpec(workload=name, scale=scale, scheme="cc", seed=seed, host_cores=1)
            for name in BENCHMARKS
        ]
    )
    rows = []
    for name in BENCHMARKS:
        doc = docs[f"{name}/cc/h1"]
        rows.append(
            Table2Row(
                benchmark=name,
                input_set=make_workload(name, scale=scale).input_set,
                paper_input_set=PAPER_INPUT_SETS[name],
                instructions=doc["instructions"],
                kips=doc["kips"],
                paper_kips=PAPER_TABLE2_KIPS[name],
            )
        )
    return rows


def render_table2(rows: list[Table2Row]) -> str:
    table = Table(
        "Table 2: Benchmarks (baseline = cycle-by-cycle on 1 host core)",
        ["Benchmark", "Input Set (ours)", "Input Set (paper)", "Instr", "KIPS", "KIPS (paper)"],
    )
    for r in rows:
        table.add_row(r.benchmark, r.input_set, r.paper_input_set, r.instructions, r.kips, r.paper_kips)
    return table.render()
