"""Ablation A4: scheme ordering is a property of the synchronization
structure, not of the core microarchitecture (in-order vs NetBurst-like
OoO) — DESIGN.md §2's ground for running the figures on the in-order core,
checked on every registered workload."""

import json

from conftest import write_report

from repro.experiments.ablations import run_coremodel_ablation
from repro.experiments.common import BENCHMARKS


def test_coremodel_ordering(benchmark, scale, report_dir):
    def run_all():
        return {
            workload: run_coremodel_ablation(
                workload, schemes=("cc", "q10", "s9", "su"), scale=scale
            )
            for workload in BENCHMARKS
        }

    by_workload = benchmark.pedantic(run_all, rounds=1, iterations=1)
    # One block per workload (slowest scheme first), the block's JSON as
    # the single-workload report rendered it.
    write_report(
        report_dir,
        "ablation_coremodel.txt",
        "\n".join(
            f"{workload}\n{json.dumps(orderings, indent=2)}"
            for workload, orderings in by_workload.items()
        ),
    )
    # cc is the slowest and su the fastest under both core models.
    for workload, orderings in by_workload.items():
        for model, order in orderings.items():
            assert order[0] == "cc", (workload, model)
            assert order[-1] == "su", (workload, model)
