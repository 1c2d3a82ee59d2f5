"""Ablation A4: scheme ordering is a property of the synchronization
structure, not of the core microarchitecture (in-order vs NetBurst-like
OoO) — DESIGN.md §2's ground for running the figures on the in-order core,
checked on every registered workload."""

import json

from conftest import write_report

from repro.experiments.ablations import coremodel_orderings
from repro.experiments.parallel import run_sweep


def test_coremodel_ordering(benchmark, scale, jobs, report_dir):
    document = benchmark.pedantic(
        lambda: run_sweep("coremodel", scale=scale, jobs=jobs), rounds=1, iterations=1
    )
    by_workload = coremodel_orderings(document)
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
