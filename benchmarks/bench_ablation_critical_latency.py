"""Ablation A2: conservative oldest-first processing around the critical
latency (10 cycles = unloaded L2 access).  Paper §3.1: 'if the slack is more
than critical latency even the oldest-first simulation can potentially cause
simulation violations'."""

from conftest import write_report

from repro.experiments.ablations import render_sweep, sweep_rows
from repro.experiments.parallel import run_sweep


def test_critical_latency_sweep(benchmark, scale, jobs, report_dir):
    document = benchmark.pedantic(
        lambda: run_sweep("critical_latency", scale=scale, jobs=jobs), rounds=1, iterations=1
    )
    write_report(report_dir, "ablation_critical_latency.txt",
                 render_sweep("A2: oldest-first slack vs critical latency (fft)", document))
    for row in sweep_rows(document):
        slack = int(row["scheme"][1:-1])
        if slack < 10:
            assert row["violations"] == 0, row["scheme"]
