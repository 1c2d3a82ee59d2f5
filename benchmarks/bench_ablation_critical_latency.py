"""Ablation A2: conservative oldest-first processing around the critical
latency (10 cycles = unloaded L2 access).  Paper §3.1: 'if the slack is more
than critical latency even the oldest-first simulation can potentially cause
simulation violations'."""

from conftest import write_report

from repro.experiments.ablations import render_sweep, run_critical_latency_sweep


def test_critical_latency_sweep(benchmark, scale, report_dir):
    points = benchmark.pedantic(
        lambda: run_critical_latency_sweep("fft", slacks=(2, 5, 9, 15, 30, 60), scale=scale),
        rounds=1,
        iterations=1,
    )
    write_report(report_dir, "ablation_critical_latency.txt",
                 render_sweep("A2: oldest-first slack vs critical latency (fft)", points))
    for p in points:
        slack = int(p.label[1:-1])
        if slack < 10:
            assert p.violations == 0, p.label
