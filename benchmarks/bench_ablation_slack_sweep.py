"""Ablation A1: the speed/accuracy trade-off as the slack bound grows
(paper §6: 'Slack simulation offers new trade-offs between simulation speed
and accuracy')."""

from conftest import write_report

from repro.experiments.ablations import render_sweep, sweep_rows
from repro.experiments.parallel import run_sweep


def test_slack_sweep(benchmark, scale, jobs, report_dir):
    document = benchmark.pedantic(
        lambda: run_sweep("ablations", slacks=(1, 4, 9, 25, 100), scale=scale, jobs=jobs),
        rounds=1,
        iterations=1,
    )
    write_report(report_dir, "ablation_slack_sweep.txt",
                 render_sweep("A1: bounded-slack sweep (fft)", document))
    rows = sweep_rows(document)
    speedups = [row["speedup"] for row in rows]
    # Speed grows (weakly) with the bound; su is the asymptote.
    assert speedups[-1] >= speedups[0]
    assert max(speedups) / min(speedups) > 1.2
    # Violations (the accuracy cost) grow with the bound.
    assert rows[-1]["violations"] >= rows[0]["violations"]
