"""Ablation A1: the speed/accuracy trade-off as the slack bound grows
(paper §6: 'Slack simulation offers new trade-offs between simulation speed
and accuracy')."""

from conftest import write_report

from repro.experiments.ablations import render_sweep, run_slack_sweep


def test_slack_sweep(benchmark, scale, report_dir):
    points = benchmark.pedantic(
        lambda: run_slack_sweep("fft", slacks=(1, 4, 9, 25, 100), scale=scale),
        rounds=1,
        iterations=1,
    )
    write_report(report_dir, "ablation_slack_sweep.txt",
                 render_sweep("A1: bounded-slack sweep (fft)", points))
    speedups = [p.speedup for p in points]
    # Speed grows (weakly) with the bound; su is the asymptote.
    assert speedups[-1] >= speedups[0]
    assert max(speedups) / min(speedups) > 1.2
    # Violations (the accuracy cost) grow with the bound.
    assert points[-1].violations >= points[0].violations
