"""Ablation A5 (extension): traffic-adaptive quantum (paper §5, after
Falcón et al. [8]) vs the fixed critical-latency quantum.  The adaptive
scheme should cut barrier count and beat q10's speedup at a bounded error
cost."""

from conftest import write_report

from repro.experiments.ablations import render_sweep, run_adaptive_quantum


def test_adaptive_quantum(benchmark, scale, report_dir):
    points = benchmark.pedantic(
        lambda: run_adaptive_quantum("fft", scale=scale), rounds=1, iterations=1
    )
    write_report(report_dir, "ablation_adaptive_quantum.txt",
                 render_sweep("A5: adaptive quantum vs fixed q10 (fft)", points))
    by_label = {p.label: p for p in points}
    assert by_label["aq10-160"].speedup > by_label["q10"].speedup
    # Accuracy cost stays bounded (related work reports < 5% error).
    assert by_label["aq10-160"].error < 0.10
