"""Ablation A5 (extension): traffic-adaptive quantum (paper §5, after
Falcón et al. [8]) vs the fixed critical-latency quantum.  The adaptive
scheme should cut barrier count and beat q10's speedup at a bounded error
cost."""

from conftest import write_report

from repro.experiments.ablations import ADAPTIVE_QUANTA, render_sweep, sweep_rows
from repro.experiments.parallel import run_sweep


def test_adaptive_quantum(benchmark, scale, jobs, report_dir):
    document = benchmark.pedantic(
        lambda: run_sweep("adaptive_quantum", scale=scale, jobs=jobs), rounds=1, iterations=1
    )
    write_report(report_dir, "ablation_adaptive_quantum.txt",
                 render_sweep("A5: adaptive quantum vs fixed q10 (fft)", document, ADAPTIVE_QUANTA))
    by_scheme = {row["scheme"]: row for row in sweep_rows(document)}
    assert by_scheme["aq10-160"]["speedup"] > by_scheme["q10"]["speedup"]
    # Accuracy cost stays bounded (related work reports < 5% error).
    assert by_scheme["aq10-160"]["error"] < 0.10
