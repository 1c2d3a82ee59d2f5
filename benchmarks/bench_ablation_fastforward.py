"""Ablation A3: fast-forward compensation of workload-state violations
(paper §3.2.3 proposes it; 'Currently, we do not compensate' — we implement
it as the natural extension)."""

import json

from conftest import write_report

from repro.experiments.ablations import fastforward_report
from repro.experiments.parallel import run_sweep


def test_fastforward_ablation(benchmark, scale, jobs, report_dir):
    document = benchmark.pedantic(
        lambda: run_sweep("fastforward", scale=scale, jobs=jobs), rounds=1, iterations=1
    )
    result = fastforward_report(document)
    write_report(report_dir, "ablation_fastforward.txt", json.dumps(result, indent=2))
    # Fast-forwarding compensates store-side races (load-side detections have
    # no compensation — the paper's mechanism delays the *store*).  It must
    # never make the run incorrect and should keep error in the same regime.
    assert result["on"]["fastforwards"] >= 0
    assert result["on"]["error"] <= max(0.05, result["off"]["error"] * 3)
