"""Ablation A3: fast-forward compensation of workload-state violations
(paper §3.2.3 proposes it; 'Currently, we do not compensate' — we implement
it as the natural extension)."""

import json

from conftest import write_report

from repro.experiments.ablations import run_fastforward_ablation


def test_fastforward_ablation(benchmark, scale, report_dir):
    result = benchmark.pedantic(
        lambda: run_fastforward_ablation("water", "s100", scale=scale),
        rounds=1,
        iterations=1,
    )
    write_report(report_dir, "ablation_fastforward.txt", json.dumps(result, indent=2))
    # Fast-forwarding compensates store-side races (load-side detections have
    # no compensation — the paper's mechanism delays the *store*).  It must
    # never make the run incorrect and should keep error in the same regime.
    assert result["on"]["fastforwards"] >= 0
    assert result["on"]["error"] <= max(0.05, result["off"]["error"] * 3)
