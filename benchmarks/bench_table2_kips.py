"""Table 2 regeneration: benchmarks, input sets, baseline KIPS.

Paper row order: Barnes 111.3, FFT 120.5, LU 114.4, Water-Nsquared 127.1
KIPS for the cycle-by-cycle 8-core simulation on one host core.
"""

from conftest import write_report

from repro.experiments.parallel import run_sweep
from repro.experiments.table2 import render_table2


def test_table2_kips(benchmark, scale, jobs, report_dir):
    document = benchmark.pedantic(
        lambda: run_sweep("table2", scale=scale, jobs=jobs), rounds=1, iterations=1
    )
    write_report(report_dir, "table2.txt", render_table2(document))
    for point in document["points"].values():
        benchmark.extra_info[f"kips_{point['spec']['workload']}"] = round(point["kips"], 1)
        # Same order of magnitude as the paper's baseline.
        assert 30 < point["kips"] < 500
