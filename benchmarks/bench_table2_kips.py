"""Table 2 regeneration: benchmarks, input sets, baseline KIPS.

Paper row order: Barnes 111.3, FFT 120.5, LU 114.4, Water-Nsquared 127.1
KIPS for the cycle-by-cycle 8-core simulation on one host core.
"""

from conftest import write_report

from repro.experiments.table2 import render_table2, run_table2


def test_table2_kips(benchmark, scale, report_dir):
    rows = benchmark.pedantic(lambda: run_table2(scale), rounds=1, iterations=1)
    write_report(report_dir, "table2.txt", render_table2(rows))
    for row in rows:
        benchmark.extra_info[f"kips_{row.benchmark}"] = round(row.kips, 1)
        # Same order of magnitude as the paper's baseline.
        assert 30 < row.kips < 500
