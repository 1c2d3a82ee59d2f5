"""Table 3 regeneration: relative execution-time errors for S9/S100/SU.

Paper: errors <= 0.08% (S9), <= 1.82% (S100), <= 5.94% (SU) at 100M
instructions.  At our reduced input scale the synchronization density per
instruction is far higher, so error ceilings are proportionally looser —
the *monotone growth with slack* is the reproduced shape.
"""

from conftest import write_report

from repro.experiments.table3 import render_table3, run_table3


def test_table3_errors(benchmark, scale, report_dir):
    rows = benchmark.pedantic(lambda: run_table3(scale), rounds=1, iterations=1)
    write_report(report_dir, "table3.txt", render_table3(rows))
    for row in rows:
        benchmark.extra_info[f"err_su_{row.benchmark}"] = round(row.errors["su"] * 100, 2)
        assert row.errors["s9"] < 0.06, row.benchmark
        assert row.errors["s9"] <= row.errors["s100"] + 0.02, row.benchmark
        assert row.errors["s100"] <= row.errors["su"] + 0.02, row.benchmark
        assert row.errors["su"] < 0.35, row.benchmark
