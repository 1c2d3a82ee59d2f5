"""Figure 8 regeneration: speedups per benchmark/scheme/host-core count.

Shape assertions mirror the paper's §4.2.1 observations; absolute factors
depend on the calibrated host-cost model (see EXPERIMENTS.md).
"""

from conftest import write_report

from repro.experiments.figure8 import harmonic_means, panels, render_figure8
from repro.experiments.parallel import run_sweep


def test_figure8_speedups(benchmark, scale, jobs, report_dir):
    document = benchmark.pedantic(
        lambda: run_sweep("figure8", scale=scale, jobs=jobs), rounds=1, iterations=1
    )
    write_report(report_dir, "figure8.txt", render_figure8(document))

    hmean = harmonic_means(panels(document))
    host_counts = list(hmean["cc"])
    for hosts in host_counts:
        benchmark.extra_info[f"hmean_su_{hosts}h"] = round(hmean["su"][hosts], 2)
        benchmark.extra_info[f"hmean_cc_{hosts}h"] = round(hmean["cc"][hosts], 2)

    # Observation 1: speedup always improves with more host cores.
    for scheme in hmean:
        series = list(hmean[scheme].values())
        assert series == sorted(series) or max(
            abs(series[i + 1] - series[i]) for i in range(len(series) - 1)
        ) < 0.5 * series[-1], scheme

    # Observation 2: cc is poor and scales badly (far below every slack
    # scheme; the paper measured <= 2.6, we allow headroom for scale).
    top = max(host_counts)
    assert hmean["cc"][top] < 4.0
    assert hmean["cc"][top] < 0.5 * hmean["s9"][top]

    # Observation 3: every slack scheme >= 3.3x even on 2 host cores.
    for scheme in ("q10", "l10", "s9", "s9*", "s100", "su"):
        assert hmean[scheme][2] >= 3.3, scheme

    # Observation 4: su best (or tied), s100 > q10, s9 > q10, s9* ~ s9.
    assert hmean["su"][top] >= 0.9 * max(hmean[s][top] for s in hmean)
    assert hmean["s100"][top] > hmean["q10"][top]
    assert hmean["s9"][top] > hmean["q10"][top]
    assert abs(hmean["s9*"][top] - hmean["s9"][top]) / hmean["s9"][top] < 0.15
