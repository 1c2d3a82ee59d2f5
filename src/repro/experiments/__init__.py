"""Experiments: one grid table and one runner (:mod:`.parallel`), and one
module per paper table/figure (see DESIGN.md per-experiment index) plus the
ablation studies A1-A5 holding the paper's constants and the render of that
experiment's sweep document."""

from repro.experiments.common import BENCHMARKS, HOST_COUNTS, SCHEMES
from repro.experiments.figure2 import render_figure2, run_figure2
from repro.experiments.figure8 import render_figure8
from repro.experiments.table2 import render_table2
from repro.experiments.table3 import render_table3

__all__ = [
    "BENCHMARKS",
    "HOST_COUNTS",
    "SCHEMES",
    "render_figure2",
    "run_figure2",
    "render_figure8",
    "render_table2",
    "render_table3",
]
