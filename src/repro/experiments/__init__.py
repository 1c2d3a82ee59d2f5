"""Experiments: one grid table and one runner (:mod:`.parallel`), and one
module per paper table/figure (see DESIGN.md per-experiment index) plus the
ablation studies A1-A5 holding the paper's constants, the render of that
experiment's sweep document and the paper's claims about it."""
