"""Statistics and reporting: the functions over a run's flat stats dump, the
harmonic mean Figure 8(e) aggregates with, and ASCII table rendering used by
every experiment harness.  (Speedup and relative error are
``experiments.common.speedup``/``error``, over point documents.)"""
