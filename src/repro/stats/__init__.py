"""Statistics and reporting: the hierarchical stats registry every layer
reports into, the harmonic mean Figure 8(e) aggregates with, and ASCII table
rendering used by every experiment harness.  (Speedup and relative error are
``experiments.common.speedup``/``error``, over point documents.)"""

from repro.stats.metrics import harmonic_mean
from repro.stats.registry import (
    Distribution,
    Formula,
    Scalar,
    Stat,
    StatError,
    StatsGroup,
    StatsRegistry,
    Vector,
    diff_dumps,
    load_dump,
    render_dump,
)
from repro.stats.tables import Table

__all__ = [
    "Distribution",
    "Formula",
    "Scalar",
    "Stat",
    "StatError",
    "StatsGroup",
    "StatsRegistry",
    "Table",
    "Vector",
    "diff_dumps",
    "harmonic_mean",
    "load_dump",
    "render_dump",
]
