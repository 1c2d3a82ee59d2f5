"""The slack simulation engine — the paper's primary contribution.

Schemes: cycle-by-cycle (``cc``), quantum-based (``qN``), lookahead
(``lN``), bounded slack (``sN``), oldest-first bounded slack (``sN*``) and
unbounded slack (``su``).  One engine: :class:`SequentialEngine` runs the
paper's thread structure (N core threads + one manager) deterministically
on the virtual host.  The same structure on real Python threads lives in
the test harness (``tests/core/threaded_harness.py``), where it proves the
queue/clock protocol under genuine preemption.

The package exports the three names outside callers use; inside ``repro``
every name comes from the module that defines it (DESIGN.md §3).
"""

from repro.core.config import SimConfig, TargetConfig
from repro.core.engine import run_simulation

__all__ = ["SimConfig", "TargetConfig", "run_simulation"]
