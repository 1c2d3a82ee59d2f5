"""Virtual host CMP substrate (DESIGN.md §2): the calibrated cost model and
the deterministic H-core schedule whose makespan stands in for wall-clock
simulation time."""

from repro.host.costmodel import HOST_UNIT_SECONDS, CostModel
from repro.host.hostmodel import HostModel

__all__ = ["HOST_UNIT_SECONDS", "CostModel", "HostModel"]
