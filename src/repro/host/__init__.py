"""Virtual host CMP substrate (DESIGN.md §2): the calibrated cost model and
the deterministic H-core schedule whose makespan stands in for wall-clock
simulation time."""
