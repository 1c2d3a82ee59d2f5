"""Fault injection for the slack engine (DESIGN.md §8).

The violation taxonomy (paper §3.2) and the engine's invariants are only
trustworthy if they are exercised: this package perturbs a run at the
simulator's well-defined seams — OutQ/InQ/GQ event boundaries, the host
schedule, directory state, the slack-window protocol — under a seeded,
config-driven :class:`FaultPlan`, so tests can assert that the detectors
fire and the engine degrades cleanly instead of silently or catastrophically.
"""
