"""Violation taxonomy (paper §3.2): detection counters for simulation-state,
simulated-system-state and workload-state violations, plus the
fast-forwarding compensation mechanism proposed in §3.2.3."""
