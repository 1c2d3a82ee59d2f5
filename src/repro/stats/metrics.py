"""Statistical helpers for the evaluation harness."""

from __future__ import annotations

from typing import Sequence

__all__ = ["harmonic_mean"]


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean (the paper's Figure 8(e) aggregates speedups this way)."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("harmonic mean of an empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("harmonic mean requires positive values")
    return len(vals) / sum(1.0 / v for v in vals)
