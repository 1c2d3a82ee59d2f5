#!/usr/bin/env python3
"""Explore the slack design space: the speed/accuracy trade-off curve the
paper's §6 argues for ("Computer architects are allowed to balance the need
for simulation efficiency and accuracy").

Run:  python examples/design_space.py
"""

from repro.experiments.ablations import run_critical_latency_sweep, run_slack_sweep
from repro.stats import Table


def ascii_bar(value: float, scale: float, width: int = 40) -> str:
    n = min(width, int(round(value / scale * width)))
    return "#" * n


def main() -> None:
    points = run_slack_sweep("fft", slacks=(1, 2, 4, 9, 25, 100, 400), scale="tiny")
    max_speed = max(p.speedup for p in points)

    table = Table("A1: bounded-slack design space (fft, 8 host cores)",
                  ["slack", "speedup", "error", "violations", "speed bar"])
    for p in points:
        table.add_row(p.label, p.speedup, f"{p.error * 100:.2f}%", p.violations,
                      ascii_bar(p.speedup, max_speed))
    print(table.render())

    print()
    sweep = run_critical_latency_sweep("fft", slacks=(2, 5, 9, 15, 30, 60), scale="tiny")
    table = Table("A2: conservative (oldest-first) slack vs the critical latency (10)",
                  ["slack*", "speedup", "error", "violations"])
    for p in sweep:
        table.add_row(p.label, p.speedup, f"{p.error * 100:.2f}%", p.violations)
    print(table.render())
    print("\nBelow the critical latency the oldest-first discipline is")
    print("violation-free (paper §3.1); above it, violations appear even")
    print("though requests are processed strictly in timestamp order.")


if __name__ == "__main__":
    main()
