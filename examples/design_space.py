#!/usr/bin/env python3
"""Explore the slack design space: the speed/accuracy trade-off curve the
paper's §6 argues for ("Computer architects are allowed to balance the need
for simulation efficiency and accuracy").

Run:  python examples/design_space.py
"""

from repro.experiments.ablations import render_sweep, sweep_rows
from repro.experiments.parallel import run_sweep
from repro.stats.tables import Table


def ascii_bar(value: float, scale: float, width: int = 40) -> str:
    n = min(width, int(round(value / scale * width)))
    return "#" * n


def main() -> None:
    rows = sweep_rows(run_sweep("ablations", slacks=(1, 2, 4, 9, 25, 100, 400), scale="tiny"))
    max_speed = max(row["speedup"] for row in rows)

    table = Table("A1: bounded-slack design space (fft, 8 host cores)",
                  ["slack", "speedup", "error", "violations", "speed bar"])
    for row in rows:
        table.add_row(row["scheme"], row["speedup"], f"{row['error'] * 100:.2f}%",
                      row["violations"], ascii_bar(row["speedup"], max_speed))
    print(table.render())

    print()
    print(render_sweep(
        "A2: conservative (oldest-first) slack vs the critical latency (10)",
        run_sweep("critical_latency", scale="tiny"),
    ))
    print("\nBelow the critical latency the oldest-first discipline is")
    print("violation-free (paper §3.1); above it, violations appear even")
    print("though requests are processed strictly in timestamp order.")


if __name__ == "__main__":
    main()
