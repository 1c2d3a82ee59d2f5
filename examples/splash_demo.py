#!/usr/bin/env python3
"""Run a SPLASH-2-style benchmark under every slack scheme and compare
speed, accuracy and violations — a miniature of the paper's evaluation.

Run:  python examples/splash_demo.py [fft|lu|barnes|water] [tiny|small|paper]
"""

import sys

from repro.core import run_simulation
from repro.stats.tables import Table
from repro.workloads.registry import make_workload

SCHEMES = ["cc", "q10", "l10", "s9", "s9*", "s100", "su"]


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "fft"
    scale = sys.argv[2] if len(sys.argv) > 2 else "tiny"
    workload = make_workload(name, scale=scale)
    print(f"benchmark: {name} ({workload.input_set}), "
          f"{workload.program.size_insns} instructions of SPISA text\n")

    baseline = run_simulation(workload.program, scheme="cc", host_cores=1)
    gold = run_simulation(workload.program, scheme="cc", host_cores=8)

    table = Table(
        f"{name} on an 8-core target, 8 host cores (baseline: cc on 1 host core)",
        ["scheme", "speedup", "T_target (cyc)", "error", "violations", "correct"],
    )
    for scheme in SCHEMES:
        r = run_simulation(workload.program, scheme=scheme, host_cores=8)
        table.add_row(
            scheme,
            baseline.host_time / r.host_time,
            r.execution_cycles,
            f"{abs(r.execution_cycles - gold.execution_cycles) / gold.execution_cycles * 100:.2f}%",
            r.violations.total,
            "yes" if workload.verify(r.output) else "NO",
        )
    print(table.render())
    print("\nNote how conservative schemes (cc, q10, l10, s9*) report zero")
    print("order violations, while s9/s100/su trade violations for speed —")
    print("yet the program output stays correct in every row (paper §3.2.3).")


if __name__ == "__main__":
    main()
