#!/usr/bin/env python3
"""Quickstart: compile a parallel Slang program and simulate it under
cycle-by-cycle and bounded-slack synchronization.

Run:  python examples/quickstart.py
"""

from repro.core import run_simulation
from repro.lang import compile_source

# A 4-thread program using the paper's Table 1 API: spawn/join, a lock
# protecting a shared counter, and a barrier.
SOURCE = """
int lk;
int bar;
int histogram[4];
int total;

void worker(int tid) {
    // Each thread tallies its own bucket, then contributes to a shared
    // total under a lock.
    int mine = 0;
    for (int i = 0; i < 25; i = i + 1) {
        mine = mine + (tid + 1);
    }
    histogram[tid] = mine;
    lock(&lk);
    total = total + mine;
    unlock(&lk);
    barrier(&bar);
}

int main() {
    int tids[4];
    init_lock(&lk);
    init_barrier(&bar, 4);
    for (int t = 1; t < 4; t = t + 1) tids[t] = spawn(worker, t);
    worker(0);
    for (int t = 1; t < 4; t = t + 1) join(tids[t]);
    print_int(total);
    for (int i = 0; i < 4; i = i + 1) print_int(histogram[i]);
    return 0;
}
"""


def main() -> None:
    compiled = compile_source(SOURCE, name="quickstart")
    print(f"compiled: {compiled.program.size_insns} SPISA instructions\n")

    # The accuracy gold standard: cycle-by-cycle (0 slack).
    gold = run_simulation(compiled.program, scheme="cc", host_cores=8)
    print("cycle-by-cycle :", gold.summary())
    print("  program output:", gold.int_output())

    # Bounded slack: 9-cycle window (below the 10-cycle critical latency).
    fast = run_simulation(compiled.program, scheme="s9", host_cores=8)
    print("bounded slack 9:", fast.summary())
    print("  program output:", fast.int_output())

    assert fast.int_output() == gold.int_output(), "workload must execute correctly"
    print(f"\nsimulation speedup (s9 vs cc, same host): {gold.host_time / fast.host_time:.2f}x")
    error = abs(fast.execution_cycles - gold.execution_cycles) / gold.execution_cycles
    print(f"timing error: {error * 100:.2f}%")


if __name__ == "__main__":
    main()
