"""User-level system emulation (paper §4): syscalls trapped out of the
target and emulated outside the simulator — Table 1 synchronization
primitives, workload threads, heap and I/O."""
