#!/usr/bin/env python3
"""The paper's violation taxonomy (§3.2, Figures 4-7), reproduced on the
actual substrate objects.

Run:  python examples/violation_anatomy.py
"""

from repro.mem.directory import Directory, ReqKind
from repro.mem.memsys import MemorySystem, MemSysConfig
from repro.violations.detect import ViolationCounters, WordOrderTracker


def figure4_bus() -> None:
    print("=== Figure 4: simulation-state violation (bus occupancy) ===")
    counters = ViolationCounters()
    memsys = MemorySystem(MemSysConfig(bus_transfer_cycles=2), num_cores=2, counters=counters)
    # P1 requests at simulated clock 3 and is serviced first; P2's request
    # from clock 2 reaches the manager later (two blocks, two L2 banks).
    memsys.service(ReqKind.GETS, 0x000, core=0, ts=3)
    grant_p1 = memsys.bus.free_at - 2
    memsys.service(ReqKind.GETS, 0x040, core=1, ts=2)
    grant_p2 = memsys.bus.free_at - 2
    assert (grant_p1, grant_p2, counters.by_resource["bus"]) == (3, 5, 1)
    print(f"P1 requested @3 -> granted @{grant_p1}")
    print(f"P2 requested @2 -> granted @{grant_p2}  (found the bus 'busy'")
    print("   because a request from its simulated future was served first)")
    print(f"bus violations recorded: {counters.by_resource['bus']}\n")


def figure6_directory() -> None:
    print("=== Figures 5-6: simulated-system-state violation (directory) ===")
    counters = ViolationCounters()
    directory = Directory(2, counters)
    addr = 0x500

    def show(label):
        bits, dirty = directory.presence_bits(addr)
        print(f"  {label}: presence bits={bits} dirty={dirty}")

    directory.handle(ReqKind.GETS, addr, core=1, ts=0)  # block clean in P2
    show("initial (P2 has the block)      ")
    # Slack order: P1's read (clock 3) is processed before P2's write (clock 2).
    directory.handle(ReqKind.GETS, addr, core=0, ts=3)
    show("after P1's read  (sim order)    ")
    directory.handle(ReqKind.UPGRADE, addr, core=1, ts=2)
    show("after P2's write (from the past)")
    print("  Cycle-by-cycle order (write first, then read) would end SHARED")
    print("  {P1,P2}+clean — here it ends EXCLUSIVE P2+dirty (Figure 6(c) vs (c')).")
    print(f"  system-state violations recorded: {counters.system_state}\n")


def figure7_word_race() -> None:
    print("=== Figure 7: workload-state violation + fast-forwarding ===")
    counters = ViolationCounters()
    tracker = WordOrderTracker(counters, fastforward=False)
    tracker.observe_load(0x200, core=0, ts=4)   # P1: Load R1, M at clock 4
    tracker.observe_store(0x200, core=1, ts=2)  # P2: Store R2, M at clock 2
    print(f"load@4 then store@2 (same word, other core):"
          f" workload violations = {counters.workload_state}")

    counters2 = ViolationCounters()
    tracker2 = WordOrderTracker(counters2, fastforward=True)
    tracker2.observe_load(0x200, core=0, ts=4)
    ff = tracker2.observe_store(0x200, core=1, ts=2)
    print(f"with compensation: the storing core fast-forwards {ff} cycles so")
    print("the store appears contemporaneous with the load (paper §3.2.3);")
    print(f"fastforwards recorded = {counters2.fastforwards}\n")


def isochrones_note() -> None:
    print("=== Figure 3: why state stays consistent anyway ===")
    print("All manager-side state advances in *simulation-time* order —")
    print("isochrones never cross — so occupancy variables and directory")
    print("entries remain internally consistent; only their mapping onto")
    print("simulated time is distorted.  That is why the benchmarks still")
    print("execute correctly under every scheme (asserted in the test suite).")


if __name__ == "__main__":
    figure4_bus()
    figure6_directory()
    figure7_word_race()
    isochrones_note()
