"""Manager-owned shared memory hierarchy: directory MESI coherence, banked
NUCA L2, shared bus interconnect and DRAM (paper Figure 1's "Lower Level
Cache Hierarchy / Memory" box)."""

from repro.mem.directory import Directory, DirState, ReqKind
from repro.mem.dram import Dram
from repro.mem.interconnect import Bus
from repro.mem.l2nuca import L2Config, L2Nuca
from repro.mem.memsys import MemorySystem, MemSysConfig

__all__ = [
    "Directory",
    "DirState",
    "ReqKind",
    "Dram",
    "Bus",
    "L2Config",
    "L2Nuca",
    "MemorySystem",
    "MemSysConfig",
]
