"""Manager-owned shared memory hierarchy: directory MESI coherence, banked
NUCA L2, shared bus interconnect and DRAM (paper Figure 1's "Lower Level
Cache Hierarchy / Memory" box)."""
