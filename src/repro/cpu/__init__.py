"""Per-core models: architectural state, functional execution, timing cores.

Core threads in the slack engine own one timing core model each (in-order or
NetBurst-like out-of-order) together with its private L1 data cache, mirroring
SlackSim's structure (paper Figure 1).
"""
