"""Per-core models: architectural state, functional execution, timing cores.

Core threads in the slack engine own one timing core model each (in-order or
NetBurst-like out-of-order) together with its private L1 data cache, mirroring
SlackSim's structure (paper Figure 1).
"""

from repro.cpu.arch import ArchState, TargetFault, TargetMemory
from repro.cpu.branch import GsharePredictor
from repro.cpu.funcsim import do_amo, do_load, do_store, effective_address, execute
from repro.cpu.interfaces import CorePhase
from repro.cpu.l1cache import MESI, AccessResult, L1Cache, L1Config
from repro.cpu.predecode import PredecodedProgram, predecode_program


def __getattr__(name: str):
    # The timing cores pull in repro.core (events) which pulls in the engine
    # and the loader, the interpreter pulls in the loader and the system
    # emulation, and the loader imports back into this package.  Loading
    # them lazily keeps `import repro.cpu` a leaf, so any package import
    # order (workloads-first, sysapi-first, ...) resolves cleanly.
    if name in ("FunctionalInterpreter", "InterpResult", "run_functional"):
        from repro.cpu import interp

        return getattr(interp, name)
    if name == "InOrderCore":
        from repro.cpu.inorder import InOrderCore

        return InOrderCore
    if name == "OoOCore":
        from repro.cpu.ooo import OoOCore

        return OoOCore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ArchState",
    "TargetFault",
    "TargetMemory",
    "GsharePredictor",
    "do_amo",
    "do_load",
    "do_store",
    "effective_address",
    "execute",
    "InOrderCore",
    "CorePhase",
    "FunctionalInterpreter",
    "InterpResult",
    "run_functional",
    "MESI",
    "AccessResult",
    "L1Cache",
    "L1Config",
    "OoOCore",
    "PredecodedProgram",
    "predecode_program",
]
