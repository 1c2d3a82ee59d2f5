"""Configuration dataclasses for target, host and simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.l1cache import L1Config
from repro.mem.memsys import MemSysConfig

__all__ = ["TargetConfig", "HostConfig", "SimConfig"]


@dataclass(frozen=True)
class TargetConfig:
    """The simulated CMP (paper §4.1: 8-core, 16KB I/D L1, 256KB shared L2)."""

    num_cores: int = 8
    core_model: str = "inorder"  # "inorder" | "ooo" | "trace"
    l1: L1Config = field(default_factory=L1Config)
    memsys: MemSysConfig = field(default_factory=MemSysConfig)
    #: Model the instruction cache (adds GETS traffic for text fetches).
    model_icache: bool = False
    memory_bytes: int = 16 * 1024 * 1024
    stack_bytes: int = 256 * 1024
    #: Out-of-order core parameters (paper: 4-wide, 64 in-flight).
    ooo_width: int = 4
    ooo_rob: int = 64
    branch_predictor: str = "gshare"
    mispredict_penalty: int = 8

    def __post_init__(self) -> None:
        # ``ooo_width=0`` never dispatches: the run spins to ``max_cycles``
        # before anything reports it.
        for name, floor in (
            ("num_cores", 1), ("ooo_width", 1), ("ooo_rob", 1), ("mispredict_penalty", 0),
        ):
            if getattr(self, name) < floor:
                raise ValueError(f"{name}={getattr(self, name)} must be >= {floor}")


@dataclass(frozen=True)
class HostConfig:
    """The *modeled* host CMP (DESIGN.md §2: virtual-host substitution).

    Costs are in abstract host-time units (think microseconds of host work).
    They were calibrated once against the paper's Table 2 baseline
    (~100-130 KIPS for 9 simulation threads on one host core) and are the
    same for every scheme — only the synchronization structure differs.
    """

    num_cores: int = 8
    #: Host work to simulate one active target-core cycle.
    cycle_cost: float = 1.0
    #: Host work for a stalled/idle target cycle (spin/wait loops are cheap).
    idle_cycle_cost: float = 0.25
    #: Host work per target cycle advanced inside a batched wait-stretch jump
    #: (clock bookkeeping only — the simulator does not execute these cycles).
    skip_cycle_cost: float = 0.02
    #: Host work per wait-stretch jump (the O(1) overhead of one skip).
    skip_stretch_cost: float = 0.3
    #: Extra host work per event generated or consumed by a core thread.
    event_cost: float = 1.5
    #: Host work for the manager to service one GQ request.
    manager_request_cost: float = 2.0
    #: Host work for one manager polling pass that finds nothing to do.
    manager_poll_cost: float = 0.4
    #: Cost to suspend a thread (futex sleep) when it hits its window edge.
    suspend_cost: float = 0.8
    #: Cost to wake a suspended thread (paid when its window reopens).
    wake_cost: float = 1.5
    #: Extra serial delay per *additional* thread woken by the same step:
    #: futex wake-ups leave the waker one at a time, so a barrier reopening
    #: all N cores hands off its wakes in a chain while a slack window raise
    #: typically wakes a single core.
    wake_fanout_cost: float = 0.2
    #: Lognormal sigma of multiplicative per-batch cost jitter (models
    #: instruction-mix variance across threads; drives load imbalance).
    jitter_sigma: float = 0.25


@dataclass(frozen=True)
class SimConfig:
    """One simulation run."""

    #: Slack scheme: "cc", "qN", "lN", "sN", "sN*", "su".
    scheme: str = "cc"
    seed: int = 1
    #: Maximum target cycles before the engine aborts (safety net).
    max_cycles: int = 50_000_000
    #: Maximum committed instructions (0 = run to completion), mirroring the
    #: paper's fixed 100M-instruction runs.
    max_instructions: int = 0
    #: Track conflicting same-word accesses (workload-state violations).
    detect_violations: bool = True
    #: Compensate detected workload violations by fast-forwarding (§3.2.3).
    fastforward: bool = False
    #: Extra cap on target cycles per engine turn (0 = uncapped: turns are
    #: sized by the scheme's grant alone).  Figure 2 sets 1 to probe the
    #: clock protocol at single-cycle granularity.
    batch_cycles: int = 0
    #: Hard cap on target cycles per engine turn, independent of the scheme's
    #: slack grant (0 = uncapped).  A sequential turn is the de-facto
    #: concurrency granule: while one core runs, no other core's coherence
    #: traffic can reach it, so an unbounded turn would let a core run to
    #: completion without ever observing an invalidation.  Keep this well
    #: above the typical wait stretch (so batching still pays) but small
    #: enough that cross-core traffic interleaves.
    turn_cycles: int = 64
    #: Cycles a core burns waiting on external input (a manager response)
    #: before yielding its turn.  Bounds de-facto turn size under su.
    wait_chunk: int = 16
    #: Snapshot the stats registry every N target cycles (0 = off).  The
    #: check rides the manager-step branch — the first manager step at or
    #: after each N-cycle global-time boundary records one snapshot — so the
    #: per-cycle simulate loop never sees it.
    stats_interval: int = 0
    #: Fault-injection plan spec (see :mod:`repro.faults`), e.g.
    #: ``"overrun_window:core=2,at=500,extra=256"``.  None (default) leaves
    #: the engine entirely unhooked — fault seams cost nothing when unused.
    fault_plan: str | None = None
    #: Write a checkpoint every N target cycles of global time (0 = off).
    #: Like stats_interval, the check rides the manager-step branch.
    checkpoint_interval: int = 0
    #: Where checkpoints land (a single file, atomically replaced).  A
    #: nonzero checkpoint_interval with no path is a configuration error.
    checkpoint_path: str | None = None
    #: Trace subsystem (DESIGN.md §11): "off" (default) leaves both seams
    #: unhooked; "capture" records the committed-op stream at the timing-core
    #: → memory seam into ``trace_path``; "replay" re-simulates a recorded
    #: stream under *this* run's scheme/window/memory config without
    #: re-executing the functional cores.
    trace_mode: str = "off"
    #: Trace file to write (capture) or read (replay).
    trace_path: str | None = None
    #: Optional JSON object describing the capture's provenance (workload
    #: name, parameters, workload seed); stored in the trace header and
    #: surfaced by ``repro trace info``.
    trace_source: str | None = None

    def __post_init__(self) -> None:
        # Turn-shaping fields arrive from outside (CLI, serve wire): a zero
        # wait_chunk makes a blind external wait take zero-cycle turns until
        # the idle-poll limit reports a bogus deadlock, and a negative cap
        # silently simulates something else.
        if self.wait_chunk < 1:
            raise ValueError(f"wait_chunk must be >= 1, got {self.wait_chunk}")
        for name in ("turn_cycles", "batch_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0 (0 = uncapped), got {getattr(self, name)}"
                )
