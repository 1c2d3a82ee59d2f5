"""Deterministic sequential engine: SlackSim on the virtual host.

This engine runs the exact thread structure of the paper — N core threads
plus one simulation manager thread — as coroutine-style batches interleaved
by a deterministic virtual-host schedule (DESIGN.md §2, "virtual host"
substitution).  Each batch's host cost comes from the calibrated
:class:`~repro.host.costmodel.CostModel`; batches are ordered by a priority
queue of host-ready times, so a single seed fixes both the modeled host
timeline *and* the target-side event interleaving.  That one coherent model
yields Figure 8 (speedups from host makespans) and Table 3 (errors from
target cycle counts) without real parallel hardware.

Thread-state protocol per core thread:

* runnable: in the host queue; runs batches of up to ``batch_cycles``;
* suspended: hit its window edge (``local == max_local``); leaves the queue
  and pays a suspend cost; the manager re-queues it (plus wake cost) when
  the scheme raises its window — this is exactly the futex sleep/wake cost
  structure that makes cycle-by-cycle synchronization expensive on a real
  host;
* done: its workload thread exited.
"""

from __future__ import annotations

import heapq
import itertools
import json
import weakref

from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.corethread import BatchStats, CoreState, CoreThread
from repro.core.manager import SimulationManager
from repro.core.results import CoreResult, SimulationResult
from repro.core.schemes import INFINITY, Lookahead, parse_scheme
from repro.cpu.arch import ArchState
from repro.cpu.interfaces import WAIT_EXTERNAL, CorePhase
from repro.cpu.l1cache import L1Cache
from repro.host.costmodel import CostModel
from repro.host.hostmodel import HostModel
from repro.isa.program import Program
from repro.mem.memsys import MemorySystem
from repro.stats.registry import Distribution, StatsRegistry
from repro.sysapi.loader import load_program
from repro.sysapi.system import SystemEmulation
from repro.violations.detect import ViolationCounters, WordOrderTracker

__all__ = ["SequentialEngine", "EngineError", "run_simulation"]


class EngineError(RuntimeError):
    """The engine detected deadlock, runaway simulation or misconfiguration."""


#: The three event-free one-cycle turns the barrier superstep inlines, as the
#: ``BatchStats`` ``step_many(1)`` returns for them: what it hands
#: ``CostModel.core_batch_cost``, so the cost expression keeps its one home.
_ONE_ACTIVE = BatchStats(cycles=1, active_cycles=1, hit_window_edge=True)
_ONE_IDLE = BatchStats(cycles=1, idle_cycles=1, hit_window_edge=True)
_ONE_SKIP = BatchStats(cycles=1, skipped_cycles=1, skip_stretches=1, hit_window_edge=True)


class SequentialEngine:
    """Build and run one simulation of *program* under one scheme."""

    #: Barriers that ran inside the barrier superstep (``run``; DESIGN.md §5).
    #: Like ``manager_polls`` it is folded by ``sync_stats``; unlike it, it is
    #: not in the stats registry, whose dump is embedded in store records and
    #: sweep documents.  A class default, so a checkpoint written before the
    #: counter existed restores with 0.
    fused_barriers = 0

    def __init__(
        self,
        program: Program | None,
        *,
        target: TargetConfig | None = None,
        host: HostConfig | None = None,
        sim: SimConfig | None = None,
        trace_cores: list | None = None,
        stepping: str = "batched",
        dispatch: str = "predecoded",
    ) -> None:
        self.target = target or TargetConfig()
        self.host_cfg = host or HostConfig()
        self.sim = sim or SimConfig()
        # Equivalence oracles (DESIGN.md §5/§6), not run configuration: the
        # differential and golden tests pass them; they travel with the
        # engine pickle so a restored run keeps its mode.
        if stepping not in ("batched", "single"):
            raise EngineError(f"unknown stepping mode {stepping!r}")
        self._single = stepping == "single"
        self._dispatch = dispatch
        self.scheme = parse_scheme(self.sim.scheme)
        # Trace subsystem (DESIGN.md §11).
        self._capture = None          # TraceRecorder while capturing
        self._capture_header = None   # non-None while a capture is armed
        self._replay_ops = None       # replay: per-core op streams
        trace_mode = self.sim.trace_mode
        if trace_mode not in ("off", "capture", "replay"):
            raise EngineError(f"unknown trace_mode {trace_mode!r}")
        if trace_mode != "off":
            from repro.trace import capture as _tcapture
            from repro.trace import format as _tformat

            if not self.sim.trace_path:
                raise EngineError(f"trace_mode={trace_mode!r} requires trace_path")
            if trace_cores is not None:
                raise EngineError(
                    f"trace {trace_mode} records and replays programs; "
                    "trace_cores are already a script"
                )
        if trace_mode == "capture":
            for reason, bad in (
                ("fault injection perturbs the committed stream",
                 self.sim.fault_plan),
                ("a checkpointed capture could restore into a half-written stream",
                 self.sim.checkpoint_interval),
                ("a max_instructions cut records a partial execution",
                 self.sim.max_instructions),
            ):
                if bad:
                    raise EngineError(f"trace capture refused: {reason}")
            if program is None:
                raise EngineError("either a program or trace_cores is required")
            self._require_commit_seam("capture")
            l1c = self.target.l1
            self._capture = _tcapture.TraceRecorder(self.target.num_cores)
            # Deliberately no scheme and no sim seed in the header: the
            # stream is invariant to both, so re-capturing the same
            # execution under any scheme/seed yields a byte-identical
            # file (tests/trace pins this).
            self._capture_header = {
                "flavor": "program",
                "program_digest": _tformat.program_digest(program),
                "source": (
                    json.loads(self.sim.trace_source) if self.sim.trace_source else None
                ),
                "l1": {
                    "size_bytes": l1c.size_bytes, "block_bytes": l1c.block_bytes,
                    "assoc": l1c.assoc, "hit_latency": l1c.hit_latency,
                },
            }
        elif trace_mode == "replay":
            trace = _tformat.read_trace(self.sim.trace_path)
            if trace.flavor != "program":
                raise EngineError(
                    f"trace {self.sim.trace_path!r} has flavor {trace.flavor!r}; "
                    "only 'program' captures replay"
                )
            if trace.num_cores != self.target.num_cores:
                raise EngineError(
                    f"trace was captured on {trace.num_cores} cores; "
                    f"this target has {self.target.num_cores}"
                )
            self._require_commit_seam("replay")
            if program is not None:
                # The validity key: replaying against a program whose
                # digest differs from the recorded one is refused outright.
                digest = _tformat.program_digest(program)
                recorded = trace.header.get("program_digest")
                if digest != recorded:
                    raise EngineError(
                        f"stale trace {self.sim.trace_path!r}: recorded "
                        f"program digest {str(recorded)[:16]}… does not match "
                        f"this program ({digest[:16]}…) — re-capture"
                    )
            self._replay_ops = trace.core_ops
        self.counters = ViolationCounters()
        self.tracker = (
            WordOrderTracker(self.counters, self.sim.fastforward)
            if self.sim.detect_violations
            else None
        )
        self.memsys = MemorySystem(self.target.memsys, self.target.num_cores, self.counters)
        self.hostmodel = HostModel(self.host_cfg.num_cores)
        self.costmodel = CostModel(self.host_cfg, self.sim.seed, self.target.num_cores)
        self.system: SystemEmulation | None = None
        self._pending_activations: list[int] = []
        self._grant_needs_oldest = isinstance(self.scheme, Lookahead)
        # Combined turn_cycles/batch_cycles cap (0 in config = uncapped).
        cap = self.sim.turn_cycles if self.sim.turn_cycles else INFINITY
        if self.sim.batch_cycles and self.sim.batch_cycles < cap:
            cap = self.sim.batch_cycles
        self._turn_cap = cap
        self._active_cores = 0
        self.total_committed = 0
        self.engine_steps = 0
        # Host-loop mechanics counters (digest=False in the registry: they
        # describe how the engine scheduled the work, not the simulated
        # target, mirroring the goldens' exclusion of engine_steps).
        self.manager_steps = 0
        self.manager_polls = 0
        self.suspends = 0
        self.wakes_delivered = 0
        self.parks = 0
        self._completed = False
        self._next_snapshot = self.sim.stats_interval or 0
        self._next_checkpoint = self.sim.checkpoint_interval or 0
        if self.sim.checkpoint_interval:
            if not self.sim.checkpoint_path:
                raise EngineError("checkpoint_interval set without checkpoint_path")
            if self.sim.fault_plan:
                raise EngineError(
                    "checkpointing a fault-injected run is unsupported "
                    "(fault hooks are closures and would not survive restore)"
                )
        #: Optional probe(host_time, global_time, locals) called after every
        #: manager step — used by the Figure 2 scheme-anatomy experiment.
        self.probe = None

        if trace_cores is not None:
            self.image = None
            self.cores = [CoreThread(i, model) for i, model in enumerate(trace_cores)]
            for ct in self.cores:
                ct.model.emit = ct.outq.push  # type: ignore[attr-defined]
        elif self._replay_ops is not None:
            # Replay: the in-order pipeline behind its trace front end
            # (ReplayCore), and ReplaySystem — the image-free half of the
            # system emulation — fed recorded, resolved arguments.
            # No image, no registers, no predecode.
            from repro.trace.replay import ReplayCore, ReplaySystem

            self.image = None
            self.system = ReplaySystem(self.target.num_cores)
            self.cores = []
            for i in range(self.target.num_cores):
                ct = CoreThread(i, None)
                ct.model = ReplayCore(
                    i, self._replay_ops[i], L1Cache(self.target.l1),
                    ct.outq.push, self.system,
                    word_tracker=self.tracker,
                    fastforward=self.sim.fastforward,
                )
                self.cores.append(ct)
        else:
            if program is None:
                raise EngineError("either a program or trace_cores is required")
            self.image = load_program(
                program,
                num_contexts=self.target.num_cores,
                memory_bytes=self.target.memory_bytes,
                stack_bytes=self.target.stack_bytes,
            )
            self.system = SystemEmulation(self.image, self.target.num_cores)
            self.cores = []
            for i in range(self.target.num_cores):
                ct = CoreThread(i, None)
                model = self._build_core_model(i, program, ct)
                model.bind_context(ArchState(context_id=i))
                ct.model = model
                self.cores.append(ct)
        self.manager = SimulationManager(self.cores, self.memsys, self.scheme)
        # Fault injection (DESIGN.md §8): hooks install only when a plan is
        # configured, so the default engine carries zero fault-path overhead.
        self.faults = None
        if self.sim.fault_plan:
            from repro.faults import parse_fault_plan

            self.faults = parse_fault_plan(self.sim.fault_plan, seed=self.sim.seed)
            self.faults.install(self)
        # The slack histogram is the registry's one direct-write stat, fed
        # from the run loop; the registry itself is built lazily (first
        # access) so engine construction stays off the simulate fast path.
        self._registry: StatsRegistry | None = None
        self._slack_dist = Distribution(
            "scheme.slack_cycles",
            desc="local_time - global_time sampled after every core turn",
        )

        if trace_cores is not None:
            for ct in self.cores:
                self._start_core(ct, pc=0, arg=0, ts=0)
        elif self._replay_ops is not None:
            # Replay starts like a program run: core 0 only; the recorded
            # spawn ops activate the rest at their recorded commit points.
            self._start_core(self.cores[0], pc=0, arg=0, ts=0)
        else:
            assert self.image is not None
            self._init_registers(0, tid=0)
            self._start_core(self.cores[0], pc=self.image.program.entry, arg=0, ts=0)

    def _require_commit_seam(self, what: str) -> None:
        """A trace is the in-order pipeline's D-side commit stream: any other
        target would record, or be re-timed as, a model it is not."""
        if self.target.core_model != "inorder":
            raise EngineError(
                f"trace {what} requires the inorder core model "
                f"(the commit seam is its pipeline), not "
                f"{self.target.core_model!r}"
            )
        if self.target.model_icache:
            raise EngineError(
                f"trace {what} covers the D-side seam only; disable model_icache"
            )

    def _build_core_model(self, core_id: int, program: Program, ct: CoreThread):
        """Instantiate the configured core model (inorder | ooo)."""
        assert self.image is not None and self.system is not None
        common = dict(
            l1i=L1Cache(self.target.l1) if self.target.model_icache else None,
            word_tracker=self.tracker,
            fastforward=self.sim.fastforward,
            dispatch=self._dispatch,
        )
        if self.target.core_model == "inorder":
            from repro.cpu.inorder import InOrderCore

            return InOrderCore(
                core_id, program, self.image.memory, L1Cache(self.target.l1),
                ct.outq.push, self.system,
                tracer=(
                    self._capture.cores[core_id]
                    if self._capture is not None
                    else None
                ),
                **common,
            )
        if self.target.core_model == "ooo":
            from repro.cpu.ooo import OoOCore

            return OoOCore(
                core_id, program, self.image.memory, L1Cache(self.target.l1),
                ct.outq.push, self.system,
                width=self.target.ooo_width,
                rob_size=self.target.ooo_rob,
                predictor=self.target.branch_predictor,
                mispredict_penalty=self.target.mispredict_penalty,
                **common,
            )
        raise EngineError(f"unknown core model {self.target.core_model!r}")

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        """Checkpoint hook (:mod:`repro.core.checkpoint`).

        The registry is a web of dump-time lambdas over the components — it
        is dropped and lazily rebuilt on first access after restore (the
        direct-write ``_slack_dist`` travels and is simply re-registered).
        The probe is an experiment-side observer, not simulation state.
        """
        state = dict(self.__dict__)
        state["_registry"] = None
        state["probe"] = None
        return state

    # -------------------------------------------------------------- registry
    @property
    def registry(self) -> StatsRegistry:
        """The run's hierarchical stats registry, built on first access.

        Lazy so the ~150 stat registrations (and their dump-time lambdas)
        are never paid by callers that only need the simulation outcome —
        the perf benches construct thousands of engines per session.  The
        engine owns it, so its sources reach the engine through a weak
        proxy — a strong one would make every dumped engine a reference
        cycle.  It dumps while its engine lives (a result keeps the engine).
        """
        if self._registry is None:
            self._registry = self._build_registry()
        return self._registry

    def _execution_cycles(self) -> int:
        """Target execution time (last thread exit, or global time if cut)."""
        ran = [ct for ct in self.cores if ct.ever_active]
        if self._completed and ran:
            return max(ct.final_time for ct in ran)
        return self.manager.global_time

    def _build_registry(self) -> StatsRegistry:
        """Wire every instrumented layer into one hierarchical registry.

        All stats except ``scheme.slack_cycles`` are lazy *sources* over the
        components' plain counters, so registration costs nothing on the
        simulate path; values resolve at dump time.  Host-loop mechanics
        (engine scheduling, modeled host makespan) register with
        ``digest=False``: they are not simulated-target behaviour (a run on
        real threads would replace host time with wall clock).
        """
        reg = StatsRegistry()
        eng = weakref.proxy(self)  # see ``registry``: no cycle through it

        sim = reg.group("sim")
        sim.scalar("scheme", source=lambda: eng.scheme.name)
        sim.scalar("seed", source=lambda: eng.sim.seed)
        sim.scalar("target_cores", source=lambda: eng.target.num_cores)
        sim.scalar("host_cores", source=lambda: eng.host_cfg.num_cores)
        sim.scalar("completed", source=lambda: int(eng._completed))

        engine = reg.group("engine")
        for name in (
            "engine_steps", "manager_steps", "manager_polls",
            "suspends", "wakes_delivered", "parks", "total_committed",
        ):
            engine.scalar(
                name if name != "engine_steps" else "steps",
                source=(lambda n=name: getattr(eng, n)),
                digest=False,
            )
        # One slack sample lands per core turn, so the histogram count IS
        # the turn count — no separate hot-loop counter needed.
        engine.scalar(
            "core_turns", source=lambda: eng._slack_dist.count, digest=False
        )

        host = reg.group("host")
        host.scalar("makespan", source=eng.hostmodel.makespan, digest=False)
        host.scalar("busy", source=lambda: eng.hostmodel.busy, digest=False)
        host.scalar("steps", source=lambda: eng.hostmodel.steps, digest=False)
        host.formula(
            "utilization",
            lambda: eng.hostmodel.busy
            / (eng.hostmodel.makespan() * eng.host_cfg.num_cores),
        )

        scheme = reg.group("scheme")
        scheme.scalar("slack", source=lambda: eng.scheme.slack)
        scheme.scalar("gq_policy", source=lambda: eng.scheme.gq_policy)
        scheme.scalar(
            "window_stalls",
            source=lambda: sum(ct.window_edge_hits for ct in eng.cores),
        )
        reg._register(eng._slack_dist)  # created eagerly, fed by the run loop

        manager = reg.group("manager")
        manager.scalar("requests", source=lambda: eng.manager.requests_processed)
        manager.scalar("barriers", source=lambda: eng.manager.barriers_completed)
        manager.scalar("windows_raised", source=lambda: eng.manager.windows_raised)
        manager.scalar("events_drained", source=lambda: eng.manager.events_drained)
        manager.scalar("gq.max_depth", source=lambda: eng.manager.gq_max_depth)

        target = reg.group("target")
        target.scalar("execution_cycles", source=lambda: eng._execution_cycles())
        target.scalar("global_time", source=lambda: eng.manager.global_time)
        target.scalar("instructions", source=lambda: eng.total_committed)

        for ct in eng.cores:
            core = reg.group(f"core{ct.core_id}")
            for name, attr in (
                ("committed", "total_committed"),
                ("cycles", "total_cycles"),
                ("window_edge_hits", "window_edge_hits"),
                ("final_time", "final_time"),
            ):
                core.scalar(name, source=(lambda c=ct, a=attr: getattr(c, a)))
            core.formula(
                "ipc", lambda c=ct: c.total_committed / c.total_cycles
            )
            model = ct.model
            if hasattr(model, "stall_cycles"):
                core.scalar(
                    "stall_cycles", source=(lambda m=model: m.stall_cycles)
                )
            for cache_name in ("l1d", "l1i"):
                cache = getattr(model, cache_name, None)
                if cache is None:
                    continue
                grp = core.group(cache_name)
                for field in (
                    "accesses", "hits", "misses", "upgrades",
                    "invalidations_received", "downgrades_received",
                    "writebacks",
                ):
                    grp.scalar(
                        field, source=(lambda s=cache.stats, f=field: getattr(s, f))
                    )
                grp.formula("miss_rate", lambda s=cache.stats: s.misses / s.accesses)
            predictor = getattr(model, "predictor", None)
            if predictor is not None and hasattr(predictor, "stats"):
                grp = core.group("branch")
                grp.scalar("lookups", source=lambda s=predictor.stats: s.lookups)
                grp.scalar("correct", source=lambda s=predictor.stats: s.correct)
                grp.formula("accuracy", lambda s=predictor.stats: s.correct / s.lookups)

        mem = reg.group("mem")
        mem.scalar("requests_serviced", source=lambda: eng.memsys.requests_serviced)
        bus = mem.group("bus")
        for field in ("transfers", "busy_cycles", "contention_cycles"):
            bus.scalar(field, source=(lambda f=field: getattr(eng.memsys.bus.stats, f)))
        l2 = mem.group("l2")
        for field in (
            "accesses", "hits", "misses", "writebacks_in",
            "bank_conflict_cycles", "hop_cycles",
        ):
            l2.scalar(field, source=(lambda f=field: getattr(eng.memsys.l2.stats, f)))
        l2.vector("bank_accesses", lambda: eng.memsys.l2.bank_accesses)
        l2.formula(
            "miss_rate",
            lambda: eng.memsys.l2.stats.misses / eng.memsys.l2.stats.accesses,
        )
        dram = mem.group("dram")
        for field in ("accesses", "queue_cycles", "row_activations"):
            dram.scalar(field, source=(lambda f=field: getattr(eng.memsys.dram.stats, f)))
        directory = mem.group("directory")
        for field in (
            "requests", "invalidations_sent", "downgrades_sent",
            "cache_to_cache_transfers",
        ):
            directory.scalar(
                field, source=(lambda f=field: getattr(eng.memsys.directory, f))
            )

        if eng.faults is not None:
            faults = reg.group("faults")
            faults.scalar("specs", source=lambda: len(eng.faults.specs))
            faults.scalar("injected", source=lambda: len(eng.faults.fired))

        violations = reg.group("violations")
        for field in (
            "simulation_state", "system_state", "workload_state",
            "fastforwards", "fastforward_cycles",
        ):
            violations.scalar(
                field, source=(lambda f=field: getattr(eng.counters, f))
            )
        violations.vector("by_resource", lambda: eng.counters.by_resource)

        if eng.system is not None:
            sync = reg.group("sync")
            stats = eng.system.sync.stats
            for field in (
                "lock_acquires", "lock_contended", "barrier_episodes",
                "sema_waits", "sema_blocked",
            ):
                sync.scalar(field, source=(lambda s=stats, f=field: getattr(s, f)))
        return reg

    # ------------------------------------------------------------ activation
    def _init_registers(self, core: int, tid: int) -> None:
        assert self.image is not None
        state = self.cores[core].model.state
        state.set_x(2, self.image.stack_top(core))   # sp
        state.set_x(4, tid)                          # tp
        state.set_x(1, self.image.thread_exit_pc)    # ra -> exit stub

    def _start_core(self, ct: CoreThread, pc: int, arg: int, ts: int) -> None:
        ct.activate(pc, arg, ts)
        ct.max_local_time = max(self.manager.current_max_local(), ts)

    def _activate_context(self, core: int, pc: int, arg: int, ts: int) -> None:
        """SystemEmulation spawn hook: start a workload thread on *core*."""
        assert self.system is not None
        if self.image is not None:
            # Replay cores carry no architectural state to initialize.
            tid = next(
                t.tid for t in self.system.threads.values() if t.core == core and t.state == "running"
            )
            self._init_registers(core, tid)
        self._start_core(self.cores[core], pc, arg, ts)
        self._active_cores += 1
        self._pending_activations.append(core)

    # ------------------------------------------------------------------- run
    def _all_done(self) -> bool:
        return all(ct.state != CoreState.ACTIVE for ct in self.cores)

    def _turn_budget(self, ct: CoreThread) -> int:
        """Target cycles this core may run in one engine turn.

        The scheme's grant (quantum/window/lookahead remainder) clamped by
        the core's own window edge, the optional ``batch_cycles`` cap, and
        the ``max_cycles`` safety net (the budget may exceed it by one so
        the runaway guard still fires).
        """
        local = ct.local_time
        manager = self.manager
        if self._grant_needs_oldest:
            budget = self.scheme.grant(manager.global_time, local, manager.gq.oldest_ts())
        else:
            # Inlined default Scheme.grant: max(0, max_local(global) - local).
            budget = self.scheme.max_local(manager.global_time) - local
            if budget < 0:
                budget = 0
        window = ct.max_local_time - local
        if window < budget:
            budget = window
        if self._turn_cap < budget:
            budget = self._turn_cap
        net = self.sim.max_cycles + 1 - local
        if net < budget:
            budget = net
        return budget if budget > 0 else 1

    def run(self) -> SimulationResult:
        """Run the simulation to completion (or its ``max_instructions`` cut).

        The system emulation's spawn hook is bound to this engine for the
        duration of the run only: a built, finished or restored engine holds
        no reference to itself, so dropping it frees it (and its target
        image) by reference counting.
        """
        system = self.system
        if system is not None:
            system.activate_context = self._activate_context
        try:
            return self._run()
        finally:
            if system is not None:
                system.activate_context = None

    def _run(self) -> SimulationResult:
        sim = self.sim
        # A restored engine carries the loop-local snapshot its checkpoint
        # recorded (see _write_checkpoint); a fresh engine has none.
        resume = self.__dict__.pop("_resume", None)
        heap: list[tuple[float, int, int]] = []  # (ready, seq, idx); idx -1 = manager
        seq = itertools.count(0 if resume is None else resume["seq_next"])
        nxt = seq.__next__
        cores = self.cores
        manager = self.manager
        costmodel = self.costmodel
        hostrun = self.hostmodel.run
        poll_until = self.hostmodel.poll_until
        heappush, heappop = heapq.heappush, heapq.heappop
        # Hot-loop hoists: none of these can change mid-run.
        probe = self.probe
        # Time-triggered faults ride the manager branch; None when the plan
        # has no pending timed faults (or no plan at all), so the common case
        # pays one identity check per manager step and nothing per turn.
        fault_tick = (
            self.faults.on_manager_step
            if self.faults is not None and self.faults.needs_tick()
            else None
        )
        suspend_cost = self.host_cfg.suspend_cost
        wake_cost = costmodel.wake_cost
        fanout_cost = costmodel.wake_fanout_cost
        turn_budget = self._turn_budget
        core_batch_cost = costmodel.core_batch_cost
        if self.faults is not None:
            turn_budget, core_batch_cost = self.faults.wrap_turn(
                manager, turn_budget, core_batch_cost
            )
        manager_step_cost = costmodel.manager_step_cost
        if resume is None:
            suspended = [False] * len(cores)
        else:
            suspended = list(resume["suspended"])
        # Parked: blocked on external input with an empty InQ — the core
        # cannot progress until the manager delivers (or a peer releases a
        # blocking syscall), so it is not rescheduled until then.  This is
        # the InQ-empty block of a real implementation; without it, an
        # unbounded-slack core pays a polling turn per response round-trip.
        parked = [False] * len(cores) if resume is None else list(resume["parked"])
        # Host time at which each core thread's last scheduled step finishes.
        # A wake (window raise, delivery, release) is produced at the *waker's*
        # completion time, which can precede the wakee's — a turn's target
        # effects are visible at pop time, but its host cost is still being
        # paid.  One pthread cannot run on two host cores at once, so every
        # push for a core clamps to the core's own availability.
        next_free = [0.0] * len(cores) if resume is None else list(resume["next_free"])
        batched = [hasattr(ct.model, "wait_state") for ct in cores]
        # Parking is only deadlock-free when the blocked core's own clock is
        # not needed for its wake to be produced.  A memory response needs
        # the manager to service the GQ — gated on global time under the
        # conservative policies, so only "immediate" schemes may park on it.
        # A spin wait (lock/barrier) needs *another core* to run, which
        # window-bounded schemes won't allow while this core pins global
        # time, so only unbounded slack may park on it.
        park_pending = self.scheme.gq_policy == "immediate"
        park_spin = self.scheme.slack >= INFINITY
        # Under a barrier policy the manager provably does nothing until every
        # active core has reached the barrier (or a core has OutQ traffic to
        # drain): a manager step before that returns (0, 0, []) and charges
        # the jitter-free poll cost — exactly what elision charges.  So core
        # turns only mark the manager dirty on events/wakes/state changes or
        # when their suspension completes the barrier, which removes ~2/3 of
        # the Python-level manager steps under cc/qN at identical results.
        # Adaptive quantum is excluded: its adapt() hook reads global time,
        # which even a does-nothing manager step advances, so for it idle
        # steps are not side-effect-free.
        barrier_policy = (
            self.scheme.gq_policy == "barrier"
            and getattr(self.scheme, "adapt", None) is None
        )
        n_susp = 0 if resume is None else resume["n_susp"]
        single = self._single
        # Barrier superstep (the fused branch of the manager arm below).  The
        # three bypasses: ``stepping="single"`` stays the per-cycle oracle —
        # and thereby this branch's; a probe wants a sample per manager step;
        # a fault plan wraps ``turn_budget`` and ``core_batch_cost``, the very
        # callables the branch inlines.
        fusable = (
            barrier_policy and not single and probe is None and self.faults is None
        )
        scheme_max_local = self.scheme.max_local
        outqs = [ct.outq._q for ct in cores]
        inqs = [ct.inq._heap for ct in cores]
        pending_activations = self._pending_activations
        max_insn = sim.max_instructions
        HALTED = CorePhase.HALTED
        wait_chunk = sim.wait_chunk
        snap_interval = sim.stats_interval
        cp_interval = sim.checkpoint_interval
        # Engine counters and the slack histogram live in hoisted locals for
        # the duration of the loop (a per-turn ``self.x += 1`` or a
        # ``Distribution.add`` call costs real throughput at cc turn rates);
        # ``sync_stats`` folds them back before any registry dump.
        engine_steps = self.engine_steps
        manager_steps = self.manager_steps
        manager_polls = self.manager_polls
        suspends = self.suspends
        wakes_delivered = self.wakes_delivered
        parks = self.parks
        fused_barriers = self.fused_barriers
        slack_dist = self._slack_dist
        slack_buckets = slack_dist.buckets  # shared list, updated in place
        s_count = 0
        s_total = 0
        s_min = 1 << 63
        s_max = -1

        def sync_stats() -> None:
            nonlocal s_count, s_total, s_min, s_max
            self.engine_steps = engine_steps
            self.manager_steps = manager_steps
            self.manager_polls = manager_polls
            self.suspends = suspends
            self.wakes_delivered = wakes_delivered
            self.parks = parks
            self.fused_barriers = fused_barriers
            if s_count:
                if slack_dist.count == 0 or s_min < slack_dist._min:
                    slack_dist._min = s_min
                if s_max > slack_dist._max:
                    slack_dist._max = s_max
                slack_dist.count += s_count
                slack_dist.total += s_total
                s_count = 0
                s_total = 0
                s_min = 1 << 63
                s_max = -1
        if resume is None:
            heappush(heap, (0.0, nxt(), -1))
            active_cores = 0
            for ct in cores:
                if ct.state == CoreState.ACTIVE:
                    active_cores += 1
                    heappush(heap, (0.0, nxt(), ct.core_id))
            self._active_cores = active_cores
        else:
            # The snapshot was taken at a manager-step boundary: the saved
            # list is the complete live heap (manager re-push included) in
            # valid heap order, and _active_cores travelled with the pickle.
            heap.extend(resume["heap"])

        # Manager elision: a manager step with no new core work since the
        # previous step provably drains/processes/raises nothing, so the
        # Python call is skipped and only its (identical, jitter-free) poll
        # cost is charged.  Disabled while a probe wants per-step samples.
        mgr_dirty = True if resume is None else resume["mgr_dirty"]
        poll_cost = self.host_cfg.manager_poll_cost
        mgr_idle_streak = 0 if resume is None else resume["mgr_idle_streak"]
        completed = True
        max_steps = 200_000_000

        while self._active_cores:
            if not heap:
                raise EngineError("host queue empty with active cores — engine bug")
            engine_steps += 1
            if engine_steps > max_steps:
                raise EngineError("engine step limit exceeded (runaway simulation)")
            ready, _, idx = heappop(heap)

            if idx == -1:
                stats = None
                if (
                    fusable
                    and mgr_dirty
                    and not heap
                    and n_susp == self._active_cores
                    and manager._gq_depth == 0
                    and not any(outqs)
                ):
                    # Barrier superstep (DESIGN.md §5).  The barrier just
                    # completed with nothing in flight: this manager step
                    # drains and services nothing, raises every core, and as
                    # long as each core's turn is *quiet* (no OutQ event, wake,
                    # halt or spawn) the cycle's whole schedule is known — the
                    # wake agenda in host-time order, manager polls filling
                    # every gap.  Run it as straight-line code charging the
                    # host model the general loop's calls in its order; every
                    # exit is taken where the state is a general-loop state.
                    act = [c for c in cores if c.state == CoreState.ACTIVE]
                    total = self.total_committed
                    while True:
                        # The manager was popped at ``ready``, dirty.
                        g = manager.global_time
                        lo = INFINITY
                        top = 0
                        for c in act:
                            if c.local_time < lo:
                                lo = c.local_time
                            if c.max_local_time > top:
                                top = c.max_local_time
                        if lo > g:
                            g = lo
                        new_max = scheme_max_local(g)
                        if (
                            new_max <= top  # a core would stay suspended
                            or new_max > sim.max_cycles  # the runaway guard's turn
                            or (snap_interval and g >= self._next_snapshot)
                            or (cp_interval and g >= self._next_checkpoint)
                        ):
                            break  # the general arm below takes this pop
                        # (1) The clean barrier step, inline.
                        manager.barriers_completed += 1
                        manager.global_time = g
                        manager.windows_raised += len(act)
                        manager_steps += 1
                        fused_barriers += 1
                        mgr_dirty = False  # and its idle streak is 0
                        m = hostrun(ready, poll_cost)
                        # (2) The wake agenda, in the order the heap would
                        # pop it: host time, then raise order (the seq).
                        agenda = []
                        for k, c in enumerate(act):
                            c.max_local_time = new_max
                            wake_t = m + wake_cost + k * fanout_cost
                            agenda.append((max(wake_t, next_free[c.core_id]), k, c.core_id))
                        agenda.sort()
                        woken = len(agenda)
                        wakes_delivered += woken
                        # (3) Merge: the manager polls through every gap; a
                        # core wins a tie (its heap seq is the older one).
                        for i, (r, _, cid) in enumerate(agenda):
                            if m < r:
                                m, polls = poll_until(
                                    m, poll_cost, r, 100_001 - mgr_idle_streak
                                )
                                mgr_idle_streak += polls
                                manager_polls += polls
                                engine_steps += 1
                                if mgr_idle_streak > 100_000:
                                    for _, _, c in agenda[i:]:
                                        suspended[c] = False
                                    self._diagnose_deadlock(suspended, parked)
                            engine_steps += 1
                            ct = cores[cid]
                            local = ct.local_time
                            inq_heap = inqs[cid]
                            if (
                                new_max - local == 1
                                and batched[cid]
                                and not (inq_heap and inq_heap[0][0] <= local)
                            ):
                                # ``step_many(1)`` with nothing due in the InQ.
                                model = ct.model
                                if model.wait_state(local) is None:
                                    committed, active = model.step(local)
                                    ct.local_time = new_max
                                    ct.total_committed += committed
                                    ct.total_cycles += 1
                                    if (
                                        outqs[cid]
                                        or model.pending_wakes
                                        or model.phase is HALTED
                                        or pending_activations
                                        or (max_insn and total + committed >= max_insn)
                                    ):
                                        # Not quiet: the BatchStats that
                                        # ``step_many`` would have returned.
                                        stats = ct._stats
                                        stats.reset()
                                        stats.cycles = 1
                                        stats.committed = committed
                                        if active:
                                            stats.active_cycles = 1
                                        else:
                                            stats.idle_cycles = 1
                                        stats.wakes.extend(model.pending_wakes)
                                        model.pending_wakes.clear()
                                        stats.events_out = len(outqs[cid])
                                        if model.phase is HALTED:
                                            ct.state = CoreState.DONE
                                            ct.final_time = new_max
                                        else:
                                            stats.hit_window_edge = True
                                            ct.window_edge_hits += 1
                                        break
                                    total += committed
                                    unit = _ONE_ACTIVE if active else _ONE_IDLE
                                else:
                                    model.skip(1)
                                    ct.local_time = new_max
                                    ct.total_cycles += 1
                                    unit = _ONE_SKIP
                                ct.window_edge_hits += 1
                                cost = core_batch_cost(cid, unit, suspended=True)
                            else:
                                budget = turn_budget(ct)
                                if batched[cid]:
                                    stats = ct.step_many(budget, wait_chunk=wait_chunk)
                                else:
                                    stats = ct.run(min(budget, 8))
                                if (
                                    outqs[cid]
                                    or stats.wakes
                                    or not stats.hit_window_edge
                                    or pending_activations
                                    or (max_insn and total + stats.committed >= max_insn)
                                ):
                                    break
                                total += stats.committed
                                cost = core_batch_cost(cid, stats, suspended=True)
                                stats = None
                            # A quiet turn: sample the slack, pay for the turn
                            # and the suspension that follows it.
                            slack = ct.local_time - g
                            slack_buckets[slack.bit_length()] += 1
                            s_count += 1
                            s_total += slack
                            if slack < s_min:
                                s_min = slack
                            if slack > s_max:
                                s_max = slack
                            next_free[cid] = hostrun(r, cost)
                        else:
                            # (4) Every core suspended again: the barrier is
                            # complete, the manager dirty and next at ``m``.
                            suspends += woken
                            self.total_committed = total
                            mgr_dirty = True
                            mgr_idle_streak = 0
                            ready = m
                            engine_steps += 1
                            continue
                        # The turn at ``r`` was not quiet.  Cores that have not
                        # run yet and the manager go (back) on the heap; the
                        # general post-turn code takes this turn from here.
                        for _, _, c in agenda[i:]:
                            suspended[c] = False
                        for t, _, c in agenda[i + 1:]:
                            heappush(heap, (t, nxt(), c))
                        heappush(heap, (m, nxt(), -1))
                        n_susp = i
                        suspends += i
                        self.total_committed = total
                        ready = r
                        idx = cid
                        break
                if stats is None:
                    if not mgr_dirty and probe is None:
                        # Consecutive idle polls: keep polling while the manager
                        # is provably the next host event.  Nothing can mark it
                        # dirty before the next heap entry runs, so one
                        # ``poll_until`` is step-for-step identical to re-queueing
                        # every poll through the heap — minus the heap churn and
                        # the host-model call per poll.  Strictly below the next
                        # entry's ready time preserves the tie break (a re-pushed
                        # poll has a larger seq and loses); an empty heap gets
                        # the one poll it always got.
                        done_t, polls = poll_until(
                            ready, poll_cost,
                            heap[0][0] if heap else ready,
                            100_001 - mgr_idle_streak,
                        )
                        mgr_idle_streak += polls
                        manager_polls += polls
                        if mgr_idle_streak > 100_000:
                            self._diagnose_deadlock(suspended, parked)
                        heappush(heap, (done_t, nxt(), -1))
                        continue
                    result = manager.step()
                    mgr_dirty = False
                    manager_steps += 1
                    if fault_tick is not None:
                        fault_tick(self, manager.global_time)
                    if snap_interval and manager.global_time >= self._next_snapshot:
                        sync_stats()
                        self.registry.snapshot(manager.global_time)
                        self._next_snapshot = (
                            manager.global_time // snap_interval + 1
                        ) * snap_interval
                    cost = manager_step_cost(result.drained, result.processed)
                    done_t = hostrun(ready, cost)
                    # Wakes leave the manager serially (futex hand-off): the
                    # k-th thread woken by this step starts k-1 fanout delays
                    # later.  This is what a barrier reopening all N cores pays
                    # that a slack raise (typically one core) does not.
                    woken = 0
                    for cid in result.raised:
                        if suspended[cid]:
                            suspended[cid] = False
                            n_susp -= 1
                            wake_t = done_t + wake_cost + woken * fanout_cost
                            woken += 1
                            heappush(heap, (max(wake_t, next_free[cid]), nxt(), cid))
                    for cid, ct in enumerate(cores):
                        if parked[cid] and ct.inq:
                            parked[cid] = False
                            wake_t = done_t + wake_cost + woken * fanout_cost
                            woken += 1
                            heappush(heap, (max(wake_t, next_free[cid]), nxt(), cid))
                    wakes_delivered += woken
                    if self._pending_activations:
                        self._drain_activations(heap, nxt, done_t, next_free)
                    if result.work == 0 and not result.raised:
                        mgr_idle_streak += 1
                        if mgr_idle_streak > 100_000:
                            self._diagnose_deadlock(suspended, parked)
                    else:
                        mgr_idle_streak = 0
                    if probe is not None:
                        probe(
                            done_t,
                            manager.global_time,
                            [
                                c.local_time if c.state == CoreState.ACTIVE else -1
                                for c in cores
                            ],
                        )
                    heappush(heap, (done_t, nxt(), -1))
                    if cp_interval and manager.global_time >= self._next_checkpoint:
                        # The manager step's effects (wakes, costs, its own
                        # re-push) are all applied: the loop state is exactly a
                        # top-of-loop state, which is what restore re-enters.
                        sync_stats()
                        self._write_checkpoint(
                            heap, nxt(), suspended, parked, next_free,
                            n_susp, mgr_dirty, mgr_idle_streak,
                        )
                        self._next_checkpoint = (
                            manager.global_time // cp_interval + 1
                        ) * cp_interval
                    continue
            else:
                ct = cores[idx]
                if ct.state != CoreState.ACTIVE:
                    continue
                if ct.local_time >= ct.max_local_time:
                    # Re-read the shared clocks before paying the suspend/wake
                    # round trip (free: two word reads in the real thing).
                    if not manager.refresh_window(ct):
                        suspended[idx] = True
                        n_susp += 1
                        suspends += 1
                        if barrier_policy and n_susp >= self._active_cores:
                            mgr_dirty = True
                            mgr_idle_streak = 0
                        next_free[idx] = hostrun(ready, suspend_cost)
                        continue
                budget = turn_budget(ct)
                if batched[idx]:
                    stats = ct.step_many(budget, wait_chunk=wait_chunk, single=single)
                else:
                    # Models without the batching protocol (the OoO core) keep
                    # seed-era chunking: the turn structure, and so every
                    # host-model call, is the same in either stepping mode.
                    stats = ct.run(min(budget, 8), single=single)
            # Inline Distribution.add on hoisted locals: ``slack`` is bounded
            # by max_cycles, far below the 2**64 top bucket, so the raw
            # ``bit_length`` index is always in range.
            slack = ct.local_time - manager.global_time
            slack_buckets[slack.bit_length()] += 1
            s_count += 1
            s_total += slack
            if slack < s_min:
                s_min = slack
            if slack > s_max:
                s_max = slack
            if (
                not barrier_policy
                or ct.outq._q
                or stats.wakes
                or ct.state != CoreState.ACTIVE
            ):
                mgr_dirty = True
                mgr_idle_streak = 0
            for core_id, release_ts in stats.wakes:
                cores[core_id].model.release(release_ts)
            park = False
            if (
                ct.state == CoreState.ACTIVE
                and not stats.hit_window_edge
                and batched[idx]
                and (park_pending or park_spin)
            ):
                ws = ct.model.wait_state(ct.local_time)
                if ws is not None and ws[0] >= WAIT_EXTERNAL and not len(ct.inq):
                    spinning = getattr(ct.model, "spinning", False)
                    park = park_spin if spinning else park_pending
            cost = core_batch_cost(idx, stats, suspended=stats.hit_window_edge or park)
            done_t = hostrun(ready, cost)
            next_free[idx] = done_t
            woken = 0
            for core_id, _ in stats.wakes:
                if parked[core_id]:
                    parked[core_id] = False
                    wake_t = done_t + wake_cost + woken * fanout_cost
                    woken += 1
                    heappush(heap, (max(wake_t, next_free[core_id]), nxt(), core_id))
            wakes_delivered += woken
            if self._pending_activations:
                self._drain_activations(heap, nxt, done_t, next_free)
            self.total_committed += stats.committed
            if ct.state != CoreState.ACTIVE:
                self._active_cores -= 1
            if ct.local_time > sim.max_cycles:
                raise EngineError(
                    f"core {idx} exceeded max_cycles={sim.max_cycles} "
                    f"(scheme {self.scheme.name}; workload hung?)"
                )
            if sim.max_instructions and self.total_committed >= sim.max_instructions:
                completed = False
                break
            if ct.state == CoreState.ACTIVE:
                if stats.hit_window_edge:
                    if manager.refresh_window(ct):
                        # The shared clocks already moved (this core may
                        # itself hold the minimum): no suspend round trip.
                        heappush(heap, (done_t, nxt(), idx))
                    else:
                        suspended[idx] = True
                        n_susp += 1
                        suspends += 1
                        if barrier_policy and n_susp >= self._active_cores:
                            mgr_dirty = True
                            mgr_idle_streak = 0
                elif park:
                    parked[idx] = True
                    parks += 1
                else:
                    heappush(heap, (done_t, nxt(), idx))

        sync_stats()
        self.manager.check_invariants()
        return self._build_result(completed)

    def _write_checkpoint(
        self,
        heap: list,
        seq_next: int,
        suspended: list[bool],
        parked: list[bool],
        next_free: list[float],
        n_susp: int,
        mgr_dirty: bool,
        mgr_idle_streak: int,
    ) -> None:
        """Stash the run loop's hoisted locals and pickle the whole engine.

        ``seq_next`` is a freshly drawn heap tie-break value: consuming one
        is free (only the *relative* order of seqs matters, and both the
        continuing and the restored run proceed from the same position), and
        it is exactly the counter state a restored ``run()`` must resume
        from.  The payload rides inside the engine pickle; ``run()`` pops it.
        """
        from repro.core.checkpoint import save_checkpoint

        self._resume = {
            "heap": list(heap),
            "seq_next": seq_next,
            "suspended": list(suspended),
            "parked": list(parked),
            "next_free": list(next_free),
            "n_susp": n_susp,
            "mgr_dirty": mgr_dirty,
            "mgr_idle_streak": mgr_idle_streak,
        }
        try:
            assert self.sim.checkpoint_path is not None
            save_checkpoint(self, self.sim.checkpoint_path)
        finally:
            del self._resume

    def _drain_activations(self, heap, nxt, ready: float, next_free: list[float]) -> None:
        while self._pending_activations:
            core = self._pending_activations.pop()
            start = max(ready + self.costmodel.wake_cost, next_free[core])
            heapq.heappush(heap, (start, nxt(), core))

    def _diagnose_deadlock(self, suspended: list[bool], parked: list[bool]) -> None:
        lines = [f"engine deadlock under scheme {self.scheme.name}:"]
        lines.append(f"  global_time={self.manager.global_time}")
        for ct in self.cores:
            lines.append(
                f"  core {ct.core_id}: state={ct.state} local={ct.local_time} "
                f"max={ct.max_local_time} suspended={suspended[ct.core_id]} "
                f"parked={parked[ct.core_id]} "
                f"phase={ct.model.phase if ct.model else '?'} inq={len(ct.inq)} outq={len(ct.outq)}"
            )
        lines.append(f"  gq={len(self.manager.gq)}")
        raise EngineError("\n".join(lines))

    def _write_capture(self) -> None:
        """Seal and atomically write the armed capture (once, on completion)."""
        from repro.trace.format import write_trace

        assert self.sim.trace_path is not None and self._capture is not None
        write_trace(self.sim.trace_path, self._capture_header, self._capture.finish())
        self._capture_header = None

    # ---------------------------------------------------------------- result
    def _build_result(self, completed: bool) -> SimulationResult:
        """Thin view over the stats registry.

        The summary fields read the same component attributes the registry's
        sources are bound to (``tests/core/test_stats_integration.py`` pins
        the agreement); the full dump and digest materialise lazily via
        ``registry_factory`` on first ``result.stats`` access, so runs whose
        caller never inspects stats — the perf benches — pay nothing.
        """
        self._completed = completed
        if completed and self._capture_header is not None:
            self._write_capture()
        core_results = []
        for ct in self.cores:
            if not ct.ever_active:
                continue
            l1d = getattr(ct.model, "l1d", None)
            core_results.append(
                CoreResult(
                    core_id=ct.core_id,
                    committed=ct.total_committed,
                    cycles=ct.total_cycles,
                    final_time=ct.final_time or ct.local_time,
                    l1_accesses=l1d.stats.accesses if l1d is not None else 0,
                    l1_misses=l1d.stats.misses if l1d is not None else 0,
                )
            )
        sync = self.system.sync.stats if self.system is not None else None
        return SimulationResult(
            scheme=self.scheme.name,
            host_cores=self.host_cfg.num_cores,
            seed=self.sim.seed,
            completed=completed,
            execution_cycles=self._execution_cycles(),
            global_time=self.manager.global_time,
            instructions=self.total_committed,
            host_time=self.hostmodel.makespan(),
            host_busy=self.hostmodel.busy,
            cores=core_results,
            violations=self.counters,
            output=self.system.merged_output() if self.system else [],
            requests=self.manager.requests_processed,
            barriers=self.manager.barriers_completed,
            lock_acquires=sync.lock_acquires if sync is not None else 0,
            lock_contended=sync.lock_contended if sync is not None else 0,
            engine_steps=self.engine_steps,
            registry_factory=lambda: self.registry,
        )


def run_simulation(
    program: Program | None,
    *,
    scheme: str = "cc",
    host_cores: int = 8,
    seed: int = 1,
    target: TargetConfig | None = None,
    sim: SimConfig | None = None,
    host: HostConfig | None = None,
    trace_cores: list | None = None,
    **sim_overrides,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`SequentialEngine`."""
    if sim is None:
        sim = SimConfig(scheme=scheme, seed=seed, **sim_overrides)
    if host is None:
        host = HostConfig(num_cores=host_cores)
    engine = SequentialEngine(program, target=target, host=host, sim=sim, trace_cores=trace_cores)
    return engine.run()
