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

* runnable: in the host queue; runs turns of up to ``turn_cycles``;
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

from repro.cache import program_image
from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.corethread import BatchStats, CoreState, CoreThread
from repro.core.manager import SimulationManager
from repro.core.results import SimulationResult
from repro.core.schemes import INFINITY, parse_scheme
from repro.cpu.arch import ArchState
from repro.cpu.interfaces import WAIT_EXTERNAL, CorePhase
from repro.cpu.l1cache import L1Cache
from repro.host.costmodel import CostModel
from repro.host.hostmodel import HostModel
from repro.isa.program import Program
from repro.mem.memsys import MemorySystem
from repro.stats.registry import Distribution, flat_dump
from repro.sysapi.loader import load_program
from repro.sysapi.system import SystemEmulation
from repro.violations.detect import ViolationCounters, WordOrderTracker

__all__ = ["SequentialEngine", "EngineError", "run_simulation"]


class EngineError(RuntimeError):
    """The engine detected deadlock, runaway simulation or misconfiguration."""


#: The three event-free one-cycle turns the barrier superstep inlines, as the
#: ``BatchStats`` ``step_many(1)`` returns for them: what it hands
#: ``CostModel.batch_base``, so the cost expression keeps its one home.
_ONE_ACTIVE = BatchStats(cycles=1, active_cycles=1, hit_window_edge=True)
_ONE_IDLE = BatchStats(cycles=1, idle_cycles=1, hit_window_edge=True)
_ONE_SKIP = BatchStats(cycles=1, skipped_cycles=1, skip_stretches=1, hit_window_edge=True)


def _ratio(num, den) -> float:
    """A ratio stat: 0.0 over a zero denominator."""
    return num / den if den else 0.0


def _unit_turn_stats(ct: CoreThread, committed: int, active: bool) -> BatchStats:
    """The ``BatchStats`` that ``step_many(1)`` returns for a one-cycle turn
    the barrier superstep ran inline and found not quiet."""
    model = ct.model
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
    stats.events_out = len(ct.outq)
    if model.phase is CorePhase.HALTED:
        ct.state = CoreState.DONE
        ct.final_time = ct.local_time
    else:
        stats.hit_window_edge = True
        ct.window_edge_hits += 1
    return stats


class SequentialEngine:
    """Build and run one simulation of *program* under one scheme."""

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
                "program_digest": program_image(program)[0],
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
                digest = program_image(program)[0]
                recorded = trace.header.get("program_digest")
                if digest != recorded:
                    raise EngineError(
                        f"stale trace {self.sim.trace_path!r}: recorded "
                        f"program digest {str(recorded)[:16]}… does not match "
                        f"this program ({digest[:16]}…) — re-capture"
                    )
            self._replay_ops = trace.core_ops
        self.counters = ViolationCounters()
        self.tracker = WordOrderTracker(self.counters, self.sim.fastforward)
        self.memsys = MemorySystem(self.target.memsys, self.target.num_cores, self.counters)
        self.hostmodel = HostModel(self.host_cfg.num_cores)
        self.costmodel = CostModel(self.host_cfg, self.sim.seed, self.target.num_cores)
        self.system: SystemEmulation | None = None
        self._pending_activations: list[int] = []
        self._turn_cap = self.sim.turn_cycles or INFINITY  # 0 = uncapped
        self.total_committed = 0
        self.engine_steps = 0
        # Host-loop mechanics counters (left out of the digest: they
        # describe how the engine scheduled the work, not the simulated
        # target, mirroring the goldens' exclusion of engine_steps).
        self.manager_steps = 0
        self.manager_polls = 0
        self.suspends = 0
        self.wakes_delivered = 0
        self.parks = 0
        #: Barriers that ran inside the barrier superstep (``run``; DESIGN.md
        #: §5).  Like ``manager_polls`` it is folded by ``sync_stats``; unlike
        #: it, it is not in the stats dump, which is embedded in
        #: store records and sweep documents.
        self.fused_barriers = 0
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
        # The slack histogram is the one stat fed during the run (by the run
        # loop); every other stat is read off the components by
        # ``render_stats``.  Snapshots are plain dicts, so both travel with a
        # checkpoint.
        self._slack_dist = Distribution("scheme.slack_cycles")
        self.snapshots: list[dict] = []

        if trace_cores is not None:
            for ct in self.cores:
                self._start_core(ct, pc=0, arg=0, ts=0)
        elif self._replay_ops is not None:
            # Replay starts like a program run: core 0 only; the recorded
            # spawn ops activate the rest at their recorded commit points.
            self._start_core(self.cores[0], pc=0, arg=0, ts=0)
        else:
            assert self.image is not None
            self.image.init_registers(self.cores[0].model.state, 0, tid=0)
            self._start_core(self.cores[0], pc=self.image.program.entry, arg=0, ts=0)

        # The run loop's state.  It lives here, not in ``run()``'s locals, so
        # a checkpoint is just this engine and a restored run is not a special
        # case.  The host-ready heap holds ``(ready, seq, idx)`` entries, idx
        # -1 for the manager, seeded with the manager and the active cores at
        # host time 0.  A core thread is in the heap (runnable), suspended at
        # its window edge, parked on external input, or done.
        active = [ct.core_id for ct in self.cores if ct.state == CoreState.ACTIVE]
        self._heap = [(0.0, 0, -1)] + [(0.0, k, cid) for k, cid in enumerate(active, 1)]
        self._seq_next = len(self._heap)
        self._active_cores = len(active)
        self._suspended = [False] * len(self.cores)
        self._parked = [False] * len(self.cores)
        #: Host time at which each core thread's last scheduled step finishes.
        self._next_free = [0.0] * len(self.cores)
        self._n_susp = 0
        self._mgr_dirty = True
        self._mgr_idle_streak = 0

    def _require_commit_seam(self, what: str) -> None:
        """A trace is the in-order pipeline's commit stream: any other target
        would record, or be re-timed as, a model it is not."""
        if self.target.core_model != "inorder":
            raise EngineError(
                f"trace {what} requires the inorder core model "
                f"(the commit seam is its pipeline), not "
                f"{self.target.core_model!r}"
            )

    def _build_core_model(self, core_id: int, program: Program, ct: CoreThread):
        """Instantiate the configured core model (inorder | ooo)."""
        assert self.image is not None and self.system is not None
        common = dict(word_tracker=self.tracker, dispatch=self._dispatch)
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
                mispredict_penalty=self.target.mispredict_penalty,
                **common,
            )
        raise EngineError(f"unknown core model {self.target.core_model!r}")

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        """Checkpoint hook (:mod:`repro.core.checkpoint`): the probe is an
        experiment-side observer, not simulation state."""
        state = dict(self.__dict__)
        state["probe"] = None
        return state

    # ----------------------------------------------------------------- stats
    def _execution_cycles(self) -> int:
        """Target execution time: the last thread exit (global time while the
        run is still going, for a mid-run snapshot)."""
        ran = [ct for ct in self.cores if ct.ever_active]
        if self._completed and ran:
            return max(ct.final_time for ct in ran)
        return self.manager.global_time

    def render_stats(self) -> tuple[dict, dict]:
        """The run's stats as two flat ``{dotted path: value}`` dicts: the
        stats the digest covers, and the stats it leaves out.

        Left out are the host-loop mechanics (``engine.*``), the modeled host
        (``host.*``) and the ratios, which are redundant with their operands
        (``coreN.ipc``, ``coreN.l1d.miss_rate``, ``coreN.branch.accuracy``,
        ``mem.l2.miss_rate``, ``host.utilization``).  A ratio over a zero
        denominator reads 0.0.
        """
        manager, memsys, counters = self.manager, self.memsys, self.counters
        host = self.hostmodel
        makespan = host.makespan()
        out = {
            "sim.scheme": self.scheme.name,
            "sim.seed": self.sim.seed,
            "sim.target_cores": self.target.num_cores,
            "sim.host_cores": self.host_cfg.num_cores,
            "sim.completed": int(self._completed),
            "scheme.slack": self.scheme.slack,
            "scheme.gq_policy": self.scheme.gq_policy,
            "scheme.window_stalls": sum(ct.window_edge_hits for ct in self.cores),
            "manager.requests": manager.requests_processed,
            "manager.barriers": manager.barriers_completed,
            "manager.windows_raised": manager.windows_raised,
            "manager.events_drained": manager.events_drained,
            "manager.gq.max_depth": manager.gq_max_depth,
            "target.execution_cycles": self._execution_cycles(),
            "target.global_time": manager.global_time,
            "target.instructions": self.total_committed,
            "mem.requests_serviced": memsys.requests_serviced,
        }
        left = {
            "engine.steps": self.engine_steps,
            "engine.manager_steps": self.manager_steps,
            "engine.manager_polls": self.manager_polls,
            "engine.suspends": self.suspends,
            "engine.wakes_delivered": self.wakes_delivered,
            "engine.parks": self.parks,
            "engine.total_committed": self.total_committed,
            # One slack sample lands per core turn: the count IS the turns.
            "engine.core_turns": self._slack_dist.count,
            "host.makespan": makespan,
            "host.busy": host.busy,
            "host.steps": host.steps,
            "host.utilization": _ratio(host.busy, makespan * self.host_cfg.num_cores),
        }
        out.update(self._slack_dist.entries())
        for ct in self.cores:
            core = f"core{ct.core_id}"
            out[f"{core}.committed"] = ct.total_committed
            out[f"{core}.cycles"] = ct.total_cycles
            out[f"{core}.window_edge_hits"] = ct.window_edge_hits
            out[f"{core}.final_time"] = ct.final_time
            left[f"{core}.ipc"] = _ratio(ct.total_committed, ct.total_cycles)
            model = ct.model
            if hasattr(model, "stall_cycles"):
                out[f"{core}.stall_cycles"] = model.stall_cycles
            cache = getattr(model, "l1d", None)
            if cache is not None:
                s = cache.stats
                for field in (
                    "accesses", "hits", "misses", "upgrades",
                    "invalidations_received", "downgrades_received", "writebacks",
                ):
                    out[f"{core}.l1d.{field}"] = getattr(s, field)
                left[f"{core}.l1d.miss_rate"] = _ratio(s.misses, s.accesses)
            predictor = getattr(model, "predictor", None)
            if predictor is not None:
                s = predictor.stats
                out[f"{core}.branch.lookups"] = s.lookups
                out[f"{core}.branch.correct"] = s.correct
                left[f"{core}.branch.accuracy"] = _ratio(s.correct, s.lookups)
        for group, stats, fields in (
            ("bus", memsys.bus.stats, ("transfers", "busy_cycles", "contention_cycles")),
            ("l2", memsys.l2.stats, (
                "accesses", "hits", "misses", "writebacks_in",
                "bank_conflict_cycles", "hop_cycles",
            )),
            ("dram", memsys.dram.stats, ("accesses", "queue_cycles", "row_activations")),
            ("directory", memsys.directory, (
                "requests", "invalidations_sent", "downgrades_sent",
                "cache_to_cache_transfers",
            )),
        ):
            for field in fields:
                out[f"mem.{group}.{field}"] = getattr(stats, field)
        for bank, n in enumerate(memsys.l2.bank_accesses):
            out[f"mem.l2.bank_accesses.{bank}"] = n
        l2 = memsys.l2.stats
        left["mem.l2.miss_rate"] = _ratio(l2.misses, l2.accesses)
        if self.faults is not None:
            out["faults.specs"] = len(self.faults.specs)
            out["faults.injected"] = len(self.faults.fired)
        for field in (
            "simulation_state", "system_state", "workload_state",
            "fastforwards", "fastforward_cycles",
        ):
            out[f"violations.{field}"] = getattr(counters, field)
        for resource, n in counters.by_resource.items():
            out[f"violations.by_resource.{resource}"] = n
        if self.system is not None:
            s = self.system.sync.stats
            for field in (
                "lock_acquires", "lock_contended", "barrier_episodes",
                "sema_waits", "sema_blocked",
            ):
                out[f"sync.{field}"] = getattr(s, field)
        return out, left

    # ------------------------------------------------------------ activation
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
            self.image.init_registers(self.cores[core].model.state, core, tid)
        self._start_core(self.cores[core], pc, arg, ts)
        self._active_cores += 1
        self._pending_activations.append(core)

    # ------------------------------------------------------------------- run
    def _turn_budget(self, ct: CoreThread) -> int:
        """Target cycles this core may run in one engine turn.

        The scheme's window less local time (the quantum, slack-window or
        lookahead remainder; 0 at the edge) clamped by the core's own window
        edge, the ``turn_cycles`` cap, and the ``max_cycles`` safety net (the
        budget may exceed it by one so the runaway guard still fires).
        """
        local = ct.local_time
        budget = self.manager.current_max_local() - local
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
        """Run the simulation to completion.

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
        cores = self.cores
        manager = self.manager
        costmodel = self.costmodel
        hostrun = self.hostmodel.run
        poll_until = self.hostmodel.poll_until
        heappush, heappop = heapq.heappush, heapq.heappop
        # The loop state lives on the engine (``__init__``), so a restored
        # engine re-enters here like a fresh one: the lists change in place,
        # the scalars are copied into locals and ``sync_stats`` writes them
        # back before every snapshot, checkpoint and result.
        heap = self._heap
        suspended = self._suspended
        parked = self._parked
        next_free = self._next_free
        nxt = itertools.count(self._seq_next).__next__
        n_susp = self._n_susp
        mgr_dirty = self._mgr_dirty
        mgr_idle_streak = self._mgr_idle_streak
        # Hot-loop hoists: none of these can change mid-run.
        probe = self.probe
        # Time-triggered faults ride the manager arm; None when the plan has
        # no pending timed faults (or no plan at all), so the common case
        # pays one identity check per manager step and nothing per turn.
        fault_tick = (
            self.faults.on_manager_step
            if self.faults is not None and self.faults.needs_tick()
            else None
        )
        suspend_cost = self.host_cfg.suspend_cost
        wake_cost = costmodel.wake_cost
        fanout_cost = costmodel.wake_fanout_cost
        poll_cost = self.host_cfg.manager_poll_cost
        turn_budget = self._turn_budget
        core_batch_cost = costmodel.core_batch_cost
        if self.faults is not None:
            turn_budget, core_batch_cost = self.faults.wrap_turn(
                manager, turn_budget, core_batch_cost
            )
        manager_step_cost = costmodel.manager_step_cost
        # The OoO core's turn chunk, applied after ``turn_budget``.
        turn_chunks = [getattr(ct.model, "TURN_CHUNK", INFINITY) for ct in cores]
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
        single = self._single
        # The barrier superstep's three bypasses: ``stepping="single"`` stays
        # the per-cycle oracle — and thereby the superstep's; a probe wants a
        # sample per manager step; a fault plan wraps ``turn_budget`` and
        # ``core_batch_cost``, the very callables the superstep inlines.
        fusable = (
            barrier_policy and not single and probe is None and self.faults is None
        )
        scheme_max_local = self.scheme.max_local
        # The superstep's unit turns: each pays its base x its jitter draw +
        # the suspension, which is ``core_batch_cost(cid, unit, suspended=True)``.
        core_jitter = costmodel.jitter
        refill_jitter = costmodel.refill_jitter
        base_active = costmodel.batch_base(_ONE_ACTIVE)
        base_idle = costmodel.batch_base(_ONE_IDLE)
        base_skip = costmodel.batch_base(_ONE_SKIP)
        outqs = [ct.outq._q for ct in cores]
        inqs = [ct.inq._heap for ct in cores]
        pending_activations = self._pending_activations
        HALTED = CorePhase.HALTED
        ACTIVE = CoreState.ACTIVE
        wait_chunk = sim.wait_chunk
        snap_interval = sim.stats_interval
        cp_interval = sim.checkpoint_interval
        # Engine counters and the slack histogram live in locals for the
        # duration of the loop (a per-turn ``self.x += 1`` or a
        # ``Distribution.add`` call costs real throughput at cc turn rates);
        # ``sync_stats`` folds them back before any stats dump.
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
            self._n_susp = n_susp
            self._mgr_dirty = mgr_dirty
            self._mgr_idle_streak = mgr_idle_streak
            # Drawing a seq is free: only the order of seqs matters, and every
            # later push — here or in a restored run — draws a larger one.
            self._seq_next = nxt()
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

        def push(cid: int, t: float) -> None:
            # A wake (window raise, delivery, release) is produced at the
            # *waker's* completion time, which can precede the wakee's: one
            # pthread cannot run on two host cores at once.
            heappush(heap, (max(t, next_free[cid]), nxt(), cid))

        def suspend(idx: int) -> None:
            # The core sleeps at its window edge until the manager raises it.
            nonlocal n_susp, suspends, mgr_dirty, mgr_idle_streak
            suspended[idx] = True
            n_susp += 1
            suspends += 1
            if barrier_policy and n_susp >= self._active_cores:
                mgr_dirty = True
                mgr_idle_streak = 0

        def idle(polls: int) -> None:
            # 100 000 manager polls in a row with nothing to do: deadlock.
            nonlocal mgr_idle_streak
            mgr_idle_streak += polls
            if mgr_idle_streak > 100_000:
                self._diagnose_deadlock()

        # The superstep's per-turn reads are default arguments, not closure
        # cells: it is cc's hot loop, and cell loads there cost ~5 % of a cc run.
        def barrier_superstep(
            ready: float, cores=cores, inqs=inqs, outqs=outqs, turn_chunks=turn_chunks,
            next_free=next_free, suspended=suspended, hostrun=hostrun,
            poll_until=poll_until, poll_cost=poll_cost, idle=idle, HALTED=HALTED,
            pending_activations=pending_activations,
            core_jitter=core_jitter, base_active=base_active, base_idle=base_idle,
            suspend_cost=suspend_cost,
        ) -> None:
            """Run barrier after barrier as straight-line code (DESIGN.md §5).

            Entered when the dirty manager pops with every active core
            suspended at the barrier and nothing in flight: its step drains
            and services nothing and raises every core, and as long as each
            core's turn is *quiet* (no OutQ event, wake, halt or spawn) the
            cycle's whole schedule is known — the wake agenda in host-time
            order, manager polls filling every gap.  The host model is
            charged the general loop's calls in its order, and every exit is
            taken where the state is a general-loop state: a barrier the
            superstep cannot take goes to ``manager_arm``, a turn that is not
            quiet to ``after_turn``.  The per-turn counters are locals, folded
            back on exit.
            """
            nonlocal engine_steps, manager_steps, fused_barriers, manager_polls
            nonlocal wakes_delivered, suspends, n_susp, mgr_dirty, mgr_idle_streak
            nonlocal s_count, s_total, s_min, s_max
            act = [c for c in cores if c.state == ACTIVE]
            woken = len(act)
            total = self.total_committed
            steps = 0
            polled = 0
            g = max(manager.global_time, min(c.local_time for c in act))
            top = max(c.max_local_time for c in act)
            while True:
                # The manager was popped at ``ready``, dirty.
                new_max = scheme_max_local(g)
                if (
                    new_max <= top  # a core would stay suspended
                    or new_max > sim.max_cycles  # the runaway guard's turn
                    or (snap_interval and g >= self._next_snapshot)
                    or (cp_interval and g >= self._next_checkpoint)
                ):
                    engine_steps += steps
                    manager_polls += polled
                    manager_arm(ready)
                    return
                # (1) The clean barrier step, inline.
                manager.barriers_completed += 1
                manager.global_time = g
                manager.windows_raised += woken
                manager_steps += 1
                fused_barriers += 1
                mgr_dirty = False  # and its idle streak is 0
                m = hostrun(ready, poll_cost)
                # (2) The wake agenda, in the order the heap would pop it:
                # host time, then raise order (the seq).
                agenda = []
                for k, c in enumerate(act):
                    c.max_local_time = new_max
                    cid = c.core_id
                    suspended[cid] = False
                    agenda.append((max(m + wake_cost + k * fanout_cost, next_free[cid]), k, cid))
                agenda.sort()
                wakes_delivered += woken
                # (3) Merge: the manager polls through every gap; a core wins
                # a tie (its heap seq is the older one).
                for i, (r, _, cid) in enumerate(agenda):
                    if m < r:
                        m, polls = poll_until(m, poll_cost, r, 100_001 - mgr_idle_streak)
                        polled += polls
                        steps += 1
                        idle(polls)
                    steps += 1
                    ct = cores[cid]
                    local = ct.local_time
                    inq_heap = inqs[cid]
                    if new_max - local == 1 and not (inq_heap and inq_heap[0][0] <= local):
                        # ``step_many(1)`` with nothing due in the InQ: the cc
                        # path, kept out of ``step_many`` on purpose.
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
                            ):
                                stats = _unit_turn_stats(ct, committed, active)
                                break
                            total += committed
                            base = base_active if active else base_idle
                        else:
                            model.skip(1)
                            ct.local_time = new_max
                            ct.total_cycles += 1
                            base = base_skip
                        ct.window_edge_hits += 1
                        jit = core_jitter[cid]
                        cost = base * (jit.pop() if jit else refill_jitter(cid))
                        cost += suspend_cost
                        if cost < 0.05:
                            cost = 0.05
                    else:
                        budget = turn_budget(ct)
                        if turn_chunks[cid] < budget:
                            budget = turn_chunks[cid]
                        stats = ct.step_many(budget, wait_chunk=wait_chunk)
                        if (
                            outqs[cid]
                            or stats.wakes
                            or not stats.hit_window_edge
                            or pending_activations
                        ):
                            break
                        total += stats.committed
                        cost = core_batch_cost(cid, stats, suspended=True)
                    # A quiet turn: pay for it and the suspension that follows.
                    next_free[cid] = hostrun(r, cost)
                    suspended[cid] = True
                else:
                    i = woken
                # The ``i`` quiet turns all ended at ``new_max``: their slack
                # samples are one value, added at once.
                if i:
                    slack = new_max - g
                    slack_buckets[slack.bit_length()] += i
                    s_count += i
                    s_total += slack * i
                    if slack < s_min:
                        s_min = slack
                    if slack > s_max:
                        s_max = slack
                if i < woken:
                    break
                # (4) Every core suspended again: the barrier is complete, the
                # manager dirty and next at ``m``.
                suspends += woken
                self.total_committed = total
                mgr_dirty = True
                mgr_idle_streak = 0
                ready = m
                steps += 1
                # Every active core sits at ``new_max`` (> g).
                g = top = new_max
            # The turn at ``r`` was not quiet.  The cores that have not run
            # yet and the manager go (back) on the heap; ``after_turn`` takes
            # this turn from here.
            for t, _, c in agenda[i + 1:]:
                push(c, t)
            heappush(heap, (m, nxt(), -1))
            n_susp = i
            suspends += i
            self.total_committed = total
            engine_steps += steps
            manager_polls += polled
            after_turn(r, cid, ct, stats)

        def manager_arm(ready: float) -> None:
            """One manager step (or a stretch of elided idle polls)."""
            nonlocal manager_steps, wakes_delivered, n_susp, mgr_dirty
            nonlocal mgr_idle_streak, manager_polls
            if not mgr_dirty and probe is None:
                # Manager elision: a step with no new core work since the
                # previous one provably drains/processes/raises nothing, so
                # only its (identical, jitter-free) poll cost is charged — and
                # while the manager is provably the next host event, one
                # ``poll_until`` is step-for-step identical to re-queueing
                # every poll through the heap.  Strictly below the next
                # entry's ready time preserves the tie break (a re-pushed poll
                # has a larger seq and loses); an empty heap gets the one poll
                # it always got.  A probe wants every step, so it disables this.
                done_t, polls = poll_until(
                    ready, poll_cost,
                    heap[0][0] if heap else ready,
                    100_001 - mgr_idle_streak,
                )
                manager_polls += polls
                idle(polls)
                heappush(heap, (done_t, nxt(), -1))
                return
            result = manager.step()
            mgr_dirty = False
            manager_steps += 1
            g = manager.global_time
            if fault_tick is not None:
                fault_tick(self, g)
            if snap_interval and g >= self._next_snapshot:
                sync_stats()
                self.snapshots.append({"label": g, "stats": flat_dump(*self.render_stats())})
                self._next_snapshot = (g // snap_interval + 1) * snap_interval
            done_t = hostrun(ready, manager_step_cost(result.drained, result.processed))
            # Wakes leave the manager serially (futex hand-off): the k-th
            # thread woken by this step starts k-1 fanout delays later.  This
            # is what a barrier reopening all N cores pays that a slack raise
            # (typically one core) does not.
            woken = 0
            for cid in result.raised:
                if suspended[cid]:
                    suspended[cid] = False
                    n_susp -= 1
                    push(cid, done_t + wake_cost + woken * fanout_cost)
                    woken += 1
            for cid, ct in enumerate(cores):
                if parked[cid] and ct.inq:
                    parked[cid] = False
                    push(cid, done_t + wake_cost + woken * fanout_cost)
                    woken += 1
            wakes_delivered += woken
            while pending_activations:
                push(pending_activations.pop(), done_t + wake_cost)
            if result.work == 0 and not result.raised:
                idle(1)
            else:
                mgr_idle_streak = 0
            if probe is not None:
                probe(
                    done_t,
                    g,
                    [c.local_time if c.state == ACTIVE else -1 for c in cores],
                )
            heappush(heap, (done_t, nxt(), -1))
            if cp_interval and g >= self._next_checkpoint:
                # The step's effects (wakes, costs, its own re-push) are all
                # applied: the engine is exactly a top-of-loop state, which is
                # what a restored ``run()`` re-enters.
                from repro.core import checkpoint

                self._next_checkpoint = (g // cp_interval + 1) * cp_interval
                sync_stats()
                checkpoint.save_checkpoint(self, sim.checkpoint_path)

        def core_turn(ready: float, idx: int, ct: CoreThread) -> None:
            """One core thread's turn."""
            if ct.local_time >= ct.max_local_time and not manager.refresh_window(ct):
                # At its window edge, and the shared clocks (re-read first:
                # two word reads in the real thing) have not moved.
                suspend(idx)
                next_free[idx] = hostrun(ready, suspend_cost)
                return
            budget = turn_budget(ct)
            if turn_chunks[idx] < budget:
                budget = turn_chunks[idx]
            stats = ct.step_many(budget, wait_chunk=wait_chunk, single=single)
            after_turn(ready, idx, ct, stats)

        def after_turn(ready: float, idx: int, ct: CoreThread, stats: BatchStats) -> None:
            """Pay for a core turn and requeue, suspend or park its thread."""
            nonlocal s_count, s_total, s_min, s_max, mgr_dirty, mgr_idle_streak
            nonlocal wakes_delivered, parks
            # Inline Distribution.add: ``slack`` is bounded by max_cycles, far
            # below the 2**64 top bucket, so the raw ``bit_length`` index is
            # always in range.
            slack = ct.local_time - manager.global_time
            slack_buckets[slack.bit_length()] += 1
            s_count += 1
            s_total += slack
            if slack < s_min:
                s_min = slack
            if slack > s_max:
                s_max = slack
            wakes = stats.wakes
            if not barrier_policy or outqs[idx] or wakes or ct.state != ACTIVE:
                mgr_dirty = True
                mgr_idle_streak = 0
            for core_id, release_ts in wakes:
                cores[core_id].model.release(release_ts)
            park = False
            if ct.state == ACTIVE and not stats.hit_window_edge and (park_pending or park_spin):
                # Parked: blocked on external input with an empty InQ, so the
                # core cannot progress until the manager delivers (or a peer
                # releases a blocking syscall) — the InQ-empty block of a real
                # implementation.  Without it, an unbounded-slack core pays a
                # polling turn per response round-trip.
                ws = ct.model.wait_state(ct.local_time)
                if ws is not None and ws[0] >= WAIT_EXTERNAL and not len(ct.inq):
                    spinning = getattr(ct.model, "spinning", False)
                    park = park_spin if spinning else park_pending
            cost = core_batch_cost(idx, stats, suspended=stats.hit_window_edge or park)
            done_t = next_free[idx] = hostrun(ready, cost)
            woken = 0
            for core_id, _ in wakes:
                if parked[core_id]:
                    parked[core_id] = False
                    push(core_id, done_t + wake_cost + woken * fanout_cost)
                    woken += 1
            wakes_delivered += woken
            while pending_activations:
                push(pending_activations.pop(), done_t + wake_cost)
            self.total_committed += stats.committed
            if ct.state != ACTIVE:
                self._active_cores -= 1
            if ct.local_time > sim.max_cycles:
                raise EngineError(
                    f"core {idx} exceeded max_cycles={sim.max_cycles} "
                    f"(scheme {self.scheme.name}; workload hung?)"
                )
            if ct.state == ACTIVE:
                if stats.hit_window_edge and not manager.refresh_window(ct):
                    suspend(idx)
                elif park:
                    parked[idx] = True
                    parks += 1
                else:
                    # Runnable again — including at a window edge whose shared
                    # clocks already moved (this core may itself hold the
                    # minimum): no suspend round trip.
                    push(idx, done_t)

        while self._active_cores:
            if not heap:
                raise EngineError("host queue empty with active cores — engine bug")
            engine_steps += 1
            if engine_steps > 200_000_000:
                raise EngineError("engine step limit exceeded (runaway simulation)")
            ready, _, idx = heappop(heap)
            if idx == -1:
                if not (
                    fusable
                    and mgr_dirty
                    and not heap
                    and n_susp == self._active_cores
                    and manager._gq_depth == 0
                    and not any(outqs)
                ):
                    manager_arm(ready)
                else:
                    barrier_superstep(ready)
            else:
                ct = cores[idx]
                if ct.state == ACTIVE:
                    core_turn(ready, idx, ct)
        sync_stats()
        manager.check_invariants()
        return self._build_result()

    def _diagnose_deadlock(self) -> None:
        lines = [f"engine deadlock under scheme {self.scheme.name}:"]
        lines.append(f"  global_time={self.manager.global_time}")
        for ct in self.cores:
            lines.append(
                f"  core {ct.core_id}: state={ct.state} local={ct.local_time} "
                f"max={ct.max_local_time} suspended={self._suspended[ct.core_id]} "
                f"parked={self._parked[ct.core_id]} "
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
    def _build_result(self) -> SimulationResult:
        """What the run alone knows, over its stats rendered on demand: the
        result reads every number from the dump (``core/results.py``)."""
        self._completed = True
        if self._capture_header is not None:
            self._write_capture()
        return SimulationResult(
            completed=True,
            output=self.system.merged_output() if self.system else [],
            violations=self.counters,
            stats_factory=self.render_stats,
            snapshots=self.snapshots,
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
