"""Seeded, config-driven fault injection (DESIGN.md §8).

A :class:`FaultPlan` is parsed from a compact spec string::

    "overrun_window:core=2,at=500,extra=256;corrupt_dir:at=800"

and installed into a :class:`~repro.core.engine.SequentialEngine` at
construction time.  Every fault perturbs the run at one of the simulator's
well-defined seams; none of them touches the per-cycle simulate path — the
hooks are a closure around ``model.emit``, queue subclasses (InQ, GQ)
substituted before the first event flows, and closures the run loop wraps
around its turn-budget and batch-cost callables (:meth:`FaultPlan.wrap_turn`),
so an engine built without ``SimConfig.fault_plan`` is bit-identical to one
built before this package existed.  Nothing the plan installs refers back
to the engine: a fault-injected engine is freed by reference counting like
any other.

Fault kinds (see :data:`FAULT_KINDS`):

``delay_inq``
    Shift a matching InQ event's timestamp by ``delta`` cycles at delivery.
    Models a coherence message or response observed late (the de-facto
    behaviour wide slack windows permit — paper §3.2).
``dup_inq``
    Deliver a duplicate copy of a matching invalidate/downgrade (fresh seq,
    optionally ``delta`` cycles later).  Coherence messages must be
    idempotent at the L1; duplicating a *response* is rejected at parse time
    (a core matches responses against its single outstanding request).
``reorder_outq``
    Swap a matching OutQ event ahead of the entry queued before it, i.e.
    the GQ observes the core's requests out of arrival order.
``delay_gq``
    Shift a matching event's timestamp by ``delta`` at the GQ boundary —
    the manager services it late and the directory's ``last_ts`` runs ahead
    of younger legitimate requests (a system-state violation generator).
``stall_core``
    Add a one-shot ``host_delay`` host-time surcharge to the target core's
    next batch — a modeled host preemption mid-quantum.  Other cores run
    ahead in host time while the victim holds its target clock still.
``corrupt_dir``
    Clear one presence bit: remove a sharer (seeded pick, or ``core``) from
    a directory entry (seeded pick among populated entries, or ``addr``).
    The victim's L1 keeps a copy the directory no longer tracks — the
    classic silent-corruption hazard the MESI invariants must tolerate
    (stale writebacks, promoted upgrades) without crashing.
``overrun_window``
    Force the target core to run ``extra`` cycles past its slack-window
    edge (``max_local_time`` is raised mid-grant, exactly as if the window
    check had been missed).  Under a conservative scheme this manufactures
    the timestamp reorderings the violation detectors exist to count.

Triggers: event-seam faults arm against the first ``count`` matching events
with ``ts >= at``; time-triggered faults fire at the first manager step with
``global_time >= at``.  All randomness (victim picks) derives from one
``random.Random(seed)``, so a (plan, seed) pair replays identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.events import EvKind, Event

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan", "parse_fault_plan"]

#: Fault kind -> the spec fields it honours (beyond ``kind``).  Parsing
#: rejects anything else, so a typo'd spec fails loudly instead of silently
#: injecting nothing.
FAULT_KINDS: dict[str, tuple[str, ...]] = {
    "delay_inq": ("core", "at", "count", "delta", "events"),
    "dup_inq": ("core", "at", "count", "delta", "events"),
    "reorder_outq": ("core", "at", "count"),
    "delay_gq": ("core", "at", "count", "delta", "addr"),
    "stall_core": ("core", "at", "count", "host_delay"),
    "corrupt_dir": ("core", "at", "addr"),
    "overrun_window": ("core", "at", "count", "extra"),
}

#: Spec fields parsed as something other than int.
_FLOAT_FIELDS = frozenset({"host_delay"})
_STR_FIELDS = frozenset({"events"})

#: InQ event kinds by spec name (``events=invalidate+downgrade``).
_EVENT_NAMES = {
    "gets": EvKind.GETS,
    "getx": EvKind.GETX,
    "upgrade": EvKind.UPGRADE,
    "putm": EvKind.PUTM,
    "response": EvKind.RESPONSE,
    "invalidate": EvKind.INVALIDATE,
    "downgrade": EvKind.DOWNGRADE,
}

#: Kinds a dup_inq may duplicate: coherence messages are idempotent at the
#: L1; a duplicated RESPONSE would answer a request that no longer exists.
_DUP_SAFE = frozenset({EvKind.INVALIDATE, EvKind.DOWNGRADE})


@dataclass(frozen=True)
class FaultSpec:
    """One fault: a kind plus its trigger and magnitude parameters."""

    kind: str
    #: Target core (seam faults); -1 = any core (delay_gq, corrupt_dir pick).
    core: int = 0
    #: Trigger: event faults match events with ``ts >= at``; timed faults
    #: fire at the first manager step with ``global_time >= at``.
    at: int = 0
    #: How many matching occurrences to perturb.
    count: int = 1
    #: Timestamp shift in target cycles (delay faults).
    delta: int = 0
    #: Cycles to run past the window edge (overrun_window).
    extra: int = 0
    #: Host-time surcharge (stall_core).
    host_delay: float = 0.0
    #: Directory block address (corrupt_dir); -1 = seeded pick.
    addr: int = -1
    #: ``+``-separated event-kind filter ("" = the kind's default set).
    events: str = ""

    def event_kinds(self) -> frozenset[EvKind]:
        if not self.events:
            if self.kind == "dup_inq":
                return _DUP_SAFE
            return frozenset(_EVENT_NAMES.values())
        kinds = set()
        for name in self.events.split("+"):
            if name not in _EVENT_NAMES:
                raise ValueError(
                    f"unknown event kind {name!r} in fault spec "
                    f"(expected one of {sorted(_EVENT_NAMES)})"
                )
            kinds.add(_EVENT_NAMES[name])
        return frozenset(kinds)


def parse_fault_plan(spec: str, *, seed: int = 0) -> "FaultPlan":
    """Parse ``"kind:k=v,k=v;kind2:..."`` into a :class:`FaultPlan`.

    Raises ``ValueError`` on unknown kinds/fields so misconfigured plans
    fail at engine construction, never mid-run.
    """
    specs: list[FaultSpec] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, rest = chunk.partition(":")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} (expected one of {sorted(FAULT_KINDS)})"
            )
        allowed = FAULT_KINDS[kind]
        fields: dict[str, object] = {}
        for pair in rest.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, eq, value = pair.partition("=")
            key = key.strip()
            if not eq or key not in allowed:
                raise ValueError(
                    f"fault {kind!r} does not accept {pair!r} "
                    f"(allowed fields: {', '.join(allowed)})"
                )
            if key in _STR_FIELDS:
                fields[key] = value.strip()
            elif key in _FLOAT_FIELDS:
                fields[key] = float(value)
            else:
                fields[key] = int(value, 0)
        if kind in ("delay_gq", "corrupt_dir") and "core" not in fields:
            fields["core"] = -1  # any core / seeded victim pick
        fs = FaultSpec(kind=kind, **fields)  # type: ignore[arg-type]
        if kind == "dup_inq" and not fs.event_kinds() <= _DUP_SAFE:
            raise ValueError(
                "dup_inq may only duplicate invalidate/downgrade messages "
                "(a response answers exactly one outstanding request)"
            )
        fs.event_kinds()  # validate the filter eagerly for every kind
        specs.append(fs)
    if not specs:
        raise ValueError(f"fault plan {spec!r} contains no faults")
    return FaultPlan(specs, seed=seed)


@dataclass
class _Armed:
    """Mutable per-spec trigger state (specs themselves stay frozen)."""

    spec: FaultSpec
    remaining: int = 0


class FaultPlan:
    """A parsed set of :class:`FaultSpec` plus the injection machinery.

    ``install(engine)`` wires every spec into its seam; ``fired`` collects
    one record dict per injection for tests and the CLI report.  A plan
    instance belongs to exactly one engine (its trigger state is consumed).
    """

    def __init__(self, specs: list[FaultSpec], *, seed: int = 0) -> None:
        self.specs = list(specs)
        self.seed = seed
        self._rng = random.Random(seed)
        #: One dict per injected fault, in injection order.
        self.fired: list[dict] = []
        #: Timed faults still waiting for their global-time trigger.
        self._timed: list[_Armed] = []
        #: Turn-seam faults, applied in install order by :meth:`wrap_turn`.
        self._overruns: list[_Armed] = []
        self._stalls: list[_Armed] = []
        self._installed = False

    # -------------------------------------------------------------- recording
    def _record(self, kind: str, **info: object) -> None:
        entry: dict[str, object] = {"kind": kind}
        entry.update(info)
        self.fired.append(entry)

    def summary(self) -> str:
        lines = [f"fault plan: {len(self.specs)} spec(s), {len(self.fired)} injected"]
        for entry in self.fired:
            detail = ", ".join(f"{k}={v}" for k, v in entry.items() if k != "kind")
            lines.append(f"  {entry['kind']}: {detail}")
        return "\n".join(lines)

    # ------------------------------------------------------------ installation
    def install(self, engine) -> None:
        """Wire every spec into *engine* (once, at construction time)."""
        if self._installed:
            raise RuntimeError("a FaultPlan instance installs into one engine only")
        self._installed = True
        for spec in self.specs:
            if spec.kind in ("delay_inq", "dup_inq"):
                self._install_inq(engine, spec)
            elif spec.kind == "reorder_outq":
                self._install_reorder(engine, spec)
            elif spec.kind == "delay_gq":
                self._install_gq(engine, spec)
            elif spec.kind == "stall_core":
                self._stalls.append(_Armed(spec, remaining=spec.count))
            elif spec.kind == "overrun_window":
                self._core(engine, spec)  # validate the core id eagerly
                self._overruns.append(_Armed(spec, remaining=spec.count))
            elif spec.kind == "corrupt_dir":
                self._timed.append(_Armed(spec))
            else:  # pragma: no cover - parse_fault_plan rejects unknown kinds
                raise AssertionError(spec.kind)

    def needs_tick(self) -> bool:
        """True while any time-triggered fault is pending (engine hoist)."""
        return bool(self._timed)

    def _core(self, engine, spec: FaultSpec):
        if not 0 <= spec.core < len(engine.cores):
            raise ValueError(
                f"fault {spec.kind!r} targets core {spec.core}, but the "
                f"target has {len(engine.cores)} cores"
            )
        return engine.cores[spec.core]

    def _install_inq(self, engine, spec: FaultSpec) -> None:
        """Substitute the target core's InQ (manager -> core) before any
        event flows; a second InQ fault on the same core subclasses the
        first's queue, so both fire."""
        ct = self._core(engine, spec)
        base = type(ct.inq)
        plan = self
        armed = _Armed(spec, remaining=spec.count)
        kinds = spec.event_kinds()
        duplicate = spec.kind == "dup_inq"

        class _FaultInQ(base):
            __slots__ = ()

            def push(self, event: Event) -> None:
                if armed.remaining > 0 and event.ts >= spec.at and event.kind in kinds:
                    armed.remaining -= 1
                    if duplicate:
                        base.push(self, event)
                        dup = Event(event.kind, event.addr, event.core,
                                    event.ts + spec.delta, grant=event.grant,
                                    req_seq=event.req_seq)
                        base.push(self, dup)
                        plan._record("dup_inq", core=spec.core,
                                     event=event.kind.label, ts=event.ts,
                                     dup_ts=dup.ts, seq=event.seq, dup_seq=dup.seq)
                    else:
                        orig = event.ts
                        event.ts += spec.delta
                        base.push(self, event)
                        plan._record("delay_inq", core=spec.core,
                                     event=event.kind.label, ts=orig,
                                     new_ts=event.ts, seq=event.seq)
                    return
                base.push(self, event)

        if len(ct.inq):
            raise RuntimeError(f"{spec.kind} must install before any InQ traffic")
        ct.inq = _FaultInQ()

    def _install_reorder(self, engine, spec: FaultSpec) -> None:
        """Swap a matching OutQ push ahead of the entry queued before it."""
        ct = self._core(engine, spec)
        inner = ct.model.emit
        q = ct.outq._q
        armed = _Armed(spec, remaining=spec.count)

        def emit(event: Event) -> None:
            # Only a push that finds the queue non-empty can reorder; a miss
            # does not consume the count, so the fault waits for a turn that
            # emits back-to-back events (e.g. PUTM writeback + refill miss).
            if armed.remaining > 0 and event.ts >= spec.at and q:
                armed.remaining -= 1
                tail = q.pop()
                q.append(event)
                q.append(tail)
                self._record("reorder_outq", core=spec.core, ts=event.ts,
                             moved_ahead=event.seq, now_behind=tail.seq)
                return
            inner(event)

        ct.model.emit = emit

    def _install_gq(self, engine, spec: FaultSpec) -> None:
        """Substitute a timestamp-shifting GlobalQueue before any event flows."""
        from repro.core.queues import GlobalQueue

        plan = self
        armed = _Armed(spec, remaining=spec.count)

        class _DelayGQ(GlobalQueue):
            __slots__ = ()

            def push(self, event: Event) -> None:
                if (
                    armed.remaining > 0
                    and event.ts >= spec.at
                    and (spec.core < 0 or event.core == spec.core)
                    and (spec.addr < 0 or event.addr == spec.addr)
                ):
                    armed.remaining -= 1
                    orig = event.ts
                    event.ts += spec.delta
                    plan._record("delay_gq", core=event.core,
                                 event=event.kind.label, ts=orig,
                                 new_ts=event.ts, seq=event.seq)
                GlobalQueue.push(self, event)

        if len(engine.manager.gq):
            raise RuntimeError("delay_gq must install before any GQ traffic")
        engine.manager.gq = _DelayGQ(engine.scheme.gq_policy)

    def wrap_turn(self, manager, turn_budget, core_batch_cost):
        """The run loop's ``turn_budget(ct)`` and ``core_batch_cost(...)``
        with this plan's ``overrun_window`` and ``stall_core`` faults around
        them.  Called by ``run()``: the wrappers live in its frame, so the
        engine they close over never owns them."""
        overruns, stalls = self._overruns, self._stalls
        if overruns:
            inner_budget = turn_budget

            def turn_budget(ct) -> int:
                # Raise the window edge mid-grant: the core overruns its slack.
                budget = inner_budget(ct)
                for armed in overruns:
                    spec = armed.spec
                    if (
                        armed.remaining > 0
                        and ct.core_id == spec.core
                        and manager.global_time >= spec.at
                    ):
                        armed.remaining -= 1
                        ct.max_local_time += spec.extra
                        self._record("overrun_window", core=spec.core,
                                     local=ct.local_time,
                                     new_max_local=ct.max_local_time,
                                     extra=spec.extra)
                        budget += spec.extra
                return budget

        if stalls:
            inner_cost = core_batch_cost

            def core_batch_cost(core_id: int, stats, *, suspended: bool) -> float:
                # One-shot host-preemption surcharge on the core's batches.
                cost = inner_cost(core_id, stats, suspended=suspended)
                for armed in stalls:
                    spec = armed.spec
                    if (
                        armed.remaining > 0
                        and core_id == spec.core
                        and manager.global_time >= spec.at
                    ):
                        armed.remaining -= 1
                        self._record("stall_core", core=core_id,
                                     global_time=manager.global_time,
                                     host_delay=spec.host_delay)
                        cost += spec.host_delay
                return cost

        return turn_budget, core_batch_cost

    # ------------------------------------------------------------ timed faults
    def on_manager_step(self, engine, global_time: int) -> None:
        """Fire pending time-triggered faults (called from the manager branch;
        the engine only calls this at all while :meth:`needs_tick` is True)."""
        if not self._timed:
            return
        for armed in list(self._timed):
            if global_time < armed.spec.at:
                continue
            if armed.spec.kind == "corrupt_dir":
                if self._corrupt_dir(engine, armed.spec, global_time):
                    self._timed.remove(armed)
            else:  # pragma: no cover - install() routes every timed kind
                raise AssertionError(armed.spec.kind)

    def _corrupt_dir(self, engine, spec: FaultSpec, global_time: int) -> bool:
        """Clear one presence bit; returns False to retry (no entry yet)."""
        from repro.mem.directory import DirState

        directory = engine.memsys.directory
        if spec.addr >= 0:
            entry = directory._entries.get(spec.addr)
            if entry is None or not entry.sharers:
                return False
            addr = spec.addr
        else:
            candidates = sorted(
                a for a, e in directory._entries.items() if e.sharers
            )
            if not candidates:
                return False
            addr = self._rng.choice(candidates)
            entry = directory._entries[addr]
        sharers = sorted(entry.sharers)
        victim = spec.core if spec.core in entry.sharers else self._rng.choice(sharers)
        entry.sharers.discard(victim)
        if entry.owner == victim:
            entry.owner = None
        if not entry.sharers:
            entry.state = DirState.INVALID
            entry.owner = None
        self._record("corrupt_dir", addr=addr, victim=victim,
                     global_time=global_time, state=entry.state.name,
                     remaining_sharers=len(entry.sharers))
        return True
