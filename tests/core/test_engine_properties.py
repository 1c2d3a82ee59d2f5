"""Property-based engine tests: invariants over random workloads/schemes."""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core import SequentialEngine, run_simulation
from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.corethread import CoreState, CoreThread
from repro.core.events import EvKind, Event
from repro.cpu.arch import ArchState
from repro.cpu.inorder import InOrderCore
from repro.cpu.l1cache import MESI, L1Cache, L1Config
from repro.isa import DATA_BASE, assemble
from repro.sysapi.loader import load_program
from repro.sysapi.system import SystemEmulation
from repro.trace.capture import CoreRecorder
from repro.trace.replay import ReplayCore, ReplaySystem
from repro.violations.detect import ViolationCounters, WordOrderTracker
from repro.workloads.synthetic import TraceCore, sharing_workload
from tests.core.threaded_harness import _LockedInQ

SCHEMES = ["cc", "q10", "l10", "s9", "s9*", "s100", "su", "aq10-80"]
#: The schemes that process requests in timestamp order.
CONSERVATIVE = {"cc", "q10", "l10", "s9*"}


@settings(max_examples=25, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    num_cores=st.integers(2, 6),
    ops=st.integers(5, 25),
    shared=st.floats(0.0, 0.8),
    writes=st.floats(0.0, 1.0),
    wl_seed=st.integers(0, 50),
    host_cores=st.integers(1, 8),
)
def test_random_workloads_terminate_with_invariants(
    scheme, num_cores, ops, shared, writes, wl_seed, host_cores
):
    """Every scheme must terminate on every random sharing workload with the
    clock invariant intact and sane accounting."""
    cores = sharing_workload(
        num_cores, ops, shared_fraction=shared, write_fraction=writes, seed=wl_seed
    )
    engine = SequentialEngine(
        None,
        target=TargetConfig(num_cores=num_cores, core_model="trace"),
        host=HostConfig(num_cores=host_cores),
        sim=SimConfig(scheme=scheme, seed=3),
        trace_cores=cores,
    )
    violations_of_window = []
    slack_bound = engine.scheme.slack

    def probe(host_t, global_t, locals_):
        for t in locals_:
            if t >= 0 and (t < global_t or t > global_t + slack_bound):
                violations_of_window.append((global_t, t))

    engine.probe = probe
    result = engine.run()
    assert result.completed
    assert not violations_of_window
    assert result.execution_cycles > 0
    assert result.host_time > 0
    assert result.instructions == sum(c["committed"] for c in result.cores)
    if scheme in CONSERVATIVE:
        assert result.violations.simulation_state == 0
        assert result.violations.system_state == 0


@settings(max_examples=25, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    num_cores=st.integers(2, 5),
    ops=st.integers(5, 20),
    wl_seed=st.integers(0, 40),
)
def test_clock_invariant_global_local_max_local(scheme, num_cores, ops, wl_seed):
    """The paper's pacing invariant, checked at every manager step:
    ``global <= local <= max_local`` for every active core."""
    engine = SequentialEngine(
        None,
        target=TargetConfig(num_cores=num_cores, core_model="trace"),
        host=HostConfig(num_cores=num_cores),
        sim=SimConfig(scheme=scheme, seed=5),
        trace_cores=sharing_workload(num_cores, ops, seed=wl_seed),
    )

    def probe(host_t, global_t, locals_):
        engine.manager.check_invariants()
        for ct in engine.cores:
            if ct.state == CoreState.ACTIVE:
                assert global_t <= ct.local_time <= ct.max_local_time

    engine.probe = probe
    assert engine.run().completed


@settings(max_examples=25, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    num_cores=st.integers(2, 5),
    ops=st.integers(5, 20),
    shared=st.floats(0.0, 0.8),
    wl_seed=st.integers(0, 40),
    seed=st.integers(0, 10),
)
def test_step_many_equals_per_cycle_stepping(scheme, num_cores, ops, shared, wl_seed, seed):
    """The batched fast path (``step_many`` jumping wait stretches via
    ``skip``) must be observationally identical to stepping every cycle:
    same clocks, same events, same bit-exact host times."""
    def run(stepping):
        return SequentialEngine(
            None,
            trace_cores=sharing_workload(num_cores, ops, shared_fraction=shared, seed=wl_seed),
            host=HostConfig(num_cores=num_cores),
            sim=SimConfig(scheme=scheme, seed=seed),
            target=TargetConfig(num_cores=num_cores, core_model="trace"),
            stepping=stepping,
        ).run()

    a, b = run("batched"), run("single")
    assert a.execution_cycles == b.execution_cycles
    assert a.global_time == b.global_time
    assert a.instructions == b.instructions
    assert a.host_time == b.host_time  # bit-exact, not approximate
    assert a.host_busy == b.host_busy
    assert a.requests == b.requests
    assert a.barriers == b.barriers
    assert a.cores == b.cores
    assert [a.stats[f"core{i}.final_time"] for i in a.ran] == [
        b.stats[f"core{i}.final_time"] for i in b.ran
    ]


#: One loop iteration per cache line, written so that every way out of
#: ``advance`` is taken: the first instruction is a cold miss, two more loads
#: hit the same line (an injected invalidation can land between them), the
#: store upgrades after an injected downgrade, 3/4/12-cycle FP ops drain
#: across whatever window edge the script picks, the AMO and the ecall are
#: left to ``step``, and a latency-1 ALU tail ends in a taken branch.
ADVANCE_ASM = """
.data
lines: .space 512
.text
main:
    ld   t0, 0(s1)
    ld   t1, 8(s1)
    ld   t2, 16(s1)
    add  t3, t0, t1
    sd   t3, 24(s1)
    fcvt.d.l f1, s2
    fmul f2, f1, f1
    fdiv f3, f2, f1
    fsd  f3, 32(s1)
    amoadd t4, s2, 40(s1)
    addi a7, zero, 12
    ecall
    addi s1, s1, 64
    addi s2, s2, -1
    addi t5, t5, 3
    xor  t6, t5, s2
    bne  s2, zero, main
    addi a7, zero, 0
    ecall
"""
ADVANCE_LINES = 8
_ADVANCE_PROGRAM = assemble(ADVANCE_ASM)
_ADVANCE_L1 = L1Config(size_bytes=1024, block_bytes=64, assoc=2, hit_latency=2)


class _AdvanceRig:
    """One CoreThread over ADVANCE_ASM — or over a trace *script* — plus a
    stub manager that grants every request ``resp_delay`` cycles after its
    issue."""

    def __init__(self, *, ops=None, script=None, single=False, locked=False, tracer=None):
        self.single = single
        self.counters = ViolationCounters()
        tracker = WordOrderTracker(self.counters)
        self.ct = ct = CoreThread(0, None)
        if script is not None:
            model = TraceCore(0, script, L1Cache(_ADVANCE_L1))
            model.emit = ct.outq.push
        elif ops is None:
            image = load_program(_ADVANCE_PROGRAM, num_contexts=1, memory_bytes=8 << 20)
            model = InOrderCore(
                0, _ADVANCE_PROGRAM, image.memory, L1Cache(_ADVANCE_L1),
                ct.outq.push, SystemEmulation(image, 1),
                word_tracker=tracker, tracer=tracer,
            )
            state = ArchState(context_id=0)
            state.x[9] = DATA_BASE       # s1: first line
            state.x[18] = ADVANCE_LINES  # s2: iterations left
            model.bind_context(state)
        else:
            model = ReplayCore(
                0, ops, L1Cache(_ADVANCE_L1), ct.outq.push, ReplaySystem(1),
                word_tracker=tracker,
            )
        ct.model = model
        if locked:
            ct.inq = _LockedInQ(ct.inq)
        ct.activate(_ADVANCE_PROGRAM.entry, 0, 0)

    def turn(self, budget, window, inject, resp_delay, grant_shared):
        """Raise the window, queue the injected coherence event, run one
        batch, answer its requests; returns everything observable."""
        ct = self.ct
        ct.max_local_time = max(ct.max_local_time, ct.local_time + window)
        if inject is not None:
            kind, line, delay = inject
            ct.inq.push(Event(kind, DATA_BASE + 64 * line, 0, ct.local_time + delay))
        stats = dataclasses.asdict(ct.step_many(budget, wait_chunk=8, single=self.single))
        out = [(e.kind, e.addr, e.ts) for e in ct.outq.drain()]
        for kind, addr, ts in out:
            if kind is not EvKind.PUTM:
                grant = MESI.SHARED if kind is EvKind.GETS and grant_shared else (
                    MESI.EXCLUSIVE if kind is EvKind.GETS else MESI.MODIFIED)
                ct.inq.push(Event(EvKind.RESPONSE, addr, 0, ts + resp_delay, grant))
        model = ct.model
        l1 = model.l1 if isinstance(model, TraceCore) else model.l1d
        return (
            stats, out, ct.state, ct.local_time, model._busy_until, model.committed,
            getattr(model, "stall_cycles", None), model.phase, dataclasses.asdict(l1.stats),
            sorted(l1.resident_blocks()), dataclasses.asdict(self.counters),
        )


def _advance_ops():
    """ADVANCE_ASM's committed-op stream (pacing-invariant, so any drive
    that finishes the program records the same one)."""
    rec = CoreRecorder()
    rig = _AdvanceRig(tracer=rec)
    while rig.ct.state == CoreState.ACTIVE:
        rig.turn(64, 64, None, 1, False)
    return rec.finish()


_ADVANCE_OPS = _advance_ops()


def _inject(lines):
    """No coherence message, or an INVALIDATE/DOWNGRADE for one of *lines*
    queued a few cycles ahead."""
    return st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from([EvKind.INVALIDATE, EvKind.DOWNGRADE]),
            st.integers(0, lines - 1),
            st.integers(0, 12),
        ),
    )


@settings(max_examples=60, deadline=None)
@given(
    turns=st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 40), _inject(ADVANCE_LINES)),
        min_size=1, max_size=40,
    ),
    resp_delay=st.integers(1, 30),
    grant_shared=st.booleans(),
)
def test_advance_equals_per_cycle_stepping(turns, resp_delay, grant_shared):
    """``step_many(k) ≡ k × step()`` with the model's ``advance`` loop in
    play: random budgets and window edges (so limits fall inside blocks,
    multi-cycle drains and hit runs), random invalidations/downgrades, on
    the direct and the replay core, over the sequential engine's raw InQ
    heap and the threaded engine's locked ``peek_ts`` facade.  Turn by turn,
    BatchStats, OutQ events, clocks, ``_busy_until``, commit and stall
    counters, L1 stats and contents and the tracker's counters are equal to
    the per-cycle oracle's — and replay's to direct's."""
    rigs = {
        "direct": _AdvanceRig(),
        "direct-locked": _AdvanceRig(locked=True),
        "direct-single": _AdvanceRig(single=True),
        "replay": _AdvanceRig(ops=_ADVANCE_OPS),
        "replay-locked": _AdvanceRig(ops=_ADVANCE_OPS, locked=True),
        "replay-single": _AdvanceRig(ops=_ADVANCE_OPS, single=True),
    }
    for budget, window, inject in turns:
        seen = {
            name: rig.turn(budget, window, inject, resp_delay, grant_shared)
            for name, rig in rigs.items()
        }
        oracle = seen["direct-single"]
        for name, observed in seen.items():
            assert observed == oracle, name
    direct = rigs["direct"].ct.model
    assert direct.state.digest() == rigs["direct-single"].ct.model.state.digest()


#: Four lines per set of the 8-set, 2-way rig L1: fills evict, dirty victims
#: leave as PUTMs.
TRACE_LINES = 32

_trace_scripts = st.lists(
    st.one_of(
        st.tuples(st.just("think"), st.integers(1, 6)),
        st.tuples(
            st.sampled_from(["load", "store"]),
            st.integers(0, TRACE_LINES - 1).map(lambda line: DATA_BASE + 64 * line),
        ),
        st.just(("halt",)),
    ),
    min_size=1, max_size=60,
).map(lambda ops: ops + [("halt",)])


@settings(max_examples=60, deadline=None)
@given(
    script=_trace_scripts,
    turns=st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 40), _inject(TRACE_LINES)),
        min_size=1, max_size=40,
    ),
    resp_delay=st.integers(1, 30),
    grant_shared=st.booleans(),
)
def test_trace_advance_equals_per_cycle_stepping(script, turns, resp_delay, grant_shared):
    """``TraceCore.advance`` (fill → L1 hits and think stretches → miss
    issue in one call) against ``single=True`` stepping: random think/load/
    store/halt scripts, budgets and window edges, and invalidations/
    downgrades that race the in-flight fill.  Turn by turn, BatchStats, OutQ
    events, clocks, commits, L1 stats (``invalidations_received`` included)
    and L1 contents are equal — over the raw InQ heap and the locked facade."""
    rigs = {
        "trace": _AdvanceRig(script=script),
        "trace-locked": _AdvanceRig(script=script, locked=True),
        "trace-single": _AdvanceRig(script=script, single=True),
    }
    for budget, window, inject in turns:
        seen = {
            name: rig.turn(budget, window, inject, resp_delay, grant_shared)
            for name, rig in rigs.items()
        }
        for name, observed in seen.items():
            assert observed == seen["trace-single"], name


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 30))
def test_determinism_over_random_seeds(seed):
    cores = lambda: sharing_workload(3, 12, seed=9)
    a = run_simulation(None, trace_cores=cores(), scheme="s9",
                       host=HostConfig(num_cores=3),
                       sim=SimConfig(scheme="s9", seed=seed),
                       target=TargetConfig(num_cores=3, core_model="trace"))
    b = run_simulation(None, trace_cores=cores(), scheme="s9",
                       host=HostConfig(num_cores=3),
                       sim=SimConfig(scheme="s9", seed=seed),
                       target=TargetConfig(num_cores=3, core_model="trace"))
    assert (a.execution_cycles, a.host_time, a.violations.total) == (
        b.execution_cycles, b.host_time, b.violations.total
    )
