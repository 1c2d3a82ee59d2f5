"""The event-driven OoO core against its two oracles.

* **Reference vs shipped, whole runs.**  ``tests/cpu/ooo_reference.py`` is the
  scan-based model ``src/`` held before the wakeup scoreboard; patched in for
  ``repro.cpu.ooo.OoOCore`` it must produce the same run — stats digest,
  cycles, bit-exact modeled host time and busy time, ``host.steps`` and every
  ``engine.*`` counter — on the registered workloads, the checkpoint goldens'
  lock/barrier program and ``test_ooo.py``'s programs over the model's knobs.
* **``advance`` vs per-cycle ``step``, turn by turn.**  One CoreThread under a
  stub manager, in the mould of ``test_advance_equals_per_cycle_stepping``:
  the shipped core through ``advance``, the shipped core stepped cycle by
  cycle (``single=True``) and the reference model must agree after every turn.
"""

import dataclasses
import itertools
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.cpu.ooo as shipped
from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.corethread import CoreState, CoreThread
from repro.core.engine import SequentialEngine
from repro.core.events import EvKind, Event
from repro.cpu.arch import ArchState
from repro.cpu.l1cache import L1Cache, L1Config
from repro.isa import DATA_BASE, assemble
from repro.lang import compile_source
from repro.sysapi.loader import load_program
from repro.sysapi.system import SystemEmulation
from repro.violations.detect import ViolationCounters, WordOrderTracker
from repro.workloads.registry import make_workload
from tests.conftest import assert_same_run
from tests.core.test_checkpoint import PROGRAM_SRC as LOCK_BARRIER
from tests.cpu.ooo_reference import OoOCore as ReferenceCore
from tests.cpu.test_ooo import BRANCHY, FORWARDING, INDEPENDENT_OPS


# ------------------------------------------------------------------ whole runs
def run_with(core_cls, program, *, target, sim, host=None, **engine_kw):
    with mock.patch.object(shipped, "OoOCore", core_cls):
        return SequentialEngine(
            program, target=target, host=host, sim=sim, **engine_kw
        ).run()


def assert_same_execution(a, b):
    """``assert_same_run`` plus what the digest does not cover: the host
    model's busy time and call count and the engine's own counters."""
    assert_same_run(a, b)
    assert float.hex(a.host_busy) == float.hex(b.host_busy)
    sa, sb = a.stats, b.stats
    assert sa["host.steps"] == sb["host.steps"]
    engine_counters = {k: v for k, v in sa.items() if k.startswith("engine.")}
    assert engine_counters
    assert engine_counters == {k: v for k, v in sb.items() if k.startswith("engine.")}


def assert_reference_equal(program, *, target, sim, host=None, **engine_kw):
    new = run_with(shipped.OoOCore, program, target=target, sim=sim, host=host, **engine_kw)
    ref = run_with(ReferenceCore, program, target=target, sim=sim, host=host, **engine_kw)
    assert new.completed
    assert_same_execution(ref, new)
    return new


#: The registered workloads' modeled host times on the ``ooo`` core (the
#: scheme goldens and ``workload_host_times.json`` are in-order only),
#: written at the commit *before* the scoreboard replaced the scan-based
#: model.  Regenerate deliberately with ``--update-goldens``.
GOLDEN = Path(__file__).parents[1] / "core" / "goldens" / "ooo_host_times.json"


@pytest.mark.parametrize("name", ["barnes", "fft", "lu", "water"])
def test_reference_equal_on_registered_workloads(request, name):
    program = make_workload(name, scale="tiny").program
    fresh = {}
    for scheme, hosts in itertools.product(("cc", "q10", "s9", "su"), (1, 8)):
        result = assert_reference_equal(
            program,
            target=TargetConfig(core_model="ooo"),
            host=HostConfig(num_cores=hosts),
            sim=SimConfig(scheme=scheme, seed=1),
        )
        fresh[f"{scheme}/h{hosts}"] = {
            "execution_cycles": result.execution_cycles,
            "stats_sha256": result.stats_sha256,
            "host_time": float(result.host_time).hex(),
            "host_busy": float(result.host_busy).hex(),
        }
    goldens = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if request.config.getoption("--update-goldens"):
        goldens[name] = fresh
        GOLDEN.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    assert fresh == goldens.get(name), (
        f"{name}: the ooo core's modeled host time moved — if intentional, "
        "regenerate with --update-goldens"
    )


@pytest.mark.parametrize("scheme", ["cc", "q3", "s2", "su"])
def test_reference_equal_on_lock_barrier_program(scheme):
    """Contended lock + closing barrier on 4 cores: blocked syscalls released
    by peers, early and late, with and without fast-forward compensation."""
    program = compile_source(LOCK_BARRIER).program
    for fastforward in (False, True):
        result = assert_reference_equal(
            program,
            target=TargetConfig(num_cores=4, core_model="ooo"),
            host=HostConfig(num_cores=4),
            sim=SimConfig(scheme=scheme, seed=11, fastforward=fastforward),
        )
        assert list(result.output) == [24]


KNOBS = list(itertools.product((1, 4), (4, 64), (0, 1, 8), (False, True), ("predecoded", "oracle")))


@pytest.mark.parametrize(
    "source",
    # Fewer iterations than test_ooo.py runs: 48 knob settings x 2 models each.
    [INDEPENDENT_OPS.replace("i < 50", "i < 20"), FORWARDING, BRANCHY.replace("i < 300", "i < 40")],
    ids=["ilp", "forwarding", "branchy"],
)
def test_reference_equal_over_model_knobs(source):
    program = compile_source(source).program
    for width, rob, penalty, fastforward, dispatch in KNOBS:
        assert_reference_equal(
            program,
            target=TargetConfig(
                num_cores=1, memory_bytes=8 << 20, core_model="ooo",
                ooo_width=width, ooo_rob=rob, mispredict_penalty=penalty,
            ),
            host=HostConfig(num_cores=1),
            sim=SimConfig(scheme="s9", seed=3, fastforward=fastforward),
            dispatch=dispatch,
        )


@pytest.mark.parametrize("name", ["fft", "water"])
@pytest.mark.parametrize("scheme", ["s9", "su"])
def test_advance_equals_single_stepping_on_whole_runs(name, scheme):
    """``stepping="single"`` calls ``step`` cycle by cycle through the same
    turn structure: it is ``advance``'s oracle inside the shipped model."""
    program = make_workload(name, scale="tiny").program
    runs = [
        SequentialEngine(
            program, target=TargetConfig(core_model="ooo"),
            sim=SimConfig(scheme=scheme, seed=1), stepping=stepping,
        ).run()
        for stepping in ("batched", "single")
    ]
    assert_same_execution(*runs)


# ------------------------------------------------- advance vs step, turn by turn
#: One loop iteration per 256-byte region, written so that every case of the
#: scoreboard is taken: three cold misses against a two-entry MSHR file (the
#: third load is refused after touching the L1 and retried every cycle), a
#: load parked on another's MSHR, an ``fsd`` whose data is a 12-cycle ``fdiv``
#: away followed by an ``fld`` and an ``ld`` of the same word (both park on the
#: store; the ``ld`` reinterprets float bits), a done-store forward, a
#: data-dependent branch, a call and return, an AMO (serialises, may miss), a
#: ``sema_signal`` that leaves a wake order, a ``sema_wait`` that blocks until
#: the script releases it, and either ``exit`` or a ``halt`` entry at the end.
SCOREBOARD_ASM = """
.data
region: .space 1280
.text
main:
    ld   t0, 0(s1)
    ld   t1, 64(s1)
    ld   t2, 128(s1)
    ld   t3, 8(s1)
    add  t4, t0, t1
    mul  t5, t4, s2
    add  t5, t5, t2
    fcvt.d.l f1, s2
    fcvt.d.l f4, t5
    fdiv f2, f4, f1
    fsd  f2, 16(s1)
    fld  f3, 16(s1)
    ld   t6, 16(s1)
    fadd f5, f3, f2
    sd   t5, 24(s1)
    ld   a1, 24(s1)
    xor  a2, t6, s2
    andi a2, a2, 1
    bne  a2, zero, odd
    addi a3, a3, 1
odd:
    jal  ra, leaf
    amoadd a4, s2, 192(s1)
    addi a7, zero, 27
    add  a0, s5, zero
    ecall
    addi a7, zero, 26
    add  a0, s4, zero
    ecall
    addi s1, s1, 256
    addi s2, s2, -1
    bne  s2, zero, main
    bne  s3, zero, stop
    addi a7, zero, 0
    ecall
stop:
    halt
leaf:
    addi a5, a5, 3
    xor  a6, a5, s2
    jalr zero, ra, 0
"""
REGIONS = 4
_PROGRAM = assemble(SCOREBOARD_ASM)
_L1 = L1Config(size_bytes=1024, block_bytes=64, assoc=2, hit_latency=2)
#: Semaphore addresses (emulation-side keys; never dereferenced).
_SEMA_BLOCK, _SEMA_WAKE = DATA_BASE + 4096, DATA_BASE + 4104


class _Rig:
    """One CoreThread over SCOREBOARD_ASM plus a stub manager that grants
    every request ``resp_delay`` cycles after its issue."""

    def __init__(self, core_cls, *, single, halt, width, rob, penalty):
        self.single = single
        self.counters = ViolationCounters()
        self.ct = ct = CoreThread(0, None)
        image = load_program(_PROGRAM, num_contexts=1, memory_bytes=8 << 20)
        system = SystemEmulation(image, 1)
        system.sync.sema_init(_SEMA_BLOCK, 0)
        system.sync.sema_init(_SEMA_WAKE, 0)
        # A peer "core 1" waits on the second semaphore for every signal.
        system.sync._sema(_SEMA_WAKE).waiters.extend([1] * REGIONS)
        model = core_cls(
            0, _PROGRAM, image.memory, L1Cache(_L1), ct.outq.push, system,
            width=width, rob_size=rob, mshrs=2, mispredict_penalty=penalty,
            word_tracker=WordOrderTracker(self.counters),
        )
        state = ArchState(context_id=0)
        state.x[9] = DATA_BASE      # s1: first region
        state.x[18] = REGIONS       # s2: iterations left
        state.x[19] = int(halt)     # s3: end in ``halt`` instead of exit
        state.x[20] = _SEMA_BLOCK   # s4
        state.x[21] = _SEMA_WAKE    # s5
        model.bind_context(state)
        ct.model = model
        ct.activate(_PROGRAM.entry, 0, 0)

    def turn(self, budget, window, inject, release, resp_delay, grant_shared):
        """Raise the window, queue the injected coherence event, run one
        batch, answer its requests, maybe arm the release of a blocked
        syscall (in the past: late; ahead: early); returns everything
        observable."""
        ct = self.ct
        model = ct.model
        ct.max_local_time = max(ct.max_local_time, ct.local_time + window)
        if inject is not None:
            kind, block, delay = inject
            ct.inq.push(Event(kind, DATA_BASE + 64 * block, 0, ct.local_time + delay))
        stats = dataclasses.asdict(ct.run(budget, single=self.single))
        out = [(e.kind, e.addr, e.ts) for e in ct.outq.drain()]
        for kind, addr, ts in out:
            if kind is not EvKind.PUTM:
                grant = "S" if kind is EvKind.GETS and grant_shared else (
                    "E" if kind is EvKind.GETS else "M")
                ct.inq.push(Event(EvKind.RESPONSE, addr, 0, ts + resp_delay, grant=grant))
        if release is not None and model._blocked and model._release_ts is None:
            model.release(ct.local_time + release)
        return (
            stats, out, ct.state, ct.local_time, ct.final_time, model.phase,
            model.committed, model.stall_cycles, model.mispredicts,
            len(model._rob), len(model._store_buffer), sorted(model._mshrs),
            model._fetch_stall_until, model._blocked, model._release_ts,
            dataclasses.asdict(model.l1d.stats), sorted(model.l1d.resident_blocks(), key=str),
            dataclasses.asdict(self.counters), model.state.digest(),
        )


_inject = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from([EvKind.INVALIDATE, EvKind.DOWNGRADE]),
        st.integers(0, 4 * REGIONS - 1),
        st.integers(0, 12),
    ),
)


@settings(max_examples=80, deadline=None)
@given(
    turns=st.lists(
        st.tuples(
            st.integers(1, 40), st.integers(1, 40), _inject,
            st.one_of(st.none(), st.integers(-6, 30)),
        ),
        min_size=1, max_size=60,
    ),
    resp_delay=st.integers(1, 30),
    grant_shared=st.booleans(),
    halt=st.booleans(),
    width=st.sampled_from([1, 4]),
    rob=st.sampled_from([4, 64]),
    penalty=st.sampled_from([0, 1, 8]),
)
def test_advance_equals_per_cycle_stepping(
    turns, resp_delay, grant_shared, halt, width, rob, penalty
):
    """``run(k)`` through ``advance`` ≡ k × ``step`` ≡ the scan-based model:
    random budgets and window edges (so limits fall inside pure-wait
    stretches, spin stretches and dispatch groups), response delays,
    invalidations and downgrades, a blocked syscall released early, late or
    not at all.  Turn by turn BatchStats (wakes included), OutQ events,
    clocks, ``final_time``, commit / ``stall_cycles`` / ``mispredicts``
    counters, ROB, store-buffer and MSHR occupancy, L1 stats and contents,
    the tracker's counters and the architectural state are equal."""
    knobs = dict(halt=halt, width=width, rob=rob, penalty=penalty)
    rigs = {
        "advance": _Rig(shipped.OoOCore, single=False, **knobs),
        "single": _Rig(shipped.OoOCore, single=True, **knobs),
        "reference": _Rig(ReferenceCore, single=False, **knobs),
    }
    # The script, then a plain drain to the end of the program: every example
    # also compares the halting cycle (``final_time``, the last commits).
    drain = itertools.repeat((40, 40, None, 3), 200)
    for budget, window, inject, release in itertools.chain(turns, drain):
        seen = {
            name: rig.turn(budget, window, inject, release, resp_delay, grant_shared)
            for name, rig in rigs.items()
        }
        for name, observed in seen.items():
            assert observed == seen["reference"], name
        if rigs["reference"].ct.state != CoreState.ACTIVE:
            break
    else:
        raise AssertionError("SCOREBOARD_ASM did not finish")
