"""``cycle(now)``, the barrier superstep's one model call per core-cycle,
against its definition: ``wait_state(now)``, then ``skip(1)`` (``None``) or
``step(now)`` — cycle by cycle, on every core model.

Two copies of one core run in lockstep, one answering ``cycle`` itself and
one through the definition, under a stub manager that answers each request a
few cycles after its issue and releases a blocked syscall by hand.  Every
cycle, the answers and the state a cycle can change must agree, and the
in-order and replay pipelines must take every branch of the fused method: a
spin, a blocked syscall's release, a pending miss before and after its
response, a multi-cycle op and a halt.
"""

from __future__ import annotations

import pytest

from repro.cache import compile_source
from repro.cpu.arch import ArchState
from repro.cpu.inorder import InOrderCore
from repro.cpu.interfaces import CorePhase
from repro.cpu.l1cache import L1Cache, L1Config
from repro.cpu.ooo import OoOCore
from repro.mem.directory import MESI, EvKind, Event
from repro.sysapi.loader import load_program
from repro.sysapi.system import SystemEmulation
from repro.trace.capture import CoreRecorder
from repro.trace.replay import ReplayCore, ReplaySystem
from repro.violations.detect import ViolationCounters, WordOrderTracker
from repro.workloads.synthetic import TraceCore

#: Misses, an FP divide, a barrier the one thread blocks in, then exit.
SOURCE = """
int bar; int buf[64]; float x;
int main() {
    init_barrier(&bar, 2);
    x = 3.0;
    x = x / 7.0;
    buf[8] = buf[0] + 1;
    barrier(&bar);
    buf[24] = buf[8] + buf[16];
    print_int(buf[24]);
    return 0;
}
"""
SCRIPT = [("think", 5), ("load", 0x1000), ("store", 0x1000), ("load", 0x2000),
          ("think", 3), ("store", 0x3000), ("halt",)]
L1 = L1Config(size_bytes=1024, block_bytes=64, assoc=2, hit_latency=2)
RESPONSE_DELAY = 6
RELEASE_DELAY = 9
#: Model attributes a core-cycle may change (each model has some of them).
FIELDS = (
    "phase", "committed", "stall_cycles", "_busy_until", "_blocked", "_release_ts",
    "_pc", "_ip", "_run_left",
)


def observe(model) -> dict:
    out = {f: getattr(model, f) for f in FIELDS if hasattr(model, f)}
    out["pending"] = (
        getattr(model, "_pending", None) is not None
        or getattr(model, "_pending_block", None) is not None
    )
    out["response"] = getattr(model, "_resp", None) is not None
    out["wakes"] = list(model.pending_wakes)
    state = getattr(model, "state", None)
    if state is not None:
        out["pc"] = state.pc
    return out


def definition(model):
    """``cycle`` as the protocol defines it."""

    def cycle(now):
        if model.wait_state(now) is None:
            return model.step(now)
        model.skip(1)
        return None

    return cycle


def make_core(kind: str, emit, tracer=None):
    program = compile_source(SOURCE).program
    tracker = WordOrderTracker(ViolationCounters())
    if kind == "trace":
        model = TraceCore(0, SCRIPT, L1Cache(L1))
        model.emit = emit
    elif kind == "replay":
        model = ReplayCore(0, recorded_ops(), L1Cache(L1), emit, ReplaySystem(1),
                           word_tracker=tracker)
    else:
        image = load_program(program, num_contexts=1, memory_bytes=8 << 20)
        model = InOrderCore(0, program, image.memory, L1Cache(L1), emit,
                            SystemEmulation(image, 1), word_tracker=tracker, tracer=tracer)
        model.bind_context(ArchState(context_id=0))
        image.init_registers(model.state, 0, tid=0)
    model.activate(program.entry, 0, 0)
    return model


class Rig:
    """One core under the stub manager, driven one ``cycle`` call a cycle."""

    def __init__(self, kind: str, fused: bool, tracer=None):
        self.out: list[Event] = []
        self.model = make_core(kind, self.out.append, tracer)
        self.cycle = self.model.cycle if fused else definition(self.model)
        self.due: list[Event] = []

    def deliver(self, now: int) -> None:
        for event in [e for e in self.due if e.ts <= now]:
            self.due.remove(event)
            self.model.deliver_response(event)

    def tick(self, now: int):
        """One cycle, its responses delivered first."""
        self.deliver(now)
        model = self.model
        answer = self.cycle(now)
        for event in self.out:
            if event.kind is not EvKind.PUTM:
                grant = MESI.MODIFIED if event.kind is not EvKind.GETS else MESI.EXCLUSIVE
                self.due.append(Event(EvKind.RESPONSE, event.addr, 0, now + RESPONSE_DELAY, grant))
        self.out.clear()
        if getattr(model, "_blocked", False) and model._release_ts is None:
            model.release(now + RELEASE_DELAY)
        return answer


def recorded_ops() -> list:
    """SOURCE's committed-op stream, for the replay core."""
    rec = CoreRecorder()
    rig = Rig("inorder", fused=False, tracer=rec)
    now = 0
    while rig.model.phase is not CorePhase.HALTED:
        rig.tick(now)
        now += 1
    return rec.finish()


def lockstep(kind: str) -> list:
    """Both copies to the halt; returns the fused copy's log of
    ``(state before, answer, state after)`` per cycle."""
    fused, oracle = Rig(kind, fused=True), Rig(kind, fused=False)
    log = []
    now = 0
    while fused.model.phase is not CorePhase.HALTED:
        fused.deliver(now)
        oracle.deliver(now)
        before = observe(fused.model)
        assert before == observe(oracle.model), now
        answer = fused.tick(now)
        assert answer == oracle.tick(now), now
        log.append((before, answer, observe(fused.model)))
        now += 1
        assert now < 10_000, "the core never halted"
    assert observe(fused.model) == observe(oracle.model)
    return log


def branches(log) -> set:
    """Which branches of the fused pipeline ``cycle`` the log took."""
    seen = set()
    for before, answer, after in log:
        if before.get("_blocked"):
            seen.add("spin" if answer is None else "release")
        elif before["pending"]:
            seen.add("response" if before["response"] else "miss wait")
        elif answer is None:
            seen.add("multi-cycle op")
        if after["phase"] is CorePhase.HALTED:
            seen.add("halt")
    return seen


@pytest.mark.parametrize("kind", ["inorder", "replay"])
def test_the_pipeline_cycle_is_wait_state_then_skip_or_step(kind):
    assert branches(lockstep(kind)) == {
        "spin", "release", "miss wait", "response", "multi-cycle op", "halt",
    }


def test_the_trace_core_cycle_is_wait_state_then_skip_or_step():
    assert branches(lockstep("trace")) == {"miss wait", "response", "multi-cycle op", "halt"}


def test_the_ooo_core_cycle_is_its_step():
    """``wait_state`` is always None on the OoO core: the definition is
    ``step``, and so is the method."""
    assert OoOCore.cycle is OoOCore.step
