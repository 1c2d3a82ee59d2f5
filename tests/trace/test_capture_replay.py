"""Capture → replay equivalence tests (DESIGN.md §11).

The contract under test is **replay transparency**: a run replayed from a
captured trace must produce a stats digest byte-identical to a direct run
under the identical scheme — for every scheme family, because the trace records only the committed-op
stream at the core → memory seam and everything scheme-dependent (windows,
violations, coherence, sync outcomes) is re-enacted live.

The flip side is **capture invariance**: because nothing pacing-dependent
is recorded, capturing the same workload under different schemes and sim
seeds must yield byte-identical trace files.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core import run_simulation
from repro.core.checkpoint import load_checkpoint
from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.engine import EngineError, SequentialEngine
from repro.trace import TraceError, read_trace
from repro.workloads.registry import make_workload
from repro.workloads.synthetic import sharing_workload

from tests.conftest import assert_same_run

#: One representative per scheme family (Table 2): cycle-count, quantum,
#: slack, unbounded.
SCHEMES = ["cc", "q3", "s2", "su"]


WORKLOADS = ["fft", "lu", "water", "barnes"]


@pytest.fixture(scope="module")
def programs():
    return {name: make_workload(name, scale="tiny").program for name in WORKLOADS}


@pytest.fixture(scope="module")
def traces(programs, tmp_path_factory):
    """One cc capture per workload."""
    root = tmp_path_factory.mktemp("trace")
    paths = {}
    for name, program in programs.items():
        paths[name] = str(root / f"{name}.trace")
        result = run_simulation(
            program, sim=SimConfig(scheme="cc", seed=1, trace_mode="capture",
                                   trace_path=paths[name]))
        assert result.completed
    return paths


@pytest.fixture(scope="module")
def fft(programs):
    return programs["fft"]


@pytest.fixture(scope="module")
def fft_trace(traces):
    return traces["fft"]


# fft (barriers only) keeps the ids it had when it was the only workload here;
# lu, water and barnes add locks and spawn/join — the system code replay
# shares with direct runs.
@pytest.mark.parametrize("name,scheme", [
    pytest.param(name, scheme, id=scheme if name == "fft" else f"{name}-{scheme}")
    for name in WORKLOADS for scheme in SCHEMES
])
def test_replay_digest_matches_direct(programs, traces, name, scheme):
    sim = dict(scheme=scheme, seed=1)
    direct = run_simulation(programs[name], sim=SimConfig(**sim))
    replay = run_simulation(
        programs[name],
        sim=SimConfig(trace_mode="replay", trace_path=traces[name], **sim))
    assert direct.completed and replay.completed
    # Full-dump equality, not just the digest.
    assert replay.stats == direct.stats
    assert_same_run(replay, direct)


@pytest.mark.parametrize("target,match", [
    (TargetConfig(core_model="ooo"), "inorder core model"),
])
@pytest.mark.parametrize("mode", ["capture", "replay"])
def test_program_trace_needs_the_inorder_d_side_seam(fft, fft_trace, tmp_path, mode, target, match):
    """Capture and replay refuse the same target: an ``ooo`` replay would
    re-time the in-order pipeline and report it as ``ooo``."""
    path = fft_trace if mode == "replay" else str(tmp_path / "x.trace")
    with pytest.raises(EngineError, match=match):
        SequentialEngine(fft, target=target,
                         sim=SimConfig(trace_mode=mode, trace_path=path))


def test_replay_and_direct_cores_are_one_pipeline():
    """Replay re-times *the same model*: everything after "the instruction is
    known" is inherited by both front ends, not restated."""
    from repro.cpu.inorder import InOrderCore, InOrderPipeline
    from repro.trace.replay import ReplayCore

    for name in ("activate", "step", "wait_state", "skip", "deliver_response",
                 "apply_invalidation", "apply_downgrade", "release", "spinning",
                 "_issue_miss", "_complete_mem", "_finish_syscall"):
        shared = getattr(InOrderPipeline, name)
        assert getattr(ReplayCore, name) is shared, name
        assert name == "activate" or getattr(InOrderCore, name) is shared, name


def _replay_core(ops):
    from repro.cpu.l1cache import L1Cache
    from repro.trace.replay import ReplayCore, ReplaySystem
    from repro.violations.detect import ViolationCounters, WordOrderTracker

    system = ReplaySystem(2)
    system.activate_context = lambda core, pc, arg, ts: None
    core = ReplayCore(0, ops, L1Cache(), lambda event: None, system,
                      word_tracker=WordOrderTracker(ViolationCounters()))
    core.activate(0, 0, 0)
    return core


def test_recorded_spawn_onto_a_busy_core_is_a_trace_error():
    from repro.trace.format import OP_SPAWN

    core = _replay_core([(OP_SPAWN, 1, 1), (OP_SPAWN, 1, 2)])
    assert core.step(0) == (1, True) and core.system.threads[1].core == 1
    with pytest.raises(TraceError, match="busy core 1"):
        core.step(core.wait_state(1)[0])


def test_join_on_an_unrecorded_thread_is_a_trace_error():
    from repro.trace.format import OP_JOIN

    with pytest.raises(TraceError, match="unknown thread 7"):
        _replay_core([(OP_JOIN, 7)]).step(0)


def test_sync_misuse_under_replay_is_a_trace_error():
    """A recorded release of a lock nobody holds is a mismatched trace, not
    a fault of the target program; a direct run still blames the target."""
    from repro.sysapi.syscalls import Sys
    from repro.sysapi.system import SystemBase, TargetError
    from repro.trace.replay import ReplaySystem

    with pytest.raises(TraceError, match="released lock 0x1000 held by None"):
        ReplaySystem(2).sync_call(Sys.LOCK_REL, 0x1000, 0, 0, 5)
    with pytest.raises(TargetError, match="released lock 0x1000 held by None"):
        SystemBase(2).sync_call(Sys.LOCK_REL, 0x1000, 0, 0, 5)


def test_replay_matches_direct_under_fastforward(tmp_path):
    """Fast-forward compensation (§3.2.3) moves ``_busy_until`` on the
    storing core; replay mirrors it touch for touch, so the dumps stay
    equal when the compensation really delays the run."""
    from repro.lang import compile_source
    from tests.faults.test_faults import RACY_SRC

    racy = compile_source(RACY_SRC).program
    path = str(tmp_path / "racy.trace")
    target = TargetConfig(num_cores=2)
    run_simulation(racy, target=target, sim=SimConfig(
        scheme="cc", seed=1, trace_mode="capture", trace_path=path))
    runs = {}
    for ff in (False, True):
        sim = dict(scheme="s9", seed=1, fastforward=ff)
        direct = run_simulation(racy, target=target, sim=SimConfig(**sim))
        replay = run_simulation(racy, target=target, sim=SimConfig(
            trace_mode="replay", trace_path=path, **sim))
        assert replay.stats == direct.stats
        assert_same_run(replay, direct)
        runs[ff] = direct
    assert runs[True].violations.fastforward_cycles > 0
    assert runs[True].execution_cycles > runs[False].execution_cycles


def test_capture_is_scheme_and_seed_invariant(fft, tmp_path):
    """Same workload captured under (cc, seed 1) and (s4, seed 9) is the
    same file, byte for byte — the sim seed only jitters host costs and the
    scheme only paces, neither reaches the committed stream."""
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    run_simulation(fft, sim=SimConfig(scheme="cc", seed=1,
                                      trace_mode="capture", trace_path=str(a)))
    run_simulation(fft, sim=SimConfig(scheme="s4", seed=9,
                                      trace_mode="capture", trace_path=str(b)))
    assert a.read_bytes() == b.read_bytes()


def test_stale_trace_is_refused(fft_trace):
    """Replaying against a different program is a hard error, not garbage:
    the recorded streams describe a different execution."""
    lu = make_workload("lu", scale="tiny").program
    with pytest.raises(EngineError, match="digest"):
        run_simulation(lu, sim=SimConfig(trace_mode="replay",
                                         trace_path=fft_trace))


def test_corrupt_trace_is_refused(fft_trace, tmp_path):
    raw = bytearray(pathlib.Path(fft_trace).read_bytes())
    raw[len(raw) // 2] ^= 0x40
    bad = tmp_path / "bad.trace"
    bad.write_bytes(bytes(raw))
    with pytest.raises(TraceError, match="integrity"):
        read_trace(str(bad))


def test_replay_composes_with_checkpoints(fft, fft_trace, tmp_path):
    """Checkpointing a replay run and resuming it stays digest-identical
    to the uninterrupted direct run — the two subsystems compose."""
    sim = dict(scheme="q3", seed=5)
    direct = run_simulation(fft, sim=SimConfig(**sim))
    ckpt = str(tmp_path / "replay.ckpt")
    engine = SequentialEngine(
        fft, sim=SimConfig(trace_mode="replay", trace_path=fft_trace,
                           checkpoint_interval=2000, checkpoint_path=ckpt,
                           **sim))
    result = engine.run()
    assert result.completed
    assert_same_run(result, direct)
    assert pathlib.Path(ckpt).exists()
    resumed = load_checkpoint(ckpt).run()
    assert resumed.completed
    assert_same_run(resumed, direct)


def test_capture_refuses_fault_injection(fft, tmp_path):
    """A trace must record a clean execution; capture under fault injection
    is refused rather than silently recorded."""
    with pytest.raises(EngineError, match="capture"):
        run_simulation(
            fft, sim=SimConfig(trace_mode="capture",
                               trace_path=str(tmp_path / "x.trace"),
                               fault_plan="stall_core:core=1,at=50,host_delay=3.0"))


# ------------------------------------------------- programs only, checked
def test_trace_cores_are_refused_by_capture_and_replay(fft_trace, tmp_path):
    """A trace file records a program: scripted trace cores neither capture
    nor replay (the ``"trace"`` flavor is gone), and say so in one line."""
    for mode, path in (("capture", str(tmp_path / "x.trace")), ("replay", fft_trace)):
        with pytest.raises(EngineError, match="trace_cores") as err:
            SequentialEngine(
                None,
                trace_cores=sharing_workload(4, 20, seed=1),
                host=HostConfig(num_cores=4),
                target=TargetConfig(num_cores=4, core_model="trace"),
                sim=SimConfig(trace_mode=mode, trace_path=path),
            )
        assert "\n" not in str(err.value)


def test_a_file_of_another_flavor_is_refused(fft, fft_trace, tmp_path):
    """Input from outside is still checked: a sealed, well-formed file whose
    header names any flavor but ``"program"`` (an old trace-flavor capture)
    is one ``EngineError`` line, not a replay."""
    from repro.trace.format import write_trace

    trace = read_trace(fft_trace)
    other = str(tmp_path / "other.trace")
    write_trace(other, {**trace.header, "flavor": "trace"}, trace.core_ops)
    with pytest.raises(EngineError, match="flavor 'trace'") as err:
        SequentialEngine(fft, sim=SimConfig(trace_mode="replay", trace_path=other))
    assert "\n" not in str(err.value)
