"""Checkpoint/restore tests (DESIGN.md §8).

The contract under test is **restore equivalence**: for each scheme, the
stats digest (sha256 over the full registry dump, ``float.hex`` host times
included) of

* an uninterrupted run with checkpointing *off*,
* the same run with periodic checkpointing *on*, and
* a run restored from the last checkpoint and finished

must be identical — and match the digest pinned in
``goldens/checkpoint_digests.json`` (regenerate deliberately with
``pytest tests/core/test_checkpoint.py --update-goldens``).  Equality of the
three proves checkpointing is behaviour-free and restores are exact; the
golden proves both stay that way across commits.
"""

from __future__ import annotations

import json
import pickle
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import events
from repro.core.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.engine import EngineError, SequentialEngine
from repro.lang import compile_source
from repro.workloads.registry import make_workload

from tests.conftest import assert_same_run

GOLDEN_PATH = Path(__file__).parent / "goldens" / "checkpoint_digests.json"

SCHEMES = ["cc", "q3", "s2", "su"]

#: The goldens' program shape: contended lock + closing barrier on 4 cores.
PROGRAM_SRC = """
int lk; int bar; int counter;
void worker(int tid) {
    for (int i = 0; i < 6; i = i + 1) {
        lock(&lk);
        counter = counter + 1;
        unlock(&lk);
    }
    barrier(&bar);
}
int main() {
    int tids[4];
    init_lock(&lk);
    init_barrier(&bar, 4);
    for (int t = 1; t < 4; t = t + 1) tids[t] = spawn(worker, t);
    worker(0);
    for (int t = 1; t < 4; t = t + 1) join(tids[t]);
    print_int(counter);
    return 0;
}
"""

HOST = HostConfig(num_cores=4)
TARGET = TargetConfig(num_cores=4)
SIM = SimConfig(seed=11)


@pytest.fixture(scope="module")
def program():
    return compile_source(PROGRAM_SRC).program


def build(program, scheme: str, **sim_overrides) -> SequentialEngine:
    return SequentialEngine(
        program, target=TARGET, host=HOST,
        sim=replace(SIM, scheme=scheme, **sim_overrides),
    )


def pinned_digest(request, scheme: str, fresh: str) -> str:
    goldens = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    if request.config.getoption("--update-goldens"):
        goldens[scheme] = fresh
        GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
        return fresh
    assert scheme in goldens, (
        f"no checkpoint golden for {scheme} — generate with "
        "pytest tests/core/test_checkpoint.py --update-goldens"
    )
    return goldens[scheme]


# ------------------------------------------------------------- equivalence
@pytest.mark.parametrize("scheme", SCHEMES)
def test_restore_equivalence(request, scheme, program, tmp_path):
    cp = str(tmp_path / "ck.pkl")
    plain = build(program, scheme).run()
    full = build(
        program, scheme, checkpoint_interval=300, checkpoint_path=cp
    ).run()
    assert (tmp_path / "ck.pkl").exists(), "no checkpoint was ever written"
    resumed = load_checkpoint(cp).run()

    # Checkpointing is behaviour-free, restores are exact — to the bit.
    assert_same_run(plain, full)
    assert_same_run(full, resumed)
    assert resumed.completed and list(resumed.output) == [24]
    assert pinned_digest(request, scheme, plain.stats_sha256) == plain.stats_sha256


def test_restore_in_fresh_process(program, tmp_path):
    """The global event seq counter travels in the payload: a restore in a
    brand-new interpreter (counter at zero) must still replay the exact
    tie-break stream."""
    cp = str(tmp_path / "ck.pkl")
    full = build(
        program, "q3", checkpoint_interval=300, checkpoint_path=cp
    ).run()
    script = (
        "from repro.core.checkpoint import load_checkpoint\n"
        f"print(load_checkpoint({cp!r}).run().stats_sha256)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        cwd=str(Path(__file__).resolve().parents[2] / "src"),
    )
    assert out.stdout.strip() == full.stats_sha256


def test_ooo_core_roundtrip(program, tmp_path):
    """The OoO model's in-flight state (ROB, MSHRs, store buffer) pickles;
    its predecode closures are re-derived on restore."""
    cp = str(tmp_path / "ck.pkl")
    target = TargetConfig(num_cores=4, core_model="ooo")

    def run_ooo(**overrides):
        return SequentialEngine(
            program, target=target, host=HOST,
            sim=replace(SIM, scheme="s2", max_cycles=100_000, **overrides),
        ).run()

    plain = run_ooo()
    full = run_ooo(checkpoint_interval=300, checkpoint_path=cp)
    resumed = load_checkpoint(cp).run()
    assert_same_run(plain, full)
    assert_same_run(full, resumed)


def _ooo_workload_engine(**sim_overrides) -> SequentialEngine:
    # ~3.9k cycles; the cap turns a restore that lost its wake-up links (a
    # core that never issues again) into an error instead of a 50M-cycle spin.
    return SequentialEngine(
        make_workload("barnes", scale="tiny").program,
        target=TargetConfig(core_model="ooo"),
        sim=SimConfig(scheme="s9", seed=1, max_cycles=50_000, **sim_overrides),
    )


@pytest.fixture(scope="module")
def ooo_straight():
    return _ooo_workload_engine().run()


def test_ooo_registered_workload_checkpoints(ooo_straight, tmp_path):
    """With ``deps`` back-references a ROB entry kept every committed
    producer reachable and pickle recursed down the chain: barnes, fft and lu
    died with "maximum recursion depth exceeded" at the first checkpoint.
    The scoreboard's links point forward and travel as ROB positions."""
    cp = str(tmp_path / "ck.pkl")
    full = _ooo_workload_engine(checkpoint_interval=500, checkpoint_path=cp).run()
    restored = load_checkpoint(cp)
    assert restored.manager.global_time > 0, "not a mid-run checkpoint"
    assert_same_run(ooo_straight, full)
    assert_same_run(ooo_straight, restored.run())


def test_ooo_restore_in_fresh_process_with_scoreboard_in_flight(
    ooo_straight, tmp_path, monkeypatch
):
    """A cut taken while one core has entries completing, entries ready,
    loads parked on MSHRs and stores buffered resumes in a new interpreter:
    heap, ready list, store buffer, MSHR lists and the last-writer table all
    alias ROB entries, and the consumer links are rebuilt from positions."""
    from repro.core import checkpoint

    kept = tmp_path / "busy.pkl"

    def keep_first_busy_cut(engine, path, _save=checkpoint.save_checkpoint):
        _save(engine, path)
        models = [ct.model for ct in engine.cores]
        if not kept.exists() and any(
            m._completing and m._ready and m._mshrs and m._store_buffer for m in models
        ):
            kept.write_bytes(Path(path).read_bytes())

    monkeypatch.setattr(checkpoint, "save_checkpoint", keep_first_busy_cut)
    _ooo_workload_engine(
        checkpoint_interval=100, checkpoint_path=str(tmp_path / "ck.pkl")
    ).run()
    assert kept.exists(), "no checkpoint was cut with the scoreboard in flight"
    busy = [m for m in (ct.model for ct in load_checkpoint(str(kept)).cores) if m._ready]
    assert any(
        consumer is entry
        for m in busy for producer in m._rob for consumer in producer.consumers
        for entry in m._rob
    ), "restored consumer links do not alias ROB entries"
    script = (
        "from repro.core.checkpoint import load_checkpoint\n"
        f"r = load_checkpoint({str(kept)!r}).run()\n"
        "print(r.stats_sha256, r.execution_cycles, float.hex(r.host_time))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        cwd=str(Path(__file__).resolve().parents[2] / "src"),
    )
    assert out.stdout.split() == [
        ooo_straight.stats_sha256,
        str(ooo_straight.execution_cycles),
        float.hex(ooo_straight.host_time),
    ]


def test_timing_blocks_rederived_on_restore(program, tmp_path):
    """The in-order core's compiled timing superblocks are closures — they
    must be dropped at pickle time and re-derived (fresh tables, same
    program) on restore, like the per-instruction predecode tables."""
    from repro.cpu.predecode import TimingBlocks

    cp = str(tmp_path / "ck.pkl")
    engine = build(program, "q3")
    models = [ct.model for ct in engine.cores]
    assert all(m._tblocks is not None for m in models)
    save_checkpoint(engine, cp)
    restored = load_checkpoint(cp)
    for ct in restored.cores:
        tb = ct.model._tblocks
        assert isinstance(tb, TimingBlocks)
        assert any(tb.lens), "restored timing-block table is empty"
        # Re-derived, not round-tripped: fresh objects per restored program.
        assert tb is not models[0]._tblocks
    assert_same_run(restored.run(), build(program, "q3").run())


def test_advance_tables_rederived_on_mid_run_restore(program, tmp_path):
    """``advance`` runs on every predecode table, ``_applies`` included:
    none of them may travel in the pickle, and an engine restored mid-run
    under a scheme whose turns go through ``advance`` must finish on
    re-derived ones."""
    from repro.cpu.predecode import predecode_program

    tables = ("_kinds", "_runs", "_eas", "_applies", "_latencies", "_tblocks")
    cp = str(tmp_path / "ck.pkl")
    full = build(program, "su", checkpoint_interval=300, checkpoint_path=cp).run()
    restored = load_checkpoint(cp)
    assert restored.manager.global_time > 0, "not a mid-run checkpoint"
    for ct in restored.cores:
        model = ct.model
        assert not set(tables) & model.__getstate__().keys()
        assert all(getattr(model, name) is not None for name in tables)
        assert model._applies is predecode_program(model.program).applies
        assert model.advance is not None
    assert_same_run(restored.run(), full)


def test_time_zero_checkpoint(program, tmp_path):
    """save_checkpoint works on an engine that has not run yet: the restored
    engine runs the whole simulation from scratch, bit-identically."""
    cp = str(tmp_path / "ck.pkl")
    save_checkpoint(build(program, "q3"), cp)
    restored = load_checkpoint(cp).run()
    plain = build(program, "q3").run()
    assert_same_run(restored, plain)


def test_registry_rebuilds_after_restore(program, tmp_path):
    """The dropped registry (dump-time lambdas) reattaches lazily and still
    sees the travelled slack histogram."""
    cp = str(tmp_path / "ck.pkl")
    build(program, "q3", checkpoint_interval=300, checkpoint_path=cp).run()
    engine = load_checkpoint(cp)
    assert engine._registry is None
    result = engine.run()
    stats = result.stats
    assert stats["engine.core_turns"] > 0  # sourced from the pickled _slack_dist
    assert stats["sim.completed"] == 1


# ------------------------------------------------------------- configuration
def test_interval_without_path_rejected(program):
    with pytest.raises(EngineError, match="checkpoint_path"):
        build(program, "cc", checkpoint_interval=100)


def test_faulted_runs_cannot_checkpoint(program, tmp_path):
    cp = str(tmp_path / "ck.pkl")
    with pytest.raises(EngineError, match="fault"):
        build(
            program, "cc", checkpoint_interval=100, checkpoint_path=cp,
            fault_plan="corrupt_dir:at=400",
        )
    # Direct save on a faulted engine is refused too.
    engine = build(program, "cc", fault_plan="corrupt_dir:at=400")
    with pytest.raises(CheckpointError, match="fault"):
        save_checkpoint(engine, cp)


def test_load_rejects_missing_and_garbage(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint"):
        load_checkpoint(str(tmp_path / "absent.pkl"))
    garbage = tmp_path / "garbage.pkl"
    garbage.write_bytes(b"not a pickle at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(garbage))
    wrong = tmp_path / "wrong.pkl"
    wrong.write_bytes(pickle.dumps({"format": 999, "engine": None, "seq_position": 0}))
    with pytest.raises(CheckpointError, match="format"):
        load_checkpoint(str(wrong))
    # Format 1 may have been cut by the removed static run loop, format 2
    # pickles a SimConfig with since-removed fields, format 3 an OoO core
    # with ``deps`` chains: refused, never resumed.
    for fmt in (1, 2, 3):
        stale = tmp_path / f"format{fmt}.pkl"
        stale.write_bytes(pickle.dumps({"format": fmt, "engine": None, "seq_position": 0}))
        with pytest.raises(CheckpointError, match=f"format {fmt}"):
            load_checkpoint(str(stale))


def test_format6_checkpoint_refused(tmp_path):
    """A format-6 GQ pickles both a FIFO and a heap (and events carry
    ``consumed``): refused with the standard message, never resumed."""
    stale = tmp_path / "format6.pkl"
    stale.write_bytes(pickle.dumps({"format": 6, "engine": None, "seq_position": 0}))
    with pytest.raises(
        CheckpointError, match=re.escape("checkpoint format 6 (this build reads format 8)")
    ):
        load_checkpoint(str(stale))


def test_format7_checkpoint_refused(tmp_path):
    """A format-7 host model pickles its instance-bound scheduler methods and
    heaps: refused with the standard message, never resumed."""
    stale = tmp_path / "format7.pkl"
    stale.write_bytes(pickle.dumps({"format": 7, "engine": None, "seq_position": 0}))
    with pytest.raises(
        CheckpointError, match=re.escape("checkpoint format 7 (this build reads format 8)")
    ):
        load_checkpoint(str(stale))


# ---------------------------------------------------------------- seq counter
def test_seq_helpers_are_monotonic():
    before = events.seq_position()
    events.new_seq()
    assert events.seq_position() == before + 1
    # Advancing forward moves the stream; "advancing" backward is a no-op.
    events.seq_advance_to(events.seq_position() + 10)
    jumped = events.seq_position()
    assert jumped == before + 11
    events.seq_advance_to(0)
    assert events.seq_position() == jumped
