"""Checkpoint/restore tests (DESIGN.md §8).

The contract under test is **restore equivalence**: for each scheme, the
stats digest (sha256 over the stats it covers, with ``float.hex`` host
times checked beside it) of

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
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
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
    restored = load_checkpoint(cp)
    # ``sync_stats`` wrote back a seq position past every queued seq.
    assert restored._seq_next > max(seq for _, seq, _ in restored._heap)
    resumed = restored.run()

    # Checkpointing is behaviour-free, restores are exact — to the bit.
    assert_same_run(plain, full)
    assert_same_run(full, resumed)
    assert resumed.completed and list(resumed.output) == [24]
    assert pinned_digest(request, scheme, plain.stats_sha256) == plain.stats_sha256


def test_restore_in_fresh_process(program, tmp_path):
    """Every queue's tie-break counter travels inside the engine pickle: a
    restore in a brand-new interpreter must still replay the exact
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


def test_sparse_checkpoint_restores_every_float_page(tmp_path):
    """The target memory pickles only its non-zero pages: a mid-run water
    checkpoint stays far below the 16 MiB image, and the restored run prints
    the straight run's floats bit for bit."""
    water = make_workload("water", scale="tiny")
    cp = tmp_path / "ck.pkl"
    sim = replace(SIM, scheme="s9")
    full = SequentialEngine(
        water.program, sim=replace(sim, checkpoint_interval=500, checkpoint_path=str(cp))
    ).run()
    assert cp.stat().st_size < 1 << 20
    resumed = load_checkpoint(str(cp)).run()
    assert_same_run(full, resumed)
    assert [v.hex() for v in resumed.output] == [v.hex() for v in full.output]
    assert not water.mismatches(resumed.output)


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


def test_advance_tables_rederived_on_mid_run_restore(program, tmp_path):
    """``advance`` runs on every predecode table, ``_applies`` included:
    none of them may travel in the pickle, and an engine restored mid-run
    under a scheme whose turns go through ``advance`` must finish on
    re-derived ones."""
    from repro.cpu.predecode import predecode_program

    tables = ("_kinds", "_runs", "_eas", "_applies", "_latencies")
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
    """The engine's stats are plain data in the pickle: a restored engine
    renders them from the travelled slack histogram and snapshots."""
    cp = str(tmp_path / "ck.pkl")
    build(
        program, "q3", stats_interval=100, checkpoint_interval=300, checkpoint_path=cp
    ).run()
    engine = load_checkpoint(cp)
    travelled = list(engine.snapshots)
    assert travelled and engine._slack_dist.count > 0
    result = engine.run()
    stats = result.stats
    assert stats["engine.core_turns"] == engine._slack_dist.count
    assert stats["sim.completed"] == 1
    assert result.snapshots[: len(travelled)] == travelled


def test_restored_document_equals_the_uninterrupted_one(program, tmp_path):
    """A checkpointed run's stats document — snapshots included — is the
    document of its restore in a fresh process, byte for byte."""
    cp = str(tmp_path / "ck.pkl")
    full = build(
        program, "q3", stats_interval=100, checkpoint_interval=300, checkpoint_path=cp
    ).run()
    script = (
        "import sys\n"
        "from repro.core.checkpoint import load_checkpoint\n"
        f"sys.stdout.write(load_checkpoint({cp!r}).run().dump_json())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        cwd=str(Path(__file__).resolve().parents[2] / "src"),
    )
    document = full.dump_json()
    assert len(json.loads(document)["snapshots"]) > 3
    assert out.stdout == document


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


def test_checkpoint_from_other_source_refused(program, tmp_path, monkeypatch, capsys):
    """A checkpoint is a pickle of engine internals, stamped with the sha256
    of the package's sources: one written under other source bytes is
    refused, and ``run --restore`` exits 2 with one ``error:`` line."""
    from repro.core import checkpoint

    cp = str(tmp_path / "ck.pkl")
    save_checkpoint(build(program, "q3"), cp)
    written = checkpoint.source_fingerprint()[:12]
    monkeypatch.setattr(checkpoint, "_fingerprint", "0" * 64)
    with pytest.raises(CheckpointError, match=f"under source {written}, this build is 0{{12}};"):
        load_checkpoint(cp)
    assert main(["run", "--restore", cp]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and written in err


@pytest.mark.parametrize("scheme", ["cc", "su"])
def test_chained_restore(scheme, program, tmp_path, monkeypatch):
    """A restored run writes its own later checkpoints from the loop state
    ``sync_stats`` wrote back onto the engine; restoring one of those
    finishes on the pinned digest — cc through the barrier superstep, su
    through parking."""
    from repro.core import checkpoint

    cuts = []

    def keep_every_cut(engine, path, _save=checkpoint.save_checkpoint):
        _save(engine, path)
        cuts.append(Path(path).read_bytes())

    monkeypatch.setattr(checkpoint, "save_checkpoint", keep_every_cut)
    cp = tmp_path / "ck.pkl"
    build(program, scheme, checkpoint_interval=300, checkpoint_path=str(cp)).run()
    cp.write_bytes(cuts[0])
    first = load_checkpoint(str(cp))
    cut_at, counter = first.manager.global_time, "fused_barriers" if scheme == "cc" else "parks"
    cuts.clear()
    first.run()
    cp.write_bytes(cuts[0])  # the restored run's own first checkpoint
    second = load_checkpoint(str(cp))
    before = getattr(second, counter)
    assert second.manager.global_time > cut_at > 0
    result = second.run()
    assert getattr(second, counter) > before and list(result.output) == [24]
    assert result.stats_sha256 == json.loads(GOLDEN_PATH.read_text())[scheme]
