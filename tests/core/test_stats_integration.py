"""Engine <-> stats dump integration: digest stability and thin views.

The digest of the stats it covers is the machine-independent fingerprint of
simulated behaviour.  These tests pin the guarantees DESIGN.md §7 promises:

* byte-identical across stepping modes (batched vs per-cycle single),
* byte-identical across funcsim dispatch modes (predecoded vs oracle),
* unperturbed by ``--stats-interval`` snapshotting,
* the digest covers exactly the stats ``render_stats`` does not leave out,
* every number of a ``SimulationResult`` is a read of its dump (a stat the
  run does not render reads 0),
* per-scheme digests match goldens checked into the repo
  (``tests/core/goldens/stats_digests.json``; regenerate deliberately with
  ``--update-goldens``).
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.engine import SequentialEngine
from repro.core.results import HEADLINES, core_rows, kips, ran_cores
from repro.lang import compile_source
from repro.stats.registry import dump_to_csv, stats_digest
from repro.workloads.synthetic import sharing_workload

GOLDEN_PATH = Path(__file__).parent / "goldens" / "stats_digests.json"

SCHEMES = ["cc", "q10", "l10", "s9", "s9*", "s100", "su"]

PROGRAM_SRC = """
int lk; int counter;
void worker(int tid) {
    for (int i = 0; i < 5; i = i + 1) {
        lock(&lk);
        counter = counter + 1;
        unlock(&lk);
    }
}
int main() {
    int tids[4];
    init_lock(&lk);
    for (int t = 1; t < 4; t = t + 1) tids[t] = spawn(worker, t);
    worker(0);
    for (int t = 1; t < 4; t = t + 1) join(tids[t]);
    print_int(counter);
    return 0;
}
"""

HOST = HostConfig(num_cores=4)
TRACE_TARGET = TargetConfig(num_cores=4, core_model="trace")
PROGRAM_TARGET = TargetConfig(num_cores=4)
SIM = SimConfig(seed=17)


@pytest.fixture(scope="module")
def program():
    return compile_source(PROGRAM_SRC).program


def trace_engine(scheme: str, *, stepping="batched", **sim_overrides) -> SequentialEngine:
    return SequentialEngine(
        None,
        trace_cores=sharing_workload(4, 24, seed=5),
        target=TRACE_TARGET,
        host=HOST,
        sim=replace(SIM, scheme=scheme, **sim_overrides),
        stepping=stepping,
    )


def program_engine(
    program, scheme: str, *, stepping="batched", dispatch="predecoded", **sim_overrides
) -> SequentialEngine:
    return SequentialEngine(
        program,
        target=PROGRAM_TARGET,
        host=HOST,
        sim=replace(SIM, scheme=scheme, **sim_overrides),
        stepping=stepping,
        dispatch=dispatch,
    )


@pytest.mark.parametrize("scheme", ["cc", "s9", "su"])
def test_digest_identical_across_stepping_modes(scheme, program):
    engines = [program_engine(program, scheme, stepping=s) for s in ("batched", "single")]
    batched, single = (engine.run() for engine in engines)
    assert batched.stats_sha256 == single.stats_sha256
    # The whole digested dump matches, not just the hash of it.
    assert engines[0].render_stats()[0] == engines[1].render_stats()[0]
    trace_b = trace_engine(scheme, stepping="batched").run()
    trace_s = trace_engine(scheme, stepping="single").run()
    assert trace_b.stats_sha256 == trace_s.stats_sha256


@pytest.mark.parametrize("scheme", ["cc", "s9"])
def test_digest_identical_across_dispatch_modes(scheme, program):
    predecoded = program_engine(program, scheme, dispatch="predecoded").run()
    oracle = program_engine(program, scheme, dispatch="oracle").run()
    assert predecoded.stats_sha256 == oracle.stats_sha256


def test_snapshots_recorded_and_digest_unperturbed():
    plain = trace_engine("s9").run()
    snapped_engine = trace_engine("s9", stats_interval=50)
    snapped = snapped_engine.run()
    # Snapshotting is observation only: simulated behaviour cannot move.
    assert snapped.stats_sha256 == plain.stats_sha256
    snapshots = snapped_engine.snapshots
    assert snapshots, "stats_interval=50 run recorded no snapshots"
    labels = [s["label"] for s in snapshots]
    assert labels == sorted(labels)
    assert all(isinstance(s["stats"], dict) and s["stats"] for s in snapshots)
    # Deterministic: a re-run snapshots at the same global times with the
    # same contents.
    again = trace_engine("s9", stats_interval=50)
    again.run()
    assert [s["label"] for s in again.snapshots] == labels
    assert again.snapshots == snapshots


@pytest.mark.parametrize("kind", ["program", "trace"])
def test_headline_attributes_read_the_dump(kind, program):
    engine = program_engine(program, "s9") if kind == "program" else trace_engine("s9")
    result = engine.run()
    stats = result.stats
    for name, path in HEADLINES.items():
        assert getattr(result, name) == stats.get(path, 0), name
    if kind == "trace":
        # Trace cores register no sync stats and no L1: those read 0.
        assert not any(p.startswith("sync.") or ".l1d." in p for p in stats)
        assert (result.lock_acquires, result.lock_contended) == (0, 0)
    else:
        assert result.lock_acquires == engine.system.sync.stats.lock_acquires > 0
    assert result.host_time == engine.hostmodel.makespan() > 0
    assert result.kips == kips(stats) > 0
    assert result.violations.summary() in result.summary()
    assert result.cores == core_rows(stats)
    assert result.ran == ran_cores(stats)
    assert [row["core"] for row in result.cores] == [
        ct.core_id for ct in engine.cores if ct.ever_active
    ]
    assert result.instructions == sum(row["committed"] for row in result.cores)
    # The slack histogram saw one sample per core turn.
    assert stats["scheme.slack_cycles.count"] == stats["engine.core_turns"]
    # A fresh render of the finished engine digests to the cached one.
    assert stats_digest(engine.render_stats()[0]) == result.stats_sha256


#: The stats the digest leaves out on every run: host-loop mechanics and the
#: modeled host, then per core and per run, the ratio stats.
LEFT_OUT = {
    "engine.steps", "engine.manager_steps", "engine.manager_polls",
    "engine.suspends", "engine.wakes_delivered", "engine.parks",
    "engine.total_committed", "engine.core_turns",
    "host.makespan", "host.busy", "host.steps", "host.utilization",
    "mem.l2.miss_rate",
}
#: The ratio stats of each core, by kind of run: trace cores render no L1
#: and no predictor, and only the OoO core has a predictor.
CORE_RATIOS = {
    "program": ("ipc", "l1d.miss_rate"),
    "ooo": ("ipc", "l1d.miss_rate", "branch.accuracy"),
    "trace": ("ipc",),
}


@pytest.mark.parametrize("kind", ["program", "ooo", "trace"])
def test_left_out_paths_are_exactly_the_named_set(kind, program):
    if kind == "trace":
        engine = trace_engine("s9")
    else:
        target = replace(PROGRAM_TARGET, core_model="ooo") if kind == "ooo" else PROGRAM_TARGET
        engine = SequentialEngine(program, target=target, host=HOST, sim=replace(SIM, scheme="s9"))
    result = engine.run()
    covered, left_out = engine.render_stats()
    assert set(left_out) == LEFT_OUT | {
        f"core{i}.{name}" for i in range(4) for name in CORE_RATIOS[kind]
    }
    assert not set(covered) & set(left_out)
    assert {**covered, **left_out} == result.stats


@pytest.mark.parametrize("kind", ["program", "trace"])
def test_digest_covers_exactly_the_covered_stats(kind, program):
    engine = trace_engine("q10") if kind == "trace" else program_engine(program, "q10")
    result = engine.run()
    covered, _ = engine.render_stats()
    assert stats_digest(covered) == result.stats_sha256
    # A left-out value moves: the digest does not.
    engine.engine_steps += 1
    engine.hostmodel.busy += 1.0
    covered, left_out = engine.render_stats()
    assert left_out["engine.steps"] == result.stats["engine.steps"] + 1
    assert left_out["host.utilization"] != result.stats["host.utilization"]
    assert stats_digest(covered) == result.stats_sha256
    # A covered value moves: so does the digest.
    engine.manager.barriers_completed += 1
    assert stats_digest(engine.render_stats()[0]) != result.stats_sha256


def test_dump_json_document_shape(program):
    result = program_engine(program, "q10").run()
    doc = json.loads(result.dump_json())
    assert doc["digest"] == result.stats_sha256
    assert doc["meta"]["scheme"] == "q10"
    assert doc["stats"] == result.stats
    csv = dump_to_csv(result.stats)
    assert csv.startswith("stat,value\n")
    assert "target.instructions," in csv


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stats_digest_matches_golden(request, scheme, program):
    fresh = {
        "trace": trace_engine(scheme).run().stats_sha256,
        "program": program_engine(program, scheme).run().stats_sha256,
    }
    if request.config.getoption("--update-goldens"):
        goldens = (
            json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        )
        goldens[scheme] = fresh
        GOLDEN_PATH.write_text(
            json.dumps(goldens, indent=2, sort_keys=True) + "\n"
        )
        return
    assert GOLDEN_PATH.exists(), (
        f"golden {GOLDEN_PATH} missing — generate with "
        "pytest tests/core/test_stats_integration.py --update-goldens"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert fresh == golden[scheme], (
        f"{scheme}: stats digest diverged from golden — simulated behaviour "
        "changed; if intentional, regenerate with --update-goldens"
    )
