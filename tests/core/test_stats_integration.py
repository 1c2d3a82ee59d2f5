"""Engine <-> stats-registry integration: digest stability and thin views.

The registry's ``stats_digest()`` is the machine-independent fingerprint of
simulated behaviour.  These tests pin the guarantees DESIGN.md §7 promises:

* byte-identical across stepping modes (batched vs per-cycle single),
* byte-identical across funcsim dispatch modes (predecoded vs oracle),
* unperturbed by ``--stats-interval`` snapshotting,
* ``SimulationResult`` is a thin view — its legacy fields agree with the
  registry dump it was built from,
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
from repro.lang import compile_source
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
    batched = program_engine(program, scheme, stepping="batched").run()
    single = program_engine(program, scheme, stepping="single").run()
    assert batched.stats_sha256 == single.stats_sha256
    # The whole digested dump matches, not just the hash of it.
    assert {k: v for k, v in batched.stats.items()} != {}
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
    snapshots = snapped_engine.registry.snapshots
    assert snapshots, "stats_interval=50 run recorded no snapshots"
    labels = [s["label"] for s in snapshots]
    assert labels == sorted(labels)
    assert all(isinstance(s["stats"], dict) and s["stats"] for s in snapshots)
    # Deterministic: a re-run snapshots at the same global times with the
    # same contents.
    again = trace_engine("s9", stats_interval=50)
    again.run()
    assert [s["label"] for s in again.registry.snapshots] == labels
    assert again.registry.snapshots == snapshots


def test_result_is_thin_view_over_registry(program):
    result = program_engine(program, "s9").run()
    stats = result.stats
    assert result.instructions == stats["target.instructions"]
    assert result.execution_cycles == stats["target.execution_cycles"]
    assert result.global_time == stats["target.global_time"]
    assert result.requests == stats["manager.requests"]
    assert result.barriers == stats["manager.barriers"]
    assert result.violations.simulation_state == stats["violations.simulation_state"]
    assert result.violations.system_state == stats["violations.system_state"]
    assert result.violations.workload_state == stats["violations.workload_state"]
    for core in result.cores:
        prefix = f"core{core.core_id}"
        assert core.committed == stats[f"{prefix}.committed"]
        assert core.cycles == stats[f"{prefix}.cycles"]
    # The slack histogram saw one sample per core turn.
    assert stats["scheme.slack_cycles.count"] == stats["engine.core_turns"]
    # Live digest off the attached registry matches the stored one.
    assert result.stats_digest() == result.stats_sha256


def test_dump_json_document_shape(program):
    result = program_engine(program, "q10").run()
    doc = json.loads(result.dump_json())
    assert doc["digest"] == result.stats_sha256
    assert doc["meta"]["scheme"] == "q10"
    assert doc["stats"] == result.stats
    csv = result.dump_csv()
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
