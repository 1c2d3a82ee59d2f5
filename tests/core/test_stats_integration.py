"""Engine <-> stats dump integration: digest stability and thin views.

The digest of the stats it covers is the machine-independent fingerprint of
simulated behaviour.  These tests pin what DESIGN.md §7 promises: it is
byte-identical across stepping and dispatch modes (the lattice's ``single``
and ``oracle`` classes) and unperturbed by ``--stats-interval``; it covers
exactly the stats ``render_stats`` does not leave out; every number of a
``SimulationResult`` is a read of its dump (an unrendered stat reads 0); and
per-scheme digests match ``goldens/stats_digests.json`` (regenerate
deliberately with ``--update-goldens``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.results import HEADLINES, core_rows, kips, ran_cores
from repro.stats.registry import dump_to_csv, stats_digest
from repro.workloads.synthetic import sharing_workload

from tests import lattice
from tests.conftest import load_or_update
from tests.lattice import GOLDEN_SCHEMES, Cell, assert_same_run

GOLDEN_PATH = Path(__file__).parent / "goldens" / "stats_digests.json"


def pinned(kind: str, scheme: str, **kw):
    """The stats goldens' runs, seed 17 on 4 host cores: a 4-core sharing
    trace (``kind="trace"``) or the lock program without its barrier."""
    if kind == "trace":
        return lattice.build(sharing_workload(4, 24, seed=5), scheme, 4, seed=17, **kw)
    program = lattice.lock_program(rounds=5, barrier=False)
    return lattice.build(program, scheme, 4, cores=4, seed=17,
                         model="ooo" if kind == "ooo" else "inorder", **kw)


@pytest.mark.parametrize("scheme", ["cc", "s9", "su"])
def test_digest_identical_across_stepping_modes(scheme):
    lattice.check("single", Cell("lock", scheme=scheme, hosts=4, seed=11))
    batched, single = (pinned("trace", scheme, stepping=s) for s in ("batched", "single"))
    assert_same_run(batched.run(), single.run())
    # The whole digested dump matches, not just the hash of it.
    assert batched.render_stats()[0] == single.render_stats()[0]


@pytest.mark.parametrize("scheme", ["cc", "s9"])
def test_digest_identical_across_dispatch_modes(scheme):
    lattice.check("oracle", Cell("lock", scheme=scheme, hosts=4, seed=11))


def test_snapshots_recorded_and_digest_unperturbed():
    plain = pinned("trace", "s9").run()
    snapped_engine = pinned("trace", "s9", stats_interval=50)
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
    again = pinned("trace", "s9", stats_interval=50)
    again.run()
    assert [s["label"] for s in again.snapshots] == labels
    assert again.snapshots == snapshots


@pytest.mark.parametrize("kind", ["program", "trace"])
def test_headline_attributes_read_the_dump(kind):
    engine = pinned(kind, "s9")
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
def test_left_out_paths_are_exactly_the_named_set(kind):
    engine = pinned(kind, "s9")
    result = engine.run()
    covered, left_out = engine.render_stats()
    assert set(left_out) == LEFT_OUT | {
        f"core{i}.{name}" for i in range(4) for name in CORE_RATIOS[kind]
    }
    assert not set(covered) & set(left_out)
    assert {**covered, **left_out} == result.stats


@pytest.mark.parametrize("kind", ["program", "trace"])
def test_digest_covers_exactly_the_covered_stats(kind):
    engine = pinned(kind, "q10")
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


def test_dump_json_document_shape():
    result = pinned("program", "q10").run()
    doc = json.loads(result.dump_json())
    assert doc["digest"] == result.stats_sha256
    assert doc["meta"]["scheme"] == "q10"
    assert doc["stats"] == result.stats
    csv = dump_to_csv(result.stats)
    assert csv.startswith("stat,value\n")
    assert "target.instructions," in csv


@pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
def test_stats_digest_matches_golden(request, scheme):
    fresh = {kind: pinned(kind, scheme).run().stats_sha256 for kind in ("trace", "program")}
    assert fresh == load_or_update(request, GOLDEN_PATH, scheme, fresh), (
        f"{scheme}: stats digest diverged from golden — simulated behaviour "
        "changed; if intentional, regenerate with --update-goldens"
    )
