"""Unit tests for a run's stats dump (repro.stats.registry).

The engine renders a run's stats as two flat dicts — the stats the digest
covers and the stats it leaves out (``SequentialEngine.render_stats``);
everything else here is a pure function over such a dump.
"""

import json
import re

import pytest

from repro.stats.registry import (
    Distribution,
    StatError,
    canonical_value,
    diff_dumps,
    dump_to_csv,
    flat_dump,
    load_dump,
    render_dump,
    stats_digest,
    stats_document,
)
from tests.lattice import build

#: One well-formed path component (brackets admit resource names like
#: ``l2bank[3]``, ``*`` admits scheme names like ``s9*``).
COMPONENT = re.compile(r"[a-zA-Z0-9_\-\[\]*]+")
#: The ratio stats: left out of the digest, redundant with their operands.
RATIOS = ("ipc", "l1d.miss_rate")


@pytest.fixture(scope="module")
def fft8():
    """fft ``tiny`` on the default 8 target cores: cores 4-7 never run."""
    engine = build("fft", "s9", stats_interval=2000)
    result = engine.run()
    assert engine.target.num_cores == 8 and result.ran == (0, 1, 2, 3)
    return engine, result


class TestScalar:
    def test_sourced_scalar_resolves_at_dump_time(self):
        """A stat is the component's counter as it is when rendered."""
        engine = build("fft", "su")
        before, _ = engine.render_stats()
        assert before["target.instructions"] == 0 and before["sim.completed"] == 0
        result = engine.run()
        after, _ = engine.render_stats()
        assert after["target.instructions"] == result.instructions > 0
        assert after["sim.completed"] == 1


class TestFormula:
    def test_evaluated_at_dump_time(self, fft8):
        _, result = fft8
        stats = result.stats
        for i in result.ran:
            core = f"core{i}"
            assert stats[f"{core}.ipc"] == stats[f"{core}.committed"] / stats[f"{core}.cycles"]
            assert stats[f"{core}.l1d.miss_rate"] == (
                stats[f"{core}.l1d.misses"] / stats[f"{core}.l1d.accesses"]
            )
        assert stats["mem.l2.miss_rate"] == stats["mem.l2.misses"] / stats["mem.l2.accesses"]
        assert stats["host.utilization"] == (
            stats["host.busy"] / (stats["host.makespan"] * stats["sim.host_cores"])
        )

    def test_zero_division_yields_zero(self, fft8):
        _, result = fft8
        stats = result.stats
        for i in range(4, 8):
            assert stats[f"core{i}.cycles"] == stats[f"core{i}.l1d.accesses"] == 0
            assert stats[f"core{i}.ipc"] == stats[f"core{i}.l1d.miss_rate"] == 0.0

    def test_excluded_from_digest_by_default(self, fft8):
        engine, _ = fft8
        covered, left_out = engine.render_stats()
        ratios = {f"core{i}.{name}" for i in range(8) for name in RATIOS}
        assert ratios | {"mem.l2.miss_rate", "host.utilization"} <= set(left_out)
        assert not any(path.endswith(("ipc", "miss_rate", "utilization")) for path in covered)


class TestVector:
    def test_sequence_expands_by_index(self, fft8):
        engine, result = fft8
        banks = engine.memsys.l2.bank_accesses
        assert [result.stats[f"mem.l2.bank_accesses.{i}"] for i in range(len(banks))] == list(banks)
        assert f"mem.l2.bank_accesses.{len(banks)}" not in result.stats

    def test_mapping_expands_by_sorted_key(self, fft8):
        engine, result = fft8
        by_resource = engine.counters.by_resource
        prefix = "violations.by_resource."
        paths = [p for p in result.stats if p.startswith(prefix)]
        assert paths == sorted(prefix + str(k) for k in by_resource)
        assert all(result.stats[prefix + str(k)] == n for k, n in by_resource.items())


class TestDistribution:
    def test_log2_buckets(self):
        d = Distribution("slack")
        for v in (0, 1, 2, 3, 9):
            d.add(v)
        entries = dict(d.entries())
        assert entries["slack.count"] == 5
        assert entries["slack.sum"] == 15
        assert entries["slack.min"] == 0
        assert entries["slack.max"] == 9
        assert entries["slack.bucket0"] == 1  # the zero sample
        assert entries["slack.bucket1"] == 1  # 1
        assert entries["slack.bucket2"] == 2  # 2, 3
        assert entries["slack.bucket4"] == 1  # 9
        assert "slack.bucket3" not in entries  # empty buckets elided

    def test_huge_samples_clamp_to_last_bucket(self):
        d = Distribution("slack")
        d.add(1 << 200)
        assert dict(d.entries())[f"slack.bucket{Distribution._MAX_BUCKET}"] == 1

    def test_negative_sample_rejected(self):
        d = Distribution("slack")
        with pytest.raises(StatError):
            d.add(-1)


class TestRegistry:
    def test_duplicate_path_rejected(self):
        assert flat_dump({"a.b": 1}, {"a.c": 2}) == {"a.b": 1, "a.c": 2}
        with pytest.raises(StatError):
            flat_dump({"a.b": 1}, {"a.b": 2})

    def test_bad_component_rejected(self, fft8):
        """No rendered path has a component outside DESIGN.md §7's charset
        (CSV, ``stats diff`` and the digest lines rely on it)."""
        _, result = fft8
        for snap in [{"stats": result.stats}, *result.snapshots]:
            for path in snap["stats"]:
                assert all(COMPONENT.fullmatch(part) for part in path.split(".")), path

    def test_groups_prefix_paths(self, fft8):
        """Every path sits under one of DESIGN.md §7's top-level groups."""
        _, result = fft8
        tops = {path.split(".", 1)[0] for path in result.stats}
        assert tops == {
            "sim", "engine", "host", "scheme", "manager", "target",
            "mem", "violations", "sync", *(f"core{i}" for i in range(8)),
        }

    def test_dump_is_sorted(self, fft8):
        assert list(flat_dump({"z": 1}, {"a": 2, "m.n": 3})) == ["a", "m.n", "z"]
        _, result = fft8
        assert list(result.stats) == sorted(result.stats)

    def test_digest_excludes_unmarked_stats(self, fft8):
        engine, result = fft8
        covered, left_out = engine.render_stats()
        assert stats_digest(covered) == result.stats_sha256
        assert stats_digest({**covered, **left_out}) != result.stats_sha256

    def test_digest_changes_with_digested_values(self):
        assert stats_digest({"a": 1}) != stats_digest({"a": 2})
        assert stats_digest({"a": 0.5}) != stats_digest({"a": 0.5000000000000001})

    def test_digest_is_registration_order_independent(self):
        assert stats_digest({"x": 1, "y": 2}) == stats_digest({"y": 2, "x": 1})

    def test_snapshot_records_labelled_dumps(self, fft8):
        engine, result = fft8
        snapshots = engine.snapshots
        assert snapshots and result.snapshots is snapshots
        labels = [snap["label"] for snap in snapshots]
        assert labels == sorted(labels) and labels[0] >= 2000
        for snap in snapshots:
            assert list(snap["stats"]) == sorted(snap["stats"])
            assert set(snap["stats"]) <= set(result.stats)
            assert snap["stats"]["target.global_time"] == snap["label"]
            assert snap["stats"]["sim.completed"] == 0

    def test_dump_json_roundtrip(self, tmp_path):
        snapshots = [{"label": "t0", "stats": {"a": 0}}]
        text = stats_document({"scheme": "s9"}, stats_digest({"a": 3}), {"a": 3}, snapshots)
        doc = json.loads(text)
        assert doc["meta"] == {"scheme": "s9"}
        assert doc["digest"] == stats_digest({"a": 3})
        assert doc["stats"] == {"a": 3}
        assert doc["snapshots"][0]["label"] == "t0"
        path = tmp_path / "run.json"
        path.write_text(text)
        assert load_dump(str(path)) == {"a": 3}

    def test_load_dump_accepts_bare_dict(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"a": 1}))
        assert load_dump(str(path)) == {"a": 1}
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(StatError):
            load_dump(str(bad))

    def test_dump_csv(self):
        assert dump_to_csv({"b": 2, "a": 0.5}) == "stat,value\na,0.5\nb,2\n"
        assert dump_to_csv({"x": 1}) == "stat,value\nx,1\n"


class TestDocumentHelpers:
    def test_canonical_value(self):
        assert canonical_value(True) == "1"
        assert canonical_value(3) == "3"
        assert canonical_value(0.5) == float(0.5).hex()

    def test_diff_dumps(self):
        a = {"x": 1, "y": 2.0, "gone": 3}
        b = {"x": 1, "y": 2.5, "new": 4}
        lines = diff_dumps(a, b)
        assert "- gone = 3" in lines
        assert "+ new = 4" in lines
        assert any(line.startswith("~ y:") for line in lines)
        assert not any(line.startswith("~ x") for line in lines)
        assert diff_dumps(a, dict(a)) == []

    def test_render_dump_contains_paths(self):
        text = render_dump({"core0.ipc": 1.5, "a": 2}, title="demo")
        assert "demo" in text
        assert "core0.ipc" in text
