"""Unit tests for the hierarchical stats registry (repro.stats.registry)."""

import json

import pytest

from repro.stats.registry import (
    Distribution,
    StatError,
    StatsRegistry,
    canonical_value,
    diff_dumps,
    dump_to_csv,
    load_dump,
    render_dump,
)


class TestScalar:
    def test_direct_set_and_add(self):
        reg = StatsRegistry()
        s = reg.scalar("a")
        assert s.value == 0
        s.add()
        s.add(4)
        assert s.value == 5
        s.set(2)
        assert s.value == 2

    def test_sourced_scalar_resolves_at_dump_time(self):
        reg = StatsRegistry()
        box = {"n": 1}
        reg.scalar("n", source=lambda: box["n"])
        assert reg.dump() == {"n": 1}
        box["n"] = 7
        assert reg.dump() == {"n": 7}

    def test_sourced_scalar_rejects_mutation(self):
        reg = StatsRegistry()
        s = reg.scalar("n", source=lambda: 3)
        with pytest.raises(StatError):
            s.set(1)
        with pytest.raises(StatError):
            s.add()


class TestFormula:
    def test_evaluated_at_dump_time(self):
        reg = StatsRegistry()
        hits = reg.scalar("hits")
        total = reg.scalar("total")
        reg.formula("rate", lambda: hits.value / total.value)
        hits.set(3)
        total.set(4)
        assert reg.dump()["rate"] == pytest.approx(0.75)

    def test_zero_division_yields_zero(self):
        reg = StatsRegistry()
        reg.formula("rate", lambda: 1 / 0)
        assert reg.dump()["rate"] == 0.0

    def test_excluded_from_digest_by_default(self):
        reg = StatsRegistry()
        reg.scalar("a", value=1)
        base = reg.stats_digest()
        reg.formula("derived", lambda: 42.0)
        assert reg.stats_digest() == base


class TestVector:
    def test_sequence_expands_by_index(self):
        reg = StatsRegistry()
        banks = [5, 0, 2]
        reg.vector("bank", lambda: banks)
        assert reg.dump() == {"bank.0": 5, "bank.1": 0, "bank.2": 2}

    def test_mapping_expands_by_sorted_key(self):
        reg = StatsRegistry()
        reg.vector("by_resource", lambda: {"mem": 2, "lock": 1})
        assert list(reg.dump()) == ["by_resource.lock", "by_resource.mem"]


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
        reg = StatsRegistry()
        reg.scalar("a.b")
        with pytest.raises(StatError):
            reg.scalar("a.b")

    def test_bad_component_rejected(self):
        reg = StatsRegistry()
        with pytest.raises(StatError):
            reg.scalar("spaced name")
        with pytest.raises(StatError):
            reg.scalar("")

    def test_groups_prefix_paths(self):
        reg = StatsRegistry()
        core = reg.group("core0")
        core.group("l1d").scalar("misses", value=3)
        assert reg.dump() == {"core0.l1d.misses": 3}
        assert reg.get("core0.l1d.misses").value == 3
        with pytest.raises(StatError):
            reg.get("core0.l1d.nope")

    def test_dump_is_sorted(self):
        reg = StatsRegistry()
        reg.scalar("z", value=1)
        reg.scalar("a", value=2)
        reg.scalar("m.n", value=3)
        assert list(reg.dump()) == ["a", "m.n", "z"]

    def test_digest_excludes_unmarked_stats(self):
        reg = StatsRegistry()
        reg.scalar("behaviour", value=1)
        base = reg.stats_digest()
        host = reg.scalar("host_detail", value=10, digest=False)
        assert reg.stats_digest() == base
        host.set(99)
        assert reg.stats_digest() == base

    def test_digest_changes_with_digested_values(self):
        reg = StatsRegistry()
        s = reg.scalar("a", value=1)
        base = reg.stats_digest()
        s.add()
        assert reg.stats_digest() != base

    def test_digest_is_registration_order_independent(self):
        a = StatsRegistry()
        a.scalar("x", value=1)
        a.scalar("y", value=2)
        b = StatsRegistry()
        b.scalar("y", value=2)
        b.scalar("x", value=1)
        assert a.stats_digest() == b.stats_digest()

    def test_snapshot_records_labelled_dumps(self):
        reg = StatsRegistry()
        s = reg.scalar("a")
        reg.snapshot(100)
        s.add(5)
        reg.snapshot(200)
        assert [snap["label"] for snap in reg.snapshots] == [100, 200]
        assert reg.snapshots[0]["stats"] == {"a": 0}
        assert reg.snapshots[1]["stats"] == {"a": 5}

    def test_dump_json_roundtrip(self, tmp_path):
        reg = StatsRegistry()
        reg.scalar("a", value=3)
        reg.snapshot("t0")
        text = reg.dump_json(meta={"scheme": "s9"})
        doc = json.loads(text)
        assert doc["meta"] == {"scheme": "s9"}
        assert doc["digest"] == reg.stats_digest()
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
        reg = StatsRegistry()
        reg.scalar("b", value=2)
        reg.scalar("a", value=0.5)
        assert dump_to_csv(reg.dump()) == "stat,value\na,0.5\nb,2\n"
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
