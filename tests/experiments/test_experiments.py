"""Experiment-harness shape tests: the DESIGN.md acceptance criteria at tiny
scale.  These are the executable paper-vs-measured checks."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import (
    run_figure2,
    run_figure8,
    run_table2,
    run_table3,
)
from repro.experiments.ablations import (
    run_coremodel_ablation,
    run_critical_latency_sweep,
    run_fastforward_ablation,
    run_slack_sweep,
)
from repro.experiments.figure8 import render_figure8
from repro.experiments.parallel import run_sweep
from repro.experiments.table2 import render_table2
from repro.experiments.table3 import render_table3

SCALE = "tiny"


@pytest.fixture(scope="module", autouse=True)
def shared_store(tmp_path_factory):
    """One result store for the module: it is the only memo, so a point two
    experiments share (and every sweep document pinned below) runs once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        yield


class TestTable2:
    def test_kips_in_paper_magnitude(self):
        rows = run_table2(SCALE)
        assert len(rows) == 4
        for row in rows:
            # Same order of magnitude as the paper's 111-127 KIPS.
            assert 30 < row.kips < 500, row
            assert row.instructions > 1000

    def test_render(self):
        text = render_table2(run_table2(SCALE))
        assert "KIPS" in text and "barnes" in text


class TestFigure8:
    @pytest.fixture(scope="class")
    def data(self):
        return run_figure8(SCALE, host_counts=(2, 8))

    def test_speedup_improves_with_host_cores(self, data):
        for bench in data.benchmarks:
            for scheme in data.schemes:
                series = data.series(bench, scheme)
                assert series[-1] >= series[0] * 0.9, (bench, scheme)

    def test_cc_is_slowest(self, data):
        for bench in data.benchmarks:
            cc = data.speedup[bench]["cc"][8]
            for scheme in data.schemes:
                if scheme != "cc":
                    assert data.speedup[bench][scheme][8] > cc, (bench, scheme)

    def test_cc_scales_poorly(self, data):
        for h in (2, 8):
            assert data.hmean["cc"][h] < 3.5

    def test_slack_schemes_clear_paper_floor(self, data):
        """Paper: 'Even when simulation threads are limited to run on 2 host
        cores, their speedups are at least 3.3'."""
        for scheme in ("q10", "l10", "s9", "s9*", "s100", "su"):
            assert data.hmean[scheme][2] >= 3.3, scheme

    def test_scheme_ordering_at_8_hosts(self, data):
        h = data.hmean
        assert h["su"][8] >= h["s9"][8] * 0.9
        assert h["s100"][8] >= h["s9"][8] * 0.95
        assert h["s9"][8] > h["q10"][8]
        assert h["l10"][8] >= h["q10"][8]

    def test_s9_star_close_to_s9(self, data):
        """Paper: 'The speedup of S9* is almost the same as the speedup of
        S9'."""
        ratio = data.hmean["s9*"][8] / data.hmean["s9"][8]
        assert 0.85 < ratio < 1.15

    def test_render(self, data):
        text = render_figure8(data)
        assert "Figure 8(e)" in text and "harmonic" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table3(SCALE)

    def test_errors_grow_with_slack(self, rows):
        for row in rows:
            assert row.errors["s9"] <= row.errors["s100"] + 0.02
            assert row.errors["s100"] <= row.errors["su"] + 0.02

    def test_s9_errors_are_small(self, rows):
        for row in rows:
            assert row.errors["s9"] < 0.06, row.benchmark

    def test_su_errors_are_moderate(self, rows):
        """Paper: even unbounded slack stays below ~6%; allow headroom for
        our much smaller inputs (higher sync density)."""
        for row in rows:
            assert row.errors["su"] < 0.35, row.benchmark

    def test_conservative_schemes_have_no_order_violations(self, rows):
        for row in rows:
            assert row.violations["su"] >= 0
        # (simulation/system violations for conservative schemes are asserted
        # at engine level in tests/core/test_engine.py)

    def test_render(self, rows):
        text = render_table3(rows)
        assert "S100" in text and "%" in text


class TestFigure2:
    @pytest.fixture(scope="class")
    def traces(self):
        return run_figure2()

    def test_cc_is_lockstep(self, traces):
        cc = next(t for t in traces if t.scheme == "cc")
        assert cc.max_slack_observed() <= 1

    def test_quantum_and_bounded_respect_windows(self, traces):
        q3 = next(t for t in traces if t.scheme == "q3")
        s2 = next(t for t in traces if t.scheme == "s2")
        assert q3.max_slack_observed() <= 3
        assert s2.max_slack_observed() <= 2
        assert s2.window_respected(2)

    def test_unbounded_exceeds_small_windows(self, traces):
        su = next(t for t in traces if t.scheme == "su")
        assert su.max_slack_observed() > 3

    def test_less_synchronization_is_faster(self, traces):
        by_name = {t.scheme: t.final_host_time for t in traces}
        assert by_name["cc"] > by_name["q3"] > by_name["su"]


class TestAblations:
    def test_slack_sweep_tradeoff(self):
        points = run_slack_sweep("fft", slacks=(1, 9, 100), scale=SCALE)
        speedups = [p.speedup for p in points]
        assert speedups[-1] >= speedups[0]          # su fastest
        assert points[0].violations <= points[-2].violations + 5

    def test_critical_latency_violation_onset(self):
        points = run_critical_latency_sweep("fft", slacks=(5, 9, 60), scale=SCALE)
        below = [p for p in points if int(p.label[1:-1]) < 10]
        for p in below:
            assert p.violations == 0, p.label

    def test_fastforward_reduces_nothing_when_no_races(self):
        result = run_fastforward_ablation("lu", "s9", scale=SCALE)
        assert result["on"]["fastforwards"] >= 0

    def test_coremodel_ordering_stable(self):
        orderings = run_coremodel_ablation("fft", schemes=("cc", "q10", "su"), scale=SCALE)
        # cc slowest under both core models.
        assert orderings["inorder"][0] == "cc"
        assert orderings["ooo"][0] == "cc"


#: One sha256 per ``tiny`` sweep document, over what a reader of the paper's
#: figures sees: the derived metrics and each point's cycles, modeled host
#: time, stats digest and printed output.  Engine-mechanics counters (the
#: ``stats`` dump's digest-excluded lines) stay out, so an iso-digest speed-up
#: does not re-pin it.  Regenerate deliberately with ``--update-goldens``.
GOLDEN = Path(__file__).parent / "goldens" / "sweep_documents.json"


@pytest.mark.parametrize("experiment,grid", [
    ("ablations", {}),
    ("table3", {}),
    ("figure8", {"host_counts": (2, 8)}),
])
def test_sweep_documents_are_pinned(request, experiment, grid):
    doc = run_sweep(experiment, scale=SCALE, **grid)
    pinned = {
        "derived": doc["derived"],
        "points": {
            key: [
                point["execution_cycles"],
                float.hex(point["host_time"]),
                point["stats_digest"],
                point["output_sha256"],
            ]
            for key, point in doc["points"].items()
        },
    }
    fresh = hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()
    goldens = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if request.config.getoption("--update-goldens"):
        goldens[experiment] = fresh
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    assert fresh == goldens.get(experiment), (
        f"the tiny {experiment} document moved — if intentional, regenerate "
        "with --update-goldens"
    )
