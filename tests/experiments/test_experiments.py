"""Experiment-harness shape tests: the DESIGN.md acceptance criteria at tiny
scale.  These are the executable paper-vs-measured checks."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import BENCHMARKS, SCHEMES, run_figure2
from repro.experiments.ablations import coremodel_orderings, fastforward_report, sweep_rows
from repro.experiments.figure8 import harmonic_means, panels, render_figure8
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
    @pytest.fixture(scope="class")
    def document(self):
        return run_sweep("table2", scale=SCALE)

    def test_kips_in_paper_magnitude(self, document):
        assert sorted(document["points"]) == [f"{bench}/cc/h1" for bench in BENCHMARKS]
        for key, point in document["points"].items():
            # Same order of magnitude as the paper's 111-127 KIPS.
            assert 30 < point["kips"] < 500, key
            assert point["instructions"] > 1000

    def test_render(self, document):
        text = render_table2(document)
        assert "KIPS" in text and "barnes" in text


class TestFigure8:
    @pytest.fixture(scope="class")
    def document(self):
        return run_sweep("figure8", scale=SCALE, host_counts=(2, 8))

    @pytest.fixture(scope="class")
    def speedup(self, document):
        return panels(document)

    @pytest.fixture(scope="class")
    def hmean(self, speedup):
        return harmonic_means(speedup)

    def test_speedup_improves_with_host_cores(self, speedup):
        assert tuple(speedup) == BENCHMARKS
        for bench, rows in speedup.items():
            assert tuple(rows) == SCHEMES
            for scheme, by_hosts in rows.items():
                assert by_hosts[8] >= by_hosts[2] * 0.9, (bench, scheme)

    def test_cc_is_slowest(self, speedup):
        for bench, rows in speedup.items():
            for scheme in rows:
                if scheme != "cc":
                    assert rows[scheme][8] > rows["cc"][8], (bench, scheme)

    def test_cc_scales_poorly(self, hmean):
        for h in (2, 8):
            assert hmean["cc"][h] < 3.5

    def test_slack_schemes_clear_paper_floor(self, hmean):
        """Paper: 'Even when simulation threads are limited to run on 2 host
        cores, their speedups are at least 3.3'."""
        for scheme in ("q10", "l10", "s9", "s9*", "s100", "su"):
            assert hmean[scheme][2] >= 3.3, scheme

    def test_scheme_ordering_at_8_hosts(self, hmean):
        h = hmean
        assert h["su"][8] >= h["s9"][8] * 0.9
        assert h["s100"][8] >= h["s9"][8] * 0.95
        assert h["s9"][8] > h["q10"][8]
        assert h["l10"][8] >= h["q10"][8]

    def test_s9_star_close_to_s9(self, hmean):
        """Paper: 'The speedup of S9* is almost the same as the speedup of
        S9'."""
        ratio = hmean["s9*"][8] / hmean["s9"][8]
        assert 0.85 < ratio < 1.15

    def test_render(self, document):
        text = render_figure8(document)
        assert "Figure 8(e)" in text and "harmonic" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def document(self):
        return run_sweep("table3", scale=SCALE)

    @pytest.fixture(scope="class")
    def errors(self, document):
        """errors[benchmark][scheme] off the document's derived metrics."""
        flat = document["derived"]["error_vs_cc"]
        return {
            bench: {scheme: flat[f"{bench}/{scheme}/h8"] for scheme in ("s9", "s100", "su")}
            for bench in BENCHMARKS
        }

    def test_errors_grow_with_slack(self, errors):
        for row in errors.values():
            assert row["s9"] <= row["s100"] + 0.02
            assert row["s100"] <= row["su"] + 0.02

    def test_s9_errors_are_small(self, errors):
        for bench, row in errors.items():
            assert row["s9"] < 0.06, bench

    def test_su_errors_are_moderate(self, errors):
        """Paper: even unbounded slack stays below ~6%; allow headroom for
        our much smaller inputs (higher sync density)."""
        for bench, row in errors.items():
            assert row["su"] < 0.35, bench

    def test_conservative_schemes_have_no_order_violations(self, document):
        for bench in BENCHMARKS:
            assert document["points"][f"{bench}/su/h8"]["violations"] >= 0
        # (simulation/system violations for conservative schemes are asserted
        # at engine level in tests/core/test_engine.py)

    def test_render(self, document):
        text = render_table3(document)
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
        rows = sweep_rows(run_sweep("ablations", slacks=(1, 9, 100), scale=SCALE))
        assert [row["scheme"] for row in rows] == ["s1", "s9", "s100", "su"]
        assert rows[-1]["speedup"] >= rows[0]["speedup"]          # su fastest
        assert rows[0]["violations"] <= rows[-2]["violations"] + 5

    def test_critical_latency_violation_onset(self):
        rows = sweep_rows(run_sweep("critical_latency", slacks=(5, 9, 60), scale=SCALE))
        assert [row["scheme"] for row in rows] == ["s5*", "s9*", "s60*"]
        for row in rows[:2]:  # below the critical latency (10)
            assert row["violations"] == 0, row["scheme"]

    def test_fastforward_reduces_nothing_when_no_races(self):
        document = run_sweep("fastforward", workload="lu", scheme="s9", scale=SCALE)
        result = fastforward_report(document)
        assert (result["workload"], result["scheme"]) == ("lu", "s9")
        assert result["on"]["fastforwards"] >= 0

    def test_coremodel_ordering_stable(self):
        document = run_sweep(
            "coremodel", benchmarks=("fft",), schemes=("cc", "q10", "su"), scale=SCALE
        )
        orderings = coremodel_orderings(document)["fft"]
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
