"""The paper's claims at tiny scale: every claim holds on the tier-1 documents,
a perturbed document fails it, and the render commands report them."""

import copy
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import figure2, table3
from repro.experiments.ablations import fastforward_report, sweep_rows
from repro.experiments.common import SCHEMES
from repro.experiments.figure8 import panels, render_figure8
from repro.experiments.parallel import experiment_entry, run_sweep
from repro.workloads.registry import BENCHMARKS
from tests.conftest import load_or_update

SCALE = "tiny"
REPORTS = Path(__file__).resolve().parents[2] / "reports"

#: The tier-1 grid of each experiment: the default (committed-report) grid,
#: or a cheaper subset of it.
GRIDS = {
    "table2": {},
    "figure8": {"host_counts": (2, 8)},
    "table3": {},
    "ablations": {"slacks": (1, 9, 100)},
    "critical_latency": {"slacks": (5, 9, 60)},
    "fastforward": {"workload": "lu", "scheme": "s9"},
    "coremodel": {"benchmarks": ("fft",), "schemes": ("cc", "q10", "su")},
    "adaptive_quantum": {},
}


@pytest.fixture(scope="module", autouse=True)
def shared_store(tmp_path_factory):
    """One result store for the module: it is the only memo, so a point two
    experiments share (and every sweep document pinned below) runs once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(scope="module")
def documents(shared_store):
    """Every experiment's tier-1 document, and Figure 2's traces."""
    docs = {name: run_sweep(name, scale=SCALE, **grid) for name, grid in GRIDS.items()}
    docs["figure2"] = figure2.run_figure2()
    return docs


#: ``(render, claims)`` of every experiment, Figure 2 included.
REPORTING = {
    **{name: (experiment_entry(name).render, experiment_entry(name).claims) for name in GRIDS},
    "figure2": (figure2.render_figure2, figure2.CLAIMS),
}


def _claim(name: str):
    """``(experiment, numbers, test)`` of claim *name*."""
    experiment = name.split(".")[0]
    return (experiment, *REPORTING[experiment][1][name])


#: Every claim some test below checks.
CHECKED: set = set()


def _holds(*claims: str):
    """A test that *claims* hold on the tier-1 documents: each former
    hand-written test below now names the claims its assertions became."""
    CHECKED.update(claims)

    def test(self, documents):
        for claim in claims:
            experiment, numbers, holds = _claim(claim)
            assert holds(values := numbers(documents[experiment])), (claim, values)

    return test


def _renders_report(name: str):
    """A test that *name*'s tier-1 document renders its committed report."""

    def test(self, documents):
        render = REPORTING[name][0]
        assert render(documents[name]) + "\n" == (REPORTS / f"{name}.txt").read_text()

    return test


class TestTable2:
    test_kips_in_paper_magnitude = _holds(
        "table2.kips_in_paper_magnitude", "table2.baselines_run_real_programs"
    )
    test_render = _renders_report("table2")


class TestFigure8:
    test_speedup_improves_with_host_cores = _holds(
        "figure8.speedup_grows_with_hosts", "figure8.no_benchmark_slows_with_hosts"
    )
    test_cc_is_slowest = _holds("figure8.cc_is_slowest")
    test_cc_scales_poorly = _holds("figure8.cc_scales_badly", "figure8.cc_far_below_s9")
    test_slack_schemes_clear_paper_floor = _holds("figure8.slack_schemes_clear_3_3x")
    test_scheme_ordering_at_8_hosts = _holds(
        "figure8.su_near_best", "figure8.s100_beats_s9_and_q10", "figure8.s9_beats_q10",
        "figure8.l10_at_least_q10",
    )
    test_s9_star_close_to_s9 = _holds("figure8.s9_star_close_to_s9")

    def test_render(self, documents):
        text = render_figure8(documents["figure8"])
        assert "Figure 8(e)" in text and "harmonic" in text


class TestTable3:
    test_errors_grow_with_slack = _holds("table3.error_grows_with_slack")
    test_s9_errors_are_small = _holds("table3.s9_error_small")
    test_su_errors_are_moderate = _holds("table3.su_error_moderate")
    test_conservative_schemes_have_no_order_violations = _holds("table3.conservative_order_exact")
    test_render = _renders_report("table3")


class TestFigure2:
    test_cc_is_lockstep = _holds("figure2.cc_is_lockstep")
    test_quantum_and_bounded_respect_windows = _holds(
        "figure2.quantum_respects_its_window", "figure2.bounded_respects_its_window"
    )
    test_unbounded_exceeds_small_windows = _holds("figure2.unbounded_exceeds_small_windows")
    test_less_synchronization_is_faster = _holds("figure2.less_sync_is_faster")
    test_render = _renders_report("figure2")


class TestAblations:
    test_slack_sweep_tradeoff = _holds(
        "ablations.speed_grows_with_slack", "ablations.speed_spans_a_tradeoff",
        "ablations.violations_grow_with_slack",
    )
    test_critical_latency_violation_onset = _holds("critical_latency.exact_below_critical_latency")
    test_fastforward_reduces_nothing_when_no_races = _holds("fastforward.error_stays_in_regime")
    test_coremodel_ordering_stable = _holds(
        "coremodel.cc_slowest_under_both_models", "coremodel.su_fastest_under_both_models"
    )
    test_adaptive_quantum = _holds(
        "adaptive_quantum.aq_beats_q10", "adaptive_quantum.aq_error_bounded"
    )
    test_adaptive_quantum_render = _renders_report("adaptive_quantum")


def test_tier1_documents_have_their_grid(documents):
    assert sorted(documents["table2"]["points"]) == [f"{bench}/cc/h1" for bench in BENCHMARKS]
    speedup = panels(documents["figure8"])
    assert tuple(speedup) == BENCHMARKS
    assert all(tuple(rows) == SCHEMES for rows in speedup.values())
    for name, schemes in (("ablations", ["s1", "s9", "s100", "su"]),
                          ("critical_latency", ["s5*", "s9*", "s60*"])):
        assert [row["scheme"] for row in sweep_rows(documents[name])] == schemes
    report = fastforward_report(documents["fastforward"])
    assert (report["workload"], report["scheme"]) == ("lu", "s9")


# ------------------------------------------------------------- mutations
def _set(where: str, key: str, rule):
    """A mutation: a copy of the document whose point *key* has *where* (a
    derived metric or a point field) set to ``rule({point key: where})``."""

    def mutate(doc):
        doc = copy.deepcopy(doc)
        derived = doc["derived"].get(where)
        values = derived or {name: point[where] for name, point in doc["points"].items()}
        if derived:
            derived[key] = rule(values)
        else:
            doc["points"][key][where] = rule(values)
        return doc

    return mutate


def test_every_claim_is_checked():
    assert {claim for _, claims in REPORTING.values() for claim in claims} == CHECKED


#: Per experiment at least one claim, and a perturbed copy of the tier-1
#: document that must fail it.
MUTATIONS = {
    "figure8.cc_is_slowest": _set("speedup_over_cc1", "fft/cc/h8", lambda v: v["fft/s9/h8"] + 1),
    "table2.kips_in_paper_magnitude": _set("kips", "fft/cc/h1", lambda v: 500.0),
    "table3.error_grows_with_slack":
        _set("error_vs_cc", "fft/s9/h8", lambda v: v["fft/s100/h8"] + 0.021),
    "table3.conservative_order_exact": _set("violations", "lu/s9*/h8", lambda v: 1),
    "ablations.violations_grow_with_slack":
        _set("violations", "fft/s1/h8", lambda v: v["fft/su/h8"] + 1),
    "critical_latency.exact_below_critical_latency": _set("violations", "fft/s5*/h8", lambda v: 1),
    "fastforward.error_stays_in_regime":
        _set("error_vs_cc", "lu/s9/h8/ff", lambda v: max(0.05, 3 * v["lu/s9/h8"]) + 0.01),
    "coremodel.cc_slowest_under_both_models":
        _set("host_time", "fft/q10/h8/ooo", lambda v: 2 * v["fft/cc/h8/ooo"]),
    "adaptive_quantum.aq_error_bounded": _set("error_vs_cc", "fft/aq10-160/h8", lambda v: 0.10),
    "figure2.bounded_respects_its_window": lambda traces: [
        dataclasses.replace(t, samples=t.samples + [(0.0, 0, [0, 3, 0, 0])]) if t.scheme == "s2"
        else t
        for t in traces
    ],
}


@pytest.mark.parametrize("claim", MUTATIONS)
def test_mutation_fails_its_claim(claim, documents):
    """The claim holds on its tier-1 document and fails on the mutated copy."""
    experiment, numbers, holds = _claim(claim)
    assert holds(numbers(documents[experiment])), numbers(documents[experiment])
    mutated = MUTATIONS[claim](documents[experiment])
    assert not holds(numbers(mutated)), numbers(mutated)


def test_render_command_reports_claims(tmp_path, capsys, monkeypatch, documents):
    """``table3`` writes its render, then one claim line per claim to stderr;
    a failing claim exits 1 and leaves the render's bytes alone."""
    passing, failing = tmp_path / "pass.txt", tmp_path / "fail.txt"
    assert main(["table3", "--scale", SCALE, "--out", str(passing)]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("claim ")]
    assert [line.split(":")[0] for line in lines] == [f"claim {name}" for name in table3.CLAIMS]
    assert all(": holds (" in line for line in lines)

    monkeypatch.setitem(
        table3.CLAIMS, "table3.error_grows_with_slack", (lambda doc: {"forced": 1}, lambda n: False)
    )
    assert main(["table3", "--scale", SCALE, "--out", str(failing)]) == 1
    assert "claim table3.error_grows_with_slack: FAILS (forced: 1)" in capsys.readouterr().err
    assert failing.read_bytes() == passing.read_bytes()


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
    assert fresh == load_or_update(request, GOLDEN, experiment, fresh), (
        f"the tiny {experiment} document moved — if intentional, regenerate "
        "with --update-goldens"
    )
