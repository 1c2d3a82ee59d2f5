"""Ablation studies around the paper's design claims (DESIGN.md A1-A5).

* **A1 slack sweep** (``ablations``) — §6 claims a speed/accuracy
  *trade-off*: error and speedup should both grow with the slack bound.
* **A2 critical latency** — §3.1: conservative oldest-first processing is
  violation-free iff slack < critical latency; sweeping the quantum/slack
  across the critical latency should show the violation onset.
* **A3 fast-forwarding** — §3.2.3 proposes compensating workload violations
  by fast-forwarding the storing core; measure violations and error with it
  on/off.
* **A4 core-model sensitivity** — the scheme *ordering* should not depend on
  the core microarchitecture (in-order vs OoO).
* **A5 adaptive quantum** (extension, paper §5 / Falcón et al. [8]) — a
  traffic-adaptive quantum against the fixed critical-latency quantum.

The grids are entries of :mod:`repro.experiments.parallel`'s table; what is
here reads their sweep documents: a render and a claim table per study.
"""

from __future__ import annotations

import json
import math
import re
from functools import partial

from repro.experiments.common import claim_table
from repro.stats.tables import Table

__all__ = [
    "ADAPTIVE_QUANTA", "ADAPTIVE_QUANTUM_CLAIMS", "COREMODEL_CLAIMS", "CRITICAL_LATENCY_CLAIMS",
    "FASTFORWARD_CLAIMS", "SLACK_SWEEP_CLAIMS", "coremodel_orderings", "fastforward_report",
    "render_ablations", "render_adaptive_quantum", "render_coremodel", "render_critical_latency",
    "render_fastforward", "render_sweep", "sweep_rows",
]

#: A5's configurations in report order: the fixed critical-latency quantum,
#: then the traffic-adaptive ranges.
ADAPTIVE_QUANTA = ("q10", "aq10-160", "aq4-40")


def _slack_bound(scheme: str) -> float:
    """The widest window a scheme allows: ``s9*`` 9, ``aq10-160`` 160, ``su`` inf."""
    bounds = re.findall(r"\d+", scheme)
    return int(bounds[-1]) if bounds else math.inf


def sweep_rows(document: dict, schemes: tuple[str, ...] | None = None) -> list[dict]:
    """One ``{scheme, speedup, error, violations}`` row per swept point of an
    A1 / A2 / A5 document (the cc references carry no metric): *schemes* in
    the order given, by default every one by ascending slack bound."""
    speedups = document["derived"]["speedup_over_cc1"]
    rows = {}
    for key, error in document["derived"]["error_vs_cc"].items():
        point = document["points"][key]
        rows[point["spec"]["scheme"]] = {
            "scheme": point["spec"]["scheme"],
            "speedup": speedups[key],
            "error": error,
            "violations": point["violations"],
        }
    return [rows[scheme] for scheme in schemes or sorted(rows, key=_slack_bound)]


def render_sweep(title: str, document: dict, schemes: tuple[str, ...] | None = None) -> str:
    """*title* (plus the swept workload) over the :func:`sweep_rows` table."""
    workload = next(iter(document["points"].values()))["spec"]["workload"]
    table = Table(f"{title} ({workload})", ["config", "speedup", "error", "violations"])
    for row in sweep_rows(document, schemes):
        table.add_row(
            row["scheme"], row["speedup"], f"{row['error'] * 100:.2f}%", row["violations"]
        )
    return table.render()


def fastforward_report(document: dict) -> dict:
    """A3: error, workload violations and fast-forward count of the slack
    scheme with the compensation off and on."""
    points = document["points"]
    off, on = sorted(document["derived"]["error_vs_cc"])  # "<point>", "<point>/ff"
    spec = points[off]["spec"]
    report = {"scheme": spec["scheme"], "workload": spec["workload"]}
    for label, key in (("off", off), ("on", on)):
        report[label] = {
            "error": document["derived"]["error_vs_cc"][key],
            "workload_violations": points[key]["workload_violations"],
            "fastforwards": points[key]["stats"]["violations.fastforwards"],
        }
    return report


def coremodel_orderings(document: dict) -> dict:
    """A4: ``{workload: {core_model: [scheme, ...]}}``, slowest scheme first —
    does the scheme speed ordering survive a core-model change?"""
    times: dict = {}
    for point in document["points"].values():
        spec = point["spec"]
        times.setdefault(spec["workload"], {}).setdefault(spec["core_model"], {})[
            spec["scheme"]
        ] = point["host_time"]
    return {
        workload: {
            model: sorted(by_scheme, key=by_scheme.get, reverse=True)
            for model, by_scheme in sorted(by_model.items())
        }
        for workload, by_model in times.items()
    }


render_ablations = partial(render_sweep, "A1: bounded-slack sweep")
render_critical_latency = partial(render_sweep, "A2: oldest-first slack vs critical latency")
render_adaptive_quantum = partial(
    render_sweep, "A5: adaptive quantum vs fixed q10", schemes=ADAPTIVE_QUANTA
)


def render_fastforward(document: dict) -> str:
    return json.dumps(fastforward_report(document), indent=2)


def render_coremodel(document: dict) -> str:
    """One block per workload: its :func:`coremodel_orderings` entry as JSON."""
    return "\n".join(
        f"{workload}\n{json.dumps(orderings, indent=2)}"
        for workload, orderings in coremodel_orderings(document).items()
    )


def _rows(field: str, schemes: tuple[str, ...] | None = None):
    """Numbers: ``{scheme: field}`` of :func:`sweep_rows` (tightest bound first)."""
    return lambda document: {row["scheme"]: row[field] for row in sweep_rows(document, schemes)}


def _ends_of_sweep(field: str):
    """Numbers: *field* of the tightest bound, the widest bound and su."""

    def numbers(document: dict) -> dict:
        rows = sweep_rows(document)
        return dict(zip(("tightest", "widest", "su"), (r[field] for r in rows[:1] + rows[-2:])))

    return numbers


#: A1: speed and violations grow with the slack bound.
SLACK_SWEEP_CLAIMS = claim_table("ablations", {
    "speed_grows_with_slack": (_ends_of_sweep("speedup"), lambda n: n["su"] >= n["tightest"]),
    "speed_spans_a_tradeoff": (_rows("speedup"), lambda n: max(n.values()) / min(n.values()) > 1.2),
    "violations_grow_with_slack": (
        _ends_of_sweep("violations"), lambda n: n["tightest"] <= min(n["widest"], n["su"])
    ),
})
#: A2 (§3.1): oldest-first slack under the critical latency (10 cycles, an
#: unloaded L2 access) never reorders.
CRITICAL_LATENCY_CLAIMS = claim_table("critical_latency", {
    "exact_below_critical_latency": (
        _rows("violations"), lambda n: not any(v for s, v in n.items() if _slack_bound(s) < 10)
    ),
})
#: A3: fast-forwarding keeps the error at most max(5 %, 3x the error without it).
FASTFORWARD_CLAIMS = claim_table("fastforward", {
    "error_stays_in_regime": (
        lambda d: {arm: fastforward_report(d)[arm]["error"] for arm in ("on", "off")},
        lambda n: n["on"] <= max(0.05, n["off"] * 3),
    ),
})
#: A4: the ends of each speed ordering (slowest first) under either core model.
COREMODEL_CLAIMS = claim_table("coremodel", {
    "cc_slowest_under_both_models": (
        coremodel_orderings, lambda n: all(o[0] == "cc" for m in n.values() for o in m.values())
    ),
    "su_fastest_under_both_models": (
        coremodel_orderings, lambda n: all(o[-1] == "su" for m in n.values() for o in m.values())
    ),
})
#: A5: faster than q10 at an error under 10 % (related work: under 5 %).
ADAPTIVE_QUANTUM_CLAIMS = claim_table("adaptive_quantum", {
    "aq_beats_q10": (_rows("speedup", ("q10", "aq10-160")), lambda n: n["aq10-160"] > n["q10"]),
    "aq_error_bounded": (_rows("error", ("aq10-160",)), lambda n: n["aq10-160"] < 0.10),
})
