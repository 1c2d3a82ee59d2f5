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
here reads their sweep documents.
"""

from __future__ import annotations

import math
import re

from repro.stats.tables import Table

__all__ = [
    "ADAPTIVE_QUANTA", "coremodel_orderings", "fastforward_report", "render_sweep", "sweep_rows",
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
    table = Table(title, ["config", "speedup", "error", "violations"])
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
