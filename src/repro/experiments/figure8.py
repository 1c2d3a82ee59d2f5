"""Figure 8: simulation speedups per benchmark, scheme and host-core count.

Speedup of a run = baseline simulation time / run simulation time, where the
baseline is the cycle-by-cycle simulation of the 8-core target on **one**
host core (§4.2.1).  Panels (a)-(d) are the four benchmarks; panel (e) is
the harmonic mean across benchmarks.

The paper's §4.2.1 observations are :data:`CLAIMS`, checked after every render.
"""

from __future__ import annotations

from repro.experiments.common import SCHEMES, claim_table
from repro.stats.metrics import harmonic_mean
from repro.stats.tables import Table

__all__ = ["CLAIMS", "harmonic_means", "panels", "render_figure8"]


def panels(document: dict) -> dict:
    """``speedup[benchmark][scheme][host_cores]`` of a ``figure8`` sweep
    document, schemes in the figure's legend order (any other after it)."""
    flat: dict = {}
    for key, value in document["derived"]["speedup_over_cc1"].items():
        spec = document["points"][key]["spec"]
        flat.setdefault(spec["workload"], {}).setdefault(spec["scheme"], {})[
            spec["host_cores"]
        ] = value
    return {
        bench: {
            scheme: dict(sorted(rows[scheme].items()))
            for scheme in sorted(rows, key=(SCHEMES + tuple(rows)).index)
        }
        for bench, rows in sorted(flat.items())
    }


def harmonic_means(speedup: dict) -> dict:
    """Panel (e): ``hmean[scheme][host_cores]`` across the benchmarks of
    :func:`panels`' result."""
    first = next(iter(speedup.values()))
    return {
        scheme: {
            hosts: harmonic_mean([rows[scheme][hosts] for rows in speedup.values()])
            for hosts in by_hosts
        }
        for scheme, by_hosts in first.items()
    }


def _panel(title: str, rows: dict) -> str:
    """One ASCII table of ``rows[scheme][host_cores]`` (cols = hosts)."""
    host_counts = next(iter(rows.values()))
    table = Table(title, ["scheme"] + [f"{h} hosts" for h in host_counts])
    for scheme, by_hosts in rows.items():
        table.add_row(scheme, *by_hosts.values())
    return table.render()


def render_figure8(document: dict) -> str:
    """Render panels (a)-(e) of a ``figure8`` sweep document."""
    speedup = panels(document)
    rendered = [
        _panel(
            f"Figure 8({chr(ord('a') + i)}): {bench} — simulation speedup over cc@1host", rows
        )
        for i, (bench, rows) in enumerate(speedup.items())
    ]
    rendered.append(
        _panel("Figure 8(e): harmonic mean of benchmark speedups", harmonic_means(speedup))
    )
    return "\n\n".join(rendered)


def _at(pick):
    """Numbers: every scheme's harmonic mean at the fewest/most (*pick*) hosts."""
    return lambda document: {
        scheme: by_hosts[pick(by_hosts)]
        for scheme, by_hosts in harmonic_means(panels(document)).items()
    }


def _non_monotone(document: dict) -> dict:
    """Numbers: largest step / last value of each harmonic mean that dips."""
    dips = {}
    for scheme, by_hosts in harmonic_means(panels(document)).items():
        series = list(by_hosts.values())
        if series != sorted(series):
            dips[scheme] = max(abs(b - a) for a, b in zip(series, series[1:])) / series[-1]
    return dips


def _least(ratios):
    """Numbers: the smallest of ``ratios(panels)`` (``{where: ratio}``) and where."""

    def numbers(document: dict) -> dict:
        by_where = ratios(panels(document))
        at = min(by_where, key=by_where.get)
        return {"at": at, "ratio": by_where[at]}

    return numbers


#: The paper's §4.2.1 observations on a ``figure8`` document.
CLAIMS = claim_table("figure8", {
    # 1: "simulation speedup always improves with more host cores".
    "speedup_grows_with_hosts": (_non_monotone, lambda n: all(v < 0.5 for v in n.values())),
    "no_benchmark_slows_with_hosts": (  # most / fewest hosts, per benchmark and scheme
        _least(lambda panel: {
            f"{bench}/{scheme}": by[max(by)] / by[min(by)]
            for bench, rows in panel.items() for scheme, by in rows.items()
        }),
        lambda n: n["ratio"] >= 0.9,
    ),
    # 2: cc "is relatively poor and does not scale" (the paper: at most 2.6).
    "cc_is_slowest": (  # slowest other scheme / cc, per benchmark and host count
        _least(lambda panel: {
            f"{bench}/h{h}": min(by[h] for s, by in rows.items() if s != "cc") / rows["cc"][h]
            for bench, rows in panel.items() for h in rows["cc"]
        }),
        lambda n: n["ratio"] > 1,
    ),
    "cc_scales_badly": (lambda d: harmonic_means(panels(d))["cc"], lambda n: max(n.values()) < 3.5),
    "cc_far_below_s9": (_at(max), lambda n: n["cc"] < 0.5 * n["s9"]),
    # 3: "even ... limited to run on 2 host cores, their speedups are at least 3.3".
    "slack_schemes_clear_3_3x": (_at(min), lambda n: min(n[s] for s in SCHEMES[1:]) >= 3.3),
    # 4 (at the most host cores): su best, s100 above s9 and q10, s9 above
    # q10, l10 a little above q10, s9* almost s9.
    "su_near_best": (_at(max), lambda n: n["su"] >= 0.9 * max(n.values())),
    "s100_beats_s9_and_q10": (_at(max), lambda n: n["s100"] > max(n["s9"], n["q10"])),
    "s9_beats_q10": (_at(max), lambda n: n["s9"] > n["q10"]),
    "l10_at_least_q10": (_at(max), lambda n: n["l10"] >= n["q10"]),
    "s9_star_close_to_s9": (_at(max), lambda n: 0.85 < n["s9*"] / n["s9"] < 1.15),
})
