"""Metric tables of the repo benchmark, and the small statistics they need.

One place names every metric ``bench/run.py`` prints: its unit, direction,
regression bound and meaning.  ``BENCHMARK.json`` at the repo root repeats
the subset the driver gates (``bench/test_bench.py`` asserts the two agree).

Host time and simulated time are never mixed: ``*_s``, ``*_ms``, ``*_per_s``
and ``sim_kips`` are **host** time; ``timing_error_pct`` and
``modeled_speedup`` are **simulated** quantities, exact for a given seed.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

__all__ = [
    "COUNTS",
    "END_TO_END",
    "GATED",
    "LAYERS",
    "Metric",
    "PER_LAYER",
    "PER_LAYER_HIGHER",
    "RATIOS",
    "SPANS",
    "summarize",
]


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may worsen before a
    #: change counts as a regression; ``0.0`` means "must repeat exactly"
    #: (simulated quantities and the failure fraction).  The gated bounds are
    #: three times the widest run-to-run spread (distance between quartiles
    #: over the median, ten seeds) any workload showed on the reference
    #: container, whose processors' speed swings by tens of percent.
    bound: float
    meaning: str


#: The twelve end-to-end metrics.  Each workload reports the ones that apply.
END_TO_END: dict[str, Metric] = {
    "wall_s": Metric("s", "lower", 0.25,
                     "one pass's wall time: sum over jobs of the median of each job's "
                     "runs (median pass where jobs overlap), at yardstick speed"),
    "sim_cycles_per_s": Metric("cycles/s", "higher", 0.25,
                               "sum of target.execution_cycles of a pass / wall_s"),
    "sim_kips": Metric("kinsn/s", "higher", 0.25,
                       "sum of target.instructions of a pass / wall_s / 1000"),
    "jobs_per_s": Metric("1/s", "higher", 0.25,
                         "completed jobs (points, submissions) of a pass / wall_s"),
    "job_p50_ms": Metric("ms", "lower", 0.10,
                         "serve-mixed: submit->poll->fetch round trip of fresh submissions, median"),
    "job_p90_ms": Metric("ms", "lower", 0.20, "same, 90th percentile"),
    "cli_warm_run_s": Metric("s", "lower", 0.10,
                             "sweep-warm: median lifetime of one `python -m repro.cli run` "
                             "answered from the warm store"),
    "setup_s": Metric("s", "lower", 0.25,
                      "imports + median of the workload's set-up repeats, each on a cold cache root"),
    "peak_rss_mb": Metric("MiB", "lower", 0.25,
                          "ru_maxrss of the workload's process after the first pass "
                          "+ the largest reaped descendant"),
    "failed_frac": Metric("fraction", "lower", 0.0, "failed / attempted"),
    "timing_error_pct": Metric("%", "lower", 0.0,
                               "sweeps: mean over benchmarks of |cycles(s9,H8)-cycles(cc,H8)| "
                               "/ cycles(cc,H8) x 100 (simulated; the paper's Table 3)"),
    "modeled_speedup": Metric("x", "higher", 0.0,
                              "sweeps: harmonic mean over benchmarks of host_time(cc,H1) / "
                              "host_time(s9,H8) (simulated; the paper's Figure 8)"),
}

#: End-to-end metrics defined on *every* workload — the ones the driver can
#: gate through BENCHMARK.json, which wants each listed metric from each
#: workload and none that is ever 0 or that varies freely with the seed.
GATED = ("wall_s", "sim_cycles_per_s", "sim_kips", "jobs_per_s", "setup_s", "peak_rss_mb")

#: cProfile roll-up layers: ``<layer>.self_s`` and ``<layer>.calls``.
LAYERS = (
    "core.engine", "core.corethread", "core.manager", "core.schemes",
    "core.queues", "core.other", "host", "cpu.inorder", "cpu.ooo",
    "cpu.l1cache", "cpu.arch", "cpu.predecode", "cpu.funcsim", "cpu.other",
    "mem.memsys", "mem.directory", "mem.l2nuca", "mem.dram",
    "mem.interconnect", "stats", "violations", "sysapi", "trace", "jobs",
    "experiments", "workloads", "lang", "builtins",
)

#: Boundary spans -> (how the per-pass number is formed, unit).
#: ``sum``: inclusive seconds summed over the pass (a span nested in one of
#: the same name is not counted twice); ``median_ms``: median per request.
SPANS: dict[str, tuple[str, str]] = {
    "jobs.execute_s": ("sum", "s"),
    "jobs.program_s": ("sum", "s"),
    "jobs.key_s": ("sum", "s"),
    "jobs.store_load_s": ("sum", "s"),
    "core.engine_init_s": ("sum", "s"),
    "core.engine_run_s": ("sum", "s"),
    "stats.dump_s": ("sum", "s"),
    "workloads.verify_s": ("sum", "s"),
    "jobs.store_put_s": ("sum", "s"),
    "trace.capture_s": ("sum", "s"),
    "trace.replay_run_s": ("sum", "s"),
    "experiments.build_points_s": ("sum", "s"),
    "experiments.merge_s": ("sum", "s"),
    "serve.daemon_start_s": ("sum", "s"),
    "serve.submit_ms": ("median_ms", "ms"),
    "serve.wait_ms": ("median_ms", "ms"),
    "serve.fetch_ms": ("median_ms", "ms"),
}

#: Serve numbers taken from the client loop's own samples, plus the
#: workload-specific end-to-end metrics, recorded per layer so the driver
#: keeps them too (it cannot gate them: see GATED).
DERIVED: dict[str, str] = {
    "serve.exec_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.hit_p50_ms": "ms",
    "serve.job_p50_ms": "ms",
    "serve.job_p90_ms": "ms",
    "experiments.cli_warm_run_s": "s",
    "experiments.timing_error_pct": "%",
    "experiments.modeled_speedup": "x",
}

#: Work counts -> the stat keys of a record's public stats dump they sum
#: (``coreN.`` keys are summed over cores).  A key missing from the dump
#: makes the count ``None``, never an error: the telemetry is due a rename.
COUNTS: dict[str, tuple[str, ...]] = {
    "core.engine_steps": ("engine.steps",),
    "core.core_turns": ("engine.core_turns",),
    "core.manager_steps": ("engine.manager_steps",),
    "core.manager_polls": ("engine.manager_polls",),
    "core.suspends": ("engine.suspends",),
    "core.windows_raised": ("manager.windows_raised",),
    "core.window_stalls": ("scheme.window_stalls",),
    "core.barriers": ("manager.barriers",),
    "core.requests": ("manager.requests",),
    "core.gq_max_depth": ("manager.gq.max_depth",),  # max over the pass, not a sum
    "host.steps": ("host.steps",),
    "cpu.committed": ("engine.total_committed",),
    "cpu.l1d_accesses": ("coreN.l1d.accesses",),
    "cpu.l1d_misses": ("coreN.l1d.misses",),
    "mem.requests_serviced": ("mem.requests_serviced",),
    "mem.l2_accesses": ("mem.l2.accesses",),
    "mem.l2_misses": ("mem.l2.misses",),
    "mem.dir_invalidations": ("mem.directory.invalidations_sent",),
    "mem.dram_accesses": ("mem.dram.accesses",),
    "violations.total": (
        "violations.simulation_state",
        "violations.system_state",
        "violations.workload_state",
    ),
}

#: Counts that do not come from stats dumps (store/serve status fields and
#: the comparison with expected.json).
STATUS_COUNTS = (
    "jobs.store_hits", "jobs.store_misses", "jobs.replayed",
    "serve.attempts", "serve.requeued", "core.digest_drift",
)

#: Host time per simulated event: untraced ``wall_s`` over a work count.
RATIOS: dict[str, tuple[str, float, str]] = {
    "core.host_ns_per_cycle": ("target.execution_cycles", 1e9, "ns"),
    "core.host_us_per_manager_step": ("core.manager_steps", 1e6, "us"),
    "cpu.host_ns_per_insn": ("target.instructions", 1e9, "ns"),
    "mem.host_us_per_request": ("mem.requests_serviced", 1e6, "us"),
}


def _per_layer() -> dict[str, str]:
    """Every per-layer metric name -> unit, in printing order."""
    table: dict[str, str] = {name: unit for name, (_, unit) in SPANS.items()}
    table.update(DERIVED)
    for layer in LAYERS:
        table[f"{layer}.self_s"] = "s"
        table[f"{layer}.calls"] = "count"
    table.update(dict.fromkeys(COUNTS, "count"))
    table.update(dict.fromkeys(STATUS_COUNTS, "count"))
    table.update({name: unit for name, (_, _, unit) in RATIOS.items()})
    table["trace_overhead_frac"] = "fraction"
    return table


PER_LAYER: dict[str, str] = _per_layer()

#: Per-layer metrics for which more is better; for every other one (times,
#: work done, events per job) less is.
PER_LAYER_HIGHER = frozenset({"jobs.store_hits", "experiments.modeled_speedup"})


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (non-empty)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[int(rank) - 1]


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count of a list of timings."""
    n = len(values)
    median = statistics.median(values)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"value": median, "n": n, "q1": q1, "q3": q3}
