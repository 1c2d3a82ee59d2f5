"""Figure 2: anatomy of the four synchronization disciplines.

The paper's Figure 2 shows four pedagogical timelines of a 4-core simulation
under cycle-by-cycle, quantum-based, bounded-slack and unbounded-slack
synchronization.  We reproduce it by running four deterministic trace cores
and sampling ``(host_time, global_time, local_times)`` at every manager
step, then rendering a per-thread progress chart over (modeled) host time.

The claims visible in the chart (asserted in the tests):

* cc: all locals within 1 cycle of each other at every sample;
* quantum q: locals within q cycles, sawtooth barrier pattern;
* bounded s: locals within the sliding window [Tg, Tg+s];
* unbounded: windows never block a thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.engine import SequentialEngine
from repro.stats.tables import Table
from repro.workloads.synthetic import TraceCore, sharing_workload

__all__ = ["run_figure2", "SchemeTrace", "render_figure2"]


@dataclass
class SchemeTrace:
    scheme: str
    #: (host_time, global_time, locals) samples at manager steps.
    samples: list[tuple[float, int, list[int]]] = field(default_factory=list)
    final_host_time: float = 0.0

    def max_slack_observed(self) -> int:
        """Largest local-time spread between any two *active* cores
        (inactive cores are sampled as -1)."""
        best = 0
        for _, _, locals_ in self.samples:
            running = [t for t in locals_ if t >= 0]
            if len(running) >= 2:
                best = max(best, max(running) - min(running))
        return best

    def window_respected(self, slack: int) -> bool:
        """Every sampled active local within [global, global + slack]."""
        for _, global_time, locals_ in self.samples:
            for t in locals_:
                if t >= 0 and t > global_time + slack:
                    return False
        return True


def _trace_cores(num_cores: int, ops: int, seed: int) -> list[TraceCore]:
    return sharing_workload(num_cores, ops, seed=seed, think_cycles=3)


def run_figure2(
    schemes: tuple[str, ...] = ("cc", "q3", "s2", "su"),
    *,
    num_cores: int = 4,
    ops: int = 12,
    seed: int = 7,
) -> list[SchemeTrace]:
    """Run the pedagogical 4-core workload under each scheme, sampling."""
    traces = []
    for scheme in schemes:
        engine = SequentialEngine(
            None,
            target=TargetConfig(num_cores=num_cores, core_model="trace"),
            host=HostConfig(num_cores=num_cores),
            sim=SimConfig(scheme=scheme, seed=seed, batch_cycles=1),
            trace_cores=_trace_cores(num_cores, ops, seed),
        )
        trace = SchemeTrace(scheme=scheme)
        engine.probe = lambda host, global_time, locals_, trace=trace: trace.samples.append(
            (host, global_time, list(locals_))
        )
        result = engine.run()
        trace.final_host_time = result.host_time
        traces.append(trace)
    return traces


def render_figure2(traces: list[SchemeTrace], samples_per_scheme: int = 12) -> str:
    """Figure 2 as ASCII: per-thread local times over host time."""
    blocks = []
    for trace in traces:
        n = len(trace.samples[0][2]) if trace.samples else 0
        table = Table(
            f"Figure 2 [{trace.scheme}]: local times over simulation (host) time "
            f"(max observed slack = {trace.max_slack_observed()}, "
            f"finished at host t={trace.final_host_time:.0f})",
            ["host t", "Tg"] + [f"P{i + 1}" for i in range(n)],
        )
        step = max(1, len(trace.samples) // samples_per_scheme)
        for sample in trace.samples[::step][:samples_per_scheme]:
            host, global_time, locals_ = sample
            cells = [t if t >= 0 else "-" for t in locals_]
            table.add_row(f"{host:.0f}", global_time, *cells)
        blocks.append(table.render())
    return "\n\n".join(blocks)
