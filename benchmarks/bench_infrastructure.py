"""Micro-benchmarks of the simulator infrastructure itself: compiler
throughput and engine cycle rate.  These use pytest-benchmark's statistics
properly (multiple rounds) since each call is cheap.

Besides the interactive pytest-benchmark table, each test records its mean
wall time and throughput via :mod:`repro.stats.perfjson`; at session end the
batch is written to ``BENCH_engine.json`` in the repo root, which
``benchmarks/check_regression.py`` gates against ``benchmarks/BASELINES.json``
(>20% throughput regression fails CI)."""

import os
import pathlib

import pytest

from repro.core import run_simulation
from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.cpu.interp import run_functional
from repro.lang import compile_source
from repro.stats.perfjson import PerfRecorder
from repro.workloads.fft import fft_source
from repro.workloads.registry import make_workload
from repro.workloads.synthetic import sharing_workload

from tests.conftest import assert_same_run

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"


@pytest.fixture(scope="module")
def perf():
    recorder = PerfRecorder(scale=os.environ.get("REPRO_SCALE", "tiny"))
    yield recorder
    if recorder.entries:
        print(f"\n[perf record written to {recorder.write(BENCH_JSON)}]")


def _engine_run(scheme):
    return run_simulation(
        None,
        trace_cores=sharing_workload(4, 20, seed=1),
        host=HostConfig(num_cores=4),
        sim=SimConfig(scheme=scheme, seed=1),
        target=TargetConfig(num_cores=4, core_model="trace"),
    )


def test_compile_throughput(benchmark, perf):
    src = fft_source(64, 8)
    # cache=False: this measures the compile pipeline, not the on-disk cache.
    result = benchmark(lambda: compile_source(src, cache=False))
    assert result.program.size_insns > 100
    perf.record(
        "compile_throughput",
        seconds=benchmark.stats.stats.mean,
        work=result.program.size_insns,
        work_unit="insns",
    )


def test_engine_cycle_rate_cc(benchmark, perf):
    result = benchmark(lambda: _engine_run("cc"))
    assert result.completed
    # Work and the determinism fingerprint both come off the registry dump;
    # check_regression.py compares stats_digest against the pinned baseline
    # (machine-independent, unlike the throughputs).
    perf.record(
        "engine_cycle_rate_cc",
        seconds=benchmark.stats.stats.mean,
        work=result.stats["target.execution_cycles"],
        work_unit="cycles",
        extra={"stats_digest": result.stats_sha256},
    )


@pytest.fixture(scope="module")
def fft_trace(tmp_path_factory):
    """One functional capture of fft tiny, shared by the replay benches."""
    path = str(tmp_path_factory.mktemp("trace") / "fft_cc.trace")
    program = make_workload("fft", scale="tiny").program
    result = run_simulation(
        program,
        sim=SimConfig(scheme="cc", seed=1, trace_mode="capture", trace_path=path),
    )
    assert result.completed
    return program, path


def test_engine_cycle_rate_cc_replay(benchmark, perf, fft_trace):
    """cc replayed from a captured trace (DESIGN.md §11).

    The functional cores are not re-executed: ReplayCore feeds the recorded
    committed stream through the live engine/scheme/memory stack.  Iso-digest
    with a direct cc run of the same program (asserted here, modeled host
    time included), so the pinned rate is a pure host-side figure.
    """
    program, path = fft_trace

    def go():
        return run_simulation(
            program,
            sim=SimConfig(
                scheme="cc", seed=1, trace_mode="replay", trace_path=path
            ),
        )

    result = benchmark(go)
    assert result.completed
    assert_same_run(result, run_simulation(program, sim=SimConfig(scheme="cc", seed=1)))
    perf.record(
        "engine_cycle_rate_cc_replay",
        seconds=benchmark.stats.stats.mean,
        work=result.stats["target.execution_cycles"],
        work_unit="cycles",
        extra={"stats_digest": result.stats_sha256},
    )


def test_engine_cycle_rate_su(benchmark, perf):
    result = benchmark(lambda: _engine_run("su"))
    assert result.completed
    perf.record(
        "engine_cycle_rate_su",
        seconds=benchmark.stats.stats.mean,
        work=result.stats["target.execution_cycles"],
        work_unit="cycles",
        extra={"stats_digest": result.stats_sha256},
    )


@pytest.mark.parametrize(
    "key,core_model",
    [("engine_cycle_rate_s9", "inorder"), ("engine_cycle_rate_s9_ooo", "ooo")],
)
def test_engine_cycle_rate_s9(benchmark, perf, key, core_model):
    """Bounded slack on the timing cores (fft).  In-order: the one pinned key
    whose turns are long enough to run through ``InOrderCore.advance`` and
    whose idle manager polls come in ``HostModel.poll_until`` streaks
    (DESIGN.md §5) — cc turns are one cycle, and the su/cc keys above run
    trace cores, which have no ``advance``.  ``ooo``: the only pinned key that
    constructs an ``OoOCore`` (wakeup scoreboard + its own ``advance``) —
    every other key, sweep and figure runs the in-order model."""
    program = make_workload("fft", scale="tiny").program
    result = benchmark(
        lambda: run_simulation(
            program,
            target=TargetConfig(core_model=core_model),
            sim=SimConfig(scheme="s9", seed=1),
        )
    )
    assert result.completed
    perf.record(
        key,
        seconds=benchmark.stats.stats.mean,
        work=result.stats["target.execution_cycles"],
        work_unit="cycles",
        extra={"stats_digest": result.stats_sha256},
    )


@pytest.mark.parametrize("name", ["fft", "lu"])
def test_workload_kips(benchmark, perf, name):
    """Functional KIPS on a real benchmark (single-threaded, predecoded)."""
    program = make_workload(name, scale="tiny", nthreads=1).program
    result = benchmark(lambda: run_functional(program))
    assert result.exit_code == 0
    perf.record(
        f"workload_kips_{name}",
        seconds=benchmark.stats.stats.mean,
        work=result.instructions,
        work_unit="insns",
    )


@pytest.mark.parametrize("dispatch", ["predecoded", "oracle"])
def test_funcsim_dispatch(benchmark, perf, dispatch):
    """Raw interpreter dispatch rate, predecoded closures vs decode oracle."""
    program = make_workload("fft", scale="tiny", nthreads=1).program
    result = benchmark(lambda: run_functional(program, dispatch=dispatch))
    assert result.exit_code == 0
    perf.record(
        f"funcsim_dispatch_{dispatch}",
        seconds=benchmark.stats.stats.mean,
        work=result.instructions,
        work_unit="insns",
    )
