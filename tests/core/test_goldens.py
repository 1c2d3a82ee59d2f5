"""Golden determinism tests: pinned digests of full simulation results.

Two guarantees per scheme:

1. **Determinism across commits** — the batched sequential engine's complete
   result (target clocks, instruction counts, modeled host times down to the
   bit, via ``float.hex``) matches a golden digest checked into the repo.
   Any change to the engine, cost model or scheme logic that perturbs
   behavior shows up as a golden diff and must be deliberate: regenerate
   with ``pytest tests/core/test_goldens.py --update-goldens``.

2. **Batching is behavior-invariant** — running the identical configuration
   with ``stepping="single"`` (one ``model.step`` call per cycle, the
   equivalence oracle for the ``wait_state``/``skip`` fast path) produces
   the *same* digest.  The run-ahead jumps in ``CoreThread.step_many`` are
   a pure host-side speedup, never a semantic change.

The threaded engine is additionally checked *functionally*: its workload
output must match the golden (wall-clock host numbers are real time there
and inherently nondeterministic).
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.engine import SequentialEngine
from repro.lang import compile_source
from repro.workloads.registry import make_workload
from repro.workloads.synthetic import sharing_workload
from tests.core.threaded_harness import ThreadedEngine

GOLDEN_DIR = Path(__file__).parent / "goldens"

SCHEMES = ["cc", "q10", "l10", "s9", "s9*", "s100", "su"]

#: Small but contentious: 4 threads, a shared lock-protected counter and a
#: closing barrier — exercises locks, coherence and spawn/join.
PROGRAM_SRC = """
int lk; int bar; int counter;
void worker(int tid) {
    for (int i = 0; i < 6; i = i + 1) {
        lock(&lk);
        counter = counter + 1;
        unlock(&lk);
    }
    barrier(&bar);
}
int main() {
    int tids[4];
    init_lock(&lk);
    init_barrier(&bar, 4);
    for (int t = 1; t < 4; t = t + 1) tids[t] = spawn(worker, t);
    worker(0);
    for (int t = 1; t < 4; t = t + 1) join(tids[t]);
    print_int(counter);
    return 0;
}
"""

TRACE_SIM = SimConfig(seed=11)
TRACE_TARGET = TargetConfig(num_cores=4, core_model="trace")
PROGRAM_SIM = SimConfig(seed=11)
PROGRAM_TARGET = TargetConfig(num_cores=4)
HOST = HostConfig(num_cores=4)


@pytest.fixture(scope="module")
def program():
    return compile_source(PROGRAM_SRC).program


def digest(result) -> dict:
    """Stable, JSON-serializable fingerprint of a SimulationResult.

    Host times are recorded via ``float.hex`` so the comparison is bit-exact
    (``engine_steps`` is excluded: it counts host scheduler-loop iterations,
    an implementation detail that optimizations legitimately change).
    """
    return {
        "scheme": result.scheme,
        "completed": result.completed,
        "execution_cycles": result.execution_cycles,
        "global_time": result.global_time,
        "instructions": result.instructions,
        "host_time": float(result.host_time).hex(),
        "host_busy": float(result.host_busy).hex(),
        "output": list(result.output),
        "requests": result.requests,
        "barriers": result.barriers,
        "violations": {
            "simulation_state": result.violations.simulation_state,
            "system_state": result.violations.system_state,
            "workload_state": result.violations.workload_state,
        },
        "cores": [
            {
                "committed": c.committed,
                "cycles": c.cycles,
                "final_time": c.final_time,
            }
            for c in result.cores
        ],
    }


def run_sequential(scheme: str, program, stepping: str) -> dict:
    if program is None:
        engine = SequentialEngine(
            None,
            trace_cores=sharing_workload(4, 24, seed=3),
            target=TRACE_TARGET,
            host=HOST,
            sim=replace(TRACE_SIM, scheme=scheme),
            stepping=stepping,
        )
    else:
        engine = SequentialEngine(
            program,
            target=PROGRAM_TARGET,
            host=HOST,
            sim=replace(PROGRAM_SIM, scheme=scheme),
            stepping=stepping,
        )
    return digest(engine.run())


def golden_path(scheme: str) -> Path:
    return GOLDEN_DIR / f"{scheme.replace('*', 'star')}.json"


def load_or_update(request, scheme: str, fresh: dict) -> dict:
    path = golden_path(scheme)
    if request.config.getoption("--update-goldens"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        return fresh
    assert path.exists(), (
        f"golden {path} missing — generate with "
        "pytest tests/core/test_goldens.py --update-goldens"
    )
    return json.loads(path.read_text())


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sequential_batched_matches_golden(request, scheme, program):
    fresh = {
        "trace": run_sequential(scheme, None, "batched"),
        "program": run_sequential(scheme, program, "batched"),
    }
    golden = load_or_update(request, scheme, fresh)
    assert fresh == golden, (
        f"{scheme}: batched result diverged from golden — if intentional, "
        "regenerate with --update-goldens"
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_single_stepping_matches_golden(request, scheme, program):
    """stepping='single' (per-cycle oracle) must be bit-identical to the
    batched fast path: run-ahead jumps never change behavior."""
    fresh = {
        "trace": run_sequential(scheme, None, "single"),
        "program": run_sequential(scheme, program, "single"),
    }
    golden = load_or_update(request, scheme, fresh)
    assert fresh == golden, f"{scheme}: single-step oracle diverged from batched golden"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_threaded_functional_matches_golden(request, scheme, program):
    """The real-thread engine must reproduce the golden workload output
    (host timing is wall-clock there, so only functional state is pinned)."""
    golden = load_or_update(
        request, scheme, {
            "trace": run_sequential(scheme, None, "batched"),
            "program": run_sequential(scheme, program, "batched"),
        },
    )
    engine = ThreadedEngine(
        program,
        target=PROGRAM_TARGET,
        host=HOST,
        sim=replace(PROGRAM_SIM, scheme=scheme),
    )
    result = engine.run(timeout=120.0)
    assert result.completed
    assert list(result.output) == golden["program"]["output"]
    assert result.instructions == sum(c.committed for c in result.cores)


# ----------------------------------------------- registered-workload host times
#: The scheme goldens above run a toy program and ``bench/expected.json`` pins
#: cycles and digest only; this pins the *modeled host time* — the paper's
#: result, ``digest=False`` in the registry — of the registered workloads.
WORKLOAD_GOLDEN = GOLDEN_DIR / "workload_host_times.json"
WORKLOADS = ("barnes", "fft", "lu", "water")
#: (scheme, host cores).  The 32-core cells pin the schedule of a host wider
#: than any configuration the experiments use.
WORKLOAD_CELLS = [
    (scheme, hosts) for scheme in ("cc", "q10", "s9", "su") for hosts in (1, 8)
] + [("cc", 32), ("su", 32)]


@pytest.mark.parametrize("name", WORKLOADS)
def test_registered_workload_host_times_match_golden(request, name):
    program = make_workload(name, scale="tiny").program
    fresh = {}
    for scheme, hosts in WORKLOAD_CELLS:
        result = SequentialEngine(
            program,
            host=HostConfig(num_cores=hosts),
            sim=SimConfig(scheme=scheme, seed=1),
        ).run()
        fresh[f"{scheme}/h{hosts}"] = {
            "execution_cycles": result.execution_cycles,
            "stats_sha256": result.stats_sha256,
            "host_time": float(result.host_time).hex(),
            "host_busy": float(result.host_busy).hex(),
        }
    goldens = json.loads(WORKLOAD_GOLDEN.read_text()) if WORKLOAD_GOLDEN.exists() else {}
    if request.config.getoption("--update-goldens"):
        goldens[name] = fresh
        WORKLOAD_GOLDEN.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    assert fresh == goldens.get(name), (
        f"{name}: modeled host time moved — if intentional, regenerate with "
        "--update-goldens"
    )
