"""Golden determinism tests: pinned digests of full simulation results.

Per scheme, the lock program and a 4-core sharing trace (4 host cores, seed
11): the batched run's complete result — target clocks, instruction counts,
modeled host times down to the bit (``float.hex``) — matches a golden
checked into the repo, and so does the ``stepping="single"`` run (the
lattice's ``single`` class, pinned across commits).  Regenerate deliberately
with ``pytest tests/core/test_goldens.py --update-goldens``.  The threaded
engine is checked *functionally*: its target timing is nondeterministic and
it models no host time.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.workloads.synthetic import sharing_workload
from tests import lattice
from tests.conftest import load_or_update
from tests.core.threaded_harness import ThreadedEngine
from tests.lattice import GOLDEN_SCHEMES, Cell

GOLDEN_DIR = Path(__file__).parent / "goldens"


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
                "committed": c["committed"],
                "cycles": c["cycles"],
                "final_time": result.stats[f"core{c['core']}.final_time"],
            }
            for c in result.cores
        ],
    }


def golden_path(scheme: str) -> Path:
    return GOLDEN_DIR / f"{scheme.replace('*', 'star')}.json"


def assert_pinned(request, scheme: str, variant: str) -> None:
    """The lock program and a 4-core sharing trace (4 host cores, seed 11)
    under *scheme*, batched or single-stepped, against ``<scheme>.json``."""
    trace = lattice.build(sharing_workload(4, 24, seed=3), scheme, 4, seed=11,
                          stepping="batched" if variant == "default" else variant)
    fresh = {
        "trace": digest(trace.run()),
        "program": digest(lattice.run(Cell("lock", scheme=scheme, hosts=4, seed=11), variant)),
    }
    for kind, value in fresh.items():
        assert value == load_or_update(request, golden_path(scheme), kind, value), (
            f"{scheme} {kind} ({variant}) diverged from golden — if intentional, "
            "regenerate with --update-goldens"
        )


@pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
def test_sequential_batched_matches_golden(request, scheme):
    assert_pinned(request, scheme, "default")


@pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
def test_single_stepping_matches_golden(request, scheme):
    """stepping='single' (per-cycle oracle) must be bit-identical to the
    batched fast path: run-ahead jumps never change behavior."""
    assert_pinned(request, scheme, "single")


@pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
def test_threaded_functional_matches_golden(scheme):
    """The real-thread engine must reproduce the golden workload output
    (its timing is nondeterministic, so only functional state is pinned)."""
    golden = json.loads(golden_path(scheme).read_text())["program"]
    result = ThreadedEngine(
        lattice.lock_program(), target=TargetConfig(num_cores=4),
        host=HostConfig(num_cores=4), sim=SimConfig(scheme=scheme, seed=11),
    ).run(timeout=120.0)
    assert result.completed
    assert list(result.output) == golden["output"]
    assert result.instructions == sum(c["committed"] for c in result.cores)


# ----------------------------------------------- registered-workload host times
#: The scheme goldens above run a toy program and ``bench/expected.json`` pins
#: cycles and digest only; this pins the *modeled host time* — the paper's
#: result, ``digest=False`` in the registry — of the registered workloads.
#: (scheme, host cores): the 32-core cells pin the schedule of a host wider
#: than any configuration the experiments use; the 1- and 2-core cells one
#: where nearly every step queues behind a busy host core; l10, s9* and the
#: adaptive quantum pin the lookahead, barrier-stepped and adapting schemes.
WORKLOAD_CELLS = [
    (scheme, hosts) for scheme in ("cc", "q10", "s9", "su") for hosts in (1, 8)
] + [
    ("cc", 32), ("su", 32),
    ("cc", 2), ("q10", 2), ("l10", 8), ("s9*", 8), ("aq10-160", 8),
]


@pytest.mark.parametrize("name", ["barnes", "fft", "lu", "water"])
def test_registered_workload_host_times_match_golden(request, name):
    fresh = {
        f"{s}/h{h}": lattice.host_times(lattice.run(Cell(name, scheme=s, hosts=h)))
        for s, h in WORKLOAD_CELLS
    }
    assert fresh == load_or_update(request, GOLDEN_DIR / "workload_host_times.json", name, fresh), (
        f"{name}: modeled host time moved — if intentional, regenerate with "
        "--update-goldens"
    )


# ------------------------------------------------ trace-core engine digests
@pytest.mark.parametrize("scheme", ["cc", "su"])
def test_trace_engine_digest_matches_golden(request, scheme):
    """Stats digests of ``sharing_workload(4, 20, seed=1)`` trace cores on 4
    host cores, seed 1 — no ISA front end: the engine, manager and memory
    system alone.  Pinned since the engine cycle-rate benchmarks; the values
    have never moved."""
    result = lattice.build(sharing_workload(4, 20, seed=1), scheme, 4).run()
    assert result.completed
    golden = load_or_update(
        request, GOLDEN_DIR / "trace_engine_digests.json", scheme, result.stats_sha256
    )
    assert result.stats_sha256 == golden, (
        f"{scheme}: trace-core engine digest moved — if intentional, regenerate "
        "with --update-goldens"
    )
