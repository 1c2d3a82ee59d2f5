"""Differential tests: predecoded dispatch vs the decode oracle.

The predecoded execution layer is a pure performance optimisation — it must
be bit-identical to the oracle (``funcsim.execute``) path.  These tests run
every registered workload through both dispatch modes and compare the full
architectural digest, the output stream, and the instruction count.
"""

import pytest

from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.engine import SequentialEngine
from repro.cpu.interp import FunctionalInterpreter
from repro.lang import compile_source
from repro.workloads.registry import WORKLOADS, make_workload

from tests.conftest import assert_same_run
from tests.core.test_checkpoint import PROGRAM_SRC


@pytest.mark.parametrize("name", sorted(WORKLOADS), ids=sorted(WORKLOADS))
def test_interpreter_differential(name):
    """Functional interpreter: identical digest/output/count per workload."""
    program = make_workload(name, scale="tiny", nthreads=1).program
    results = {}
    for dispatch in ("predecoded", "oracle"):
        interp = FunctionalInterpreter(program, dispatch=dispatch)
        result = interp.run()
        results[dispatch] = (
            interp.state.digest(),
            result.output,
            result.instructions,
            result.exit_code,
        )
    assert results["predecoded"] == results["oracle"]


@pytest.mark.parametrize("core_model", ["inorder", "ooo"])
def test_engine_differential(core_model):
    """Timing engine: both core models match the oracle cycle-for-cycle."""
    workload = make_workload("fft", scale="tiny")
    results = []
    for dispatch in ("predecoded", "oracle"):
        engine = SequentialEngine(
            workload.program,
            target=TargetConfig(core_model=core_model),
            host=HostConfig(num_cores=4),
            sim=SimConfig(scheme="s9", seed=1),
            dispatch=dispatch,
        )
        result = engine.run()
        assert not workload.mismatches(result.output)
        results.append(result)
    predecoded, oracle = (
        (r.global_time, r.instructions, r.output, r.violations.total)
        for r in results
    )
    assert predecoded == oracle
    assert_same_run(*results)


#: One scheme per gq_policy shape: cycle-accurate barrier, quantum barrier,
#: bounded slack (sliding), unbounded slack.
@pytest.mark.parametrize("scheme", ["cc", "q3", "s2", "su"])
def test_sync_program_differential(scheme):
    """Timing superblocks vs the oracle on the checkpoint goldens'
    lock/barrier program, every scheme shape: sysapi effects land in host
    arrival order, so a path that perturbs the turn decomposition (not just
    end totals) moves the digest or the modeled host time."""
    program = compile_source(PROGRAM_SRC).program
    runs = [
        SequentialEngine(
            program,
            target=TargetConfig(num_cores=4),
            host=HostConfig(num_cores=4),
            sim=SimConfig(scheme=scheme, seed=11),
            dispatch=dispatch,
        ).run()
        for dispatch in ("predecoded", "oracle")
    ]
    assert list(runs[0].output) == [24]
    assert_same_run(*runs)
