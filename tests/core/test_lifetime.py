"""An engine owns no reference cycle: dropping it frees it.

Every Figure 8 / Table 3 point is one engine that ``jobs.execute`` builds,
runs and drops, and each engine owns a multi-megabyte target image.  That
image must go when the engine's last reference does — by reference
counting, not whenever the cyclic collector next runs: nothing in ``src/``
calls ``gc``.  These tests run with the collector disabled and
``gc.DEBUG_SAVEALL`` on, so an engine kept alive by a cycle is still
reachable through a weak reference after it is dropped, and any cyclic
leftover lands in ``gc.garbage`` when the test collects by hand.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.jobs.execute import execute
from repro.jobs.spec import JobSpec
from repro.jobs.store import ResultStore
from repro.workloads.synthetic import sharing_workload
from tests import lattice

#: A fault plan's InQ subclass is a class made per install, and every class
#: is a cycle (it and its method table refer to each other); the engine must
#: still be freed, but the plan it held may wait for the collector.
FAULT_PLAN = (
    "overrun_window:core=0,at=50,extra=64;"
    "stall_core:core=1,at=10,host_delay=50;"
    "delay_inq:core=1,delta=5"
)
KINDS = ["inorder", "ooo", "replay", "trace", "faults"]
SPEC = JobSpec.build("fft", "tiny", scheme="s9", seed=3, host_cores=2)


@pytest.fixture(scope="module")
def capture():
    return lattice.capture("fft", "tiny", 8)


@pytest.fixture(scope="module")
def make(capture):
    def make_engine(kind: str):
        if kind == "trace":
            return lattice.build(sharing_workload(4, 24, seed=5), "s9", seed=3)
        if kind == "faults":
            return lattice.build("fft", "s9", seed=3, fault_plan=FAULT_PLAN)
        return lattice.build("fft", "s9", model=kind, seed=3)

    return make_engine


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "results")


@pytest.fixture()
def leftovers():
    """Run the test with the collector off; yields a function that collects
    by hand and names every ``repro`` object only a cycle kept alive."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)

    def collect() -> list[str]:
        gc.collect()
        return sorted(
            {
                f"{type(o).__module__}.{type(o).__qualname__}"
                for o in gc.garbage
                if type(o).__module__.startswith("repro")
            }
        )

    try:
        yield collect
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
        gc.collect()


def _check(kind: str, ref: weakref.ref, leftovers) -> None:
    assert ref() is None, f"a dropped {kind} engine is kept alive by a cycle"
    garbage = leftovers()
    if kind != "faults":
        assert garbage == []


@pytest.mark.parametrize("kind", KINDS)
def test_a_built_engine_is_freed_when_dropped(kind, make, leftovers):
    engine = make(kind)
    ref = weakref.ref(engine)
    del engine
    _check(kind, ref, leftovers)


@pytest.mark.parametrize("kind", KINDS)
def test_a_run_engine_is_freed_when_dropped(kind, make, leftovers):
    engine = make(kind)
    ref = weakref.ref(engine)
    result = engine.run()
    assert result.completed
    # Reading the stats renders them from the engine.
    assert result.stats["target.instructions"] == result.instructions
    assert result.dump_json()
    del engine
    assert ref() is not None, "the result keeps its engine for later dumps"
    del result
    _check(kind, ref, leftovers)


@pytest.mark.parametrize("core_model", ["inorder", "ooo"])
def test_execute_frees_the_engine_of_a_miss(core_model, store, leftovers):
    job = JobSpec.build(
        "fft", "tiny", scheme="s9", seed=3, host_cores=2, core_model=core_model
    )
    refs = []
    miss = execute(job, store, watch=lambda engine: refs.append(weakref.ref(engine)))
    assert not miss.hit and len(refs) == 1
    _check(core_model, refs[0], leftovers)
    hit = execute(job, store, watch=refs.append)
    assert hit.hit and len(refs) == 1, "a hit builds no engine"
    assert leftovers() == []


def test_execute_frees_the_engine_of_a_replay(capture, leftovers):
    refs = []
    outcome = execute(SPEC, trace=capture, watch=lambda engine: refs.append(weakref.ref(engine)))
    assert not outcome.hit and len(refs) == 1
    _check("replay", refs[0], leftovers)
