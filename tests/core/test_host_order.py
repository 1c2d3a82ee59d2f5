"""The order :class:`~repro.host.hostmodel.HostModel` relies on.

The host model keeps its free-up times as one min-heap with no core
identity, which is exact only while each call's ready time is at or after
the ready time of the previous call's last step (``poll_until``'s inner
steps included; DESIGN.md §2).  These tests run the engine with a recording
host model and assert that order over every scheme kind, host width, core
model, a restored checkpoint and a fault plan.
"""

from __future__ import annotations

import pytest

import repro.core.engine as engine_mod
from repro.core.checkpoint import load_checkpoint
from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.engine import SequentialEngine
from repro.host.hostmodel import HostModel
from repro.workloads.registry import make_workload
from repro.workloads.synthetic import sharing_workload
from tests.host.scan_reference import last_step_ready

SCHEMES = ["cc", "q3", "q10", "aq10-160", "l10", "s9", "s9*", "s100", "su"]
HOSTS = [1, 2, 8, 32]


class RecordingHostModel(HostModel):
    """A host model that notes every call whose ready time precedes the
    ready time of the previous call's last step."""

    def __init__(self, num_cores: int) -> None:
        super().__init__(num_cores)
        self.floor = 0.0  # ready time of the last step scheduled
        self.calls = 0
        self.backwards: list[tuple[int, float, float]] = []

    def _check(self, ready: float) -> None:
        self.calls += 1
        if ready < self.floor:
            self.backwards.append((self.calls, self.floor, ready))

    def run(self, ready: float, cost: float) -> float:
        self._check(ready)
        self.floor = ready
        return super().run(ready, cost)

    def poll_until(self, ready, cost, until, max_polls):
        self._check(ready)
        first_free = self.free_at[0]
        end, n = super().poll_until(ready, cost, until, max_polls)
        self.floor = last_step_ready(ready, first_free, cost, n)
        return end, n


@pytest.fixture
def recording(monkeypatch):
    monkeypatch.setattr(engine_mod, "HostModel", RecordingHostModel)


def assert_in_order(engine: SequentialEngine) -> None:
    host = engine.hostmodel
    assert isinstance(host, RecordingHostModel)
    assert host.calls > 0
    assert host.backwards == []


@pytest.mark.parametrize("hosts", HOSTS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", ["fft", "water"])
def test_registered_workloads_call_in_ready_order(recording, name, scheme, hosts):
    engine = SequentialEngine(
        make_workload(name, scale="tiny").program,
        host=HostConfig(num_cores=hosts),
        sim=SimConfig(scheme=scheme, seed=1),
    )
    assert engine.run().completed
    assert_in_order(engine)


@pytest.mark.parametrize("scheme", ["cc", "q10", "s9", "su"])
def test_sharing_trace_calls_in_ready_order(recording, scheme):
    engine = SequentialEngine(
        None,
        trace_cores=sharing_workload(
            8, 300, shared_fraction=0.8, write_fraction=0.5,
            think_cycles=0, shared_blocks=256, seed=1,
        ),
        target=TargetConfig(num_cores=8, core_model="trace"),
        host=HostConfig(num_cores=2),
        sim=SimConfig(scheme=scheme, seed=1),
    )
    assert engine.run().completed
    assert_in_order(engine)


def test_ooo_core_calls_in_ready_order(recording):
    engine = SequentialEngine(
        make_workload("water", scale="tiny").program,
        target=TargetConfig(core_model="ooo"),
        host=HostConfig(num_cores=2),
        sim=SimConfig(scheme="s9", seed=1),
    )
    assert engine.run().completed
    assert_in_order(engine)


def test_restored_run_calls_in_ready_order(recording, tmp_path):
    """The restored host model continues the order the checkpoint left off:
    the recorder travels in the pickle with its last ready time."""
    cp = str(tmp_path / "cp.pkl")
    program = make_workload("fft", scale="tiny").program
    SequentialEngine(
        program,
        host=HostConfig(num_cores=2),
        sim=SimConfig(scheme="q3", seed=1, checkpoint_interval=4000, checkpoint_path=cp),
    ).run()
    restored = load_checkpoint(cp)
    assert 0 < restored.hostmodel.calls
    assert restored.run().completed
    assert_in_order(restored)


def test_fault_plan_run_calls_in_ready_order(recording):
    engine = SequentialEngine(
        make_workload("fft", scale="tiny").program,
        host=HostConfig(num_cores=2),
        sim=SimConfig(
            scheme="cc", seed=1,
            fault_plan="stall_core:core=3,at=100,host_delay=500;delay_gq:delta=60,count=3",
        ),
    )
    assert engine.run().completed
    assert engine.faults.fired
    assert_in_order(engine)
