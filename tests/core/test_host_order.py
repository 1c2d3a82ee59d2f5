"""The order :class:`~repro.host.hostmodel.HostModel` relies on.

The host model keeps its free-up times as one min-heap with no core
identity, which is exact only while each call's ready time is at or after
the ready time of the previous call's last step (``poll_until``'s inner
steps included; DESIGN.md §2).  Every lattice run records its host-model
calls (``tests/lattice.py:RecordingHostModel``) and asserts that order; these
tests name the cells that pin it over every scheme kind, host width, core
model, a restored checkpoint and a fault plan.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import load_checkpoint
from tests import lattice
from tests.lattice import HOSTS, SCHEMES, Cell


@pytest.mark.parametrize("hosts", HOSTS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", ["fft", "water"])
def test_registered_workloads_call_in_ready_order(name, scheme, hosts):
    lattice.check("run", Cell(name, scheme=scheme, hosts=hosts))


@pytest.mark.parametrize("scheme", ["cc", "q10", "s9", "su"])
def test_sharing_trace_calls_in_ready_order(scheme):
    lattice.check("run", Cell.of("sharing", scheme, 2))


def test_ooo_core_calls_in_ready_order():
    lattice.check("run", Cell("water", "ooo", "s9", 2))


def test_restored_run_calls_in_ready_order():
    """The restored host model continues the order the checkpoint left off:
    the recorder travels in the pickle with its last ready time."""
    cell = Cell("fft", scheme="q3", hosts=2)
    lattice.check("restored", cell)
    assert load_checkpoint(lattice.checkpoint_path(cell)).hostmodel.steps > 0


def test_fault_plan_run_calls_in_ready_order():
    lattice.check("faulted", Cell("fft", hosts=2))
