"""Differential tests: predecoded dispatch vs the decode oracle.

The predecoded execution layer is a pure performance optimisation — it must
be bit-identical to the oracle (``funcsim.execute``) path: the lattice's
``oracle`` class compares every compared field of the run, the output and
every core's final ``ArchState.digest()``.
"""

import pytest

from repro.workloads.registry import WORKLOADS

from tests import lattice
from tests.lattice import LOCK_SCHEMES, Cell


@pytest.mark.parametrize("core_model, name", [
    *(pytest.param("inorder", name, id=f"inorder-{name}") for name in sorted(WORKLOADS)),
    pytest.param("ooo", "fft", id="ooo-fft"),
])
def test_engine_differential(core_model, name):
    """Every workload's whole program runs the per-PC templates
    cycle-for-cycle like the oracle, on both core models."""
    lattice.check("oracle", Cell(name, core_model, "s9"))


@pytest.mark.parametrize("scheme", LOCK_SCHEMES)
def test_sync_program_differential(scheme):
    """The lock/barrier program, one scheme per gq_policy shape: sysapi
    effects land in host arrival order, so a path that perturbs the turn
    decomposition (not just end totals) moves the digest or the modeled host
    time."""
    lattice.check("oracle", Cell("lock", scheme=scheme, hosts=4, seed=11))
