"""The conformance lattice (``tests/lattice.py``; DESIGN.md §5 *Equivalence
classes*): every equivalence class over the pinned cells and over a
deterministic sample of the whole lattice, the table's coverage, and two
invariants of every run — cc timing does not depend on the host or the seed,
and a run ends with its L1s agreeing with the directory.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from tests import lattice
from tests.lattice import CLASSES, HOSTS, PINNED, REGISTERED, SCHEMES, Cell, family


@pytest.mark.parametrize("name,cell", PINNED, ids=[f"{n}-{c}" for n, c in PINNED])
def test_pinned(name, cell):
    lattice.check(name, cell)


_APPLICABLE = [
    (name, cell) for cell in lattice.cells()
    for name, klass in CLASSES.items() if cell.model in klass.models
]


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_APPLICABLE))
def test_whole_lattice_sample(entry):
    lattice.check(*entry)


def coverage_gaps(pinned) -> list:
    """``(class, axis value)`` for every registered workload, core model and
    scheme family that no pinned cell of a class applying to it reaches."""
    gaps = []
    for name, klass in CLASSES.items():
        cells = [cell for n, cell in pinned if n == name]
        reached = {cell.workload for cell in cells} | {cell.model for cell in cells}
        reached |= {family(cell.scheme) for cell in cells}
        wanted = {*REGISTERED, *klass.models, *(family(s) for s in SCHEMES)}
        gaps += [(name, value) for value in sorted(wanted - reached)]
    return gaps


def test_every_class_reaches_every_workload_model_and_family():
    assert coverage_gaps(PINNED) == []
    # The check sees a gap: drop one workload, one model, one family.
    for axis, value in (("workload", "ocean"), ("model", "replay"), ("scheme", "s9*")):
        thinned = [(n, c) for n, c in PINNED if getattr(c, axis) != value]
        assert coverage_gaps(thinned), value


# ------------------------------------------------- cc is host- and seed-free
@pytest.mark.parametrize(
    "token", [f"{w}:{m}" for w in REGISTERED for m in ("inorder", "ooo")] + ["sharing", "pingpong"]
)
def test_cc_timing_is_host_and_seed_invariant(token):
    """Under cc every stat outside the host loop (``engine.*``), the modeled
    host (``host.*``) and the run's own settings (``sim.*``) is the same at
    every host width and seed: the reference point slack is measured from."""
    def target(hosts, seed):
        stats = lattice.run(Cell.of(token, "cc", hosts, seed=seed)).stats
        return {k: v for k, v in stats.items() if not k.startswith(("engine.", "host.", "sim."))}

    reference = target(8, 1)
    for hosts, seed in [(h, 1) for h in HOSTS] + [(8, 2)]:
        moved = {k for k, v in target(hosts, seed).items() if reference.get(k) != v}
        assert not moved, (hosts, seed, sorted(moved)[:5])


# ------------------------------------------------------ coherence at run end
#: Cells other tests run anyway: every registered workload (the oracle
#: class's), replay, and the trace workloads (the cc invariance's).
@pytest.mark.parametrize("cell", [
    *(Cell(name, scheme="s9") for name in REGISTERED),
    *(Cell(name, "replay", scheme) for name in ("fft", "water") for scheme in ("cc", "s9")),
    Cell.of("sharing"), Cell.of("pingpong"),
], ids=str)
def test_runs_end_coherent(cell):
    """Once the undelivered InQ messages are applied, every valid L1 line is
    in the directory's presence bits and no block has an M/E copy beside
    another valid copy.  ``lattice.check_run`` asserts it on every in-order,
    replay and trace run; ``ooo`` runs break it."""
    assert lattice.run(cell).coherence == (0, 0)


@pytest.mark.xfail(strict=True, reason=(
    "OoOCore.apply_invalidation/apply_downgrade act at once on a block in "
    "flight, so the fill installs a line the directory took away"
))
@pytest.mark.parametrize("cell", [
    Cell.of(token, scheme) for token in ("fft:ooo", "water:ooo") for scheme in ("cc", "s9")
], ids=str)
def test_ooo_runs_end_coherent(cell):
    assert lattice.run(cell).coherence == (0, 0)
