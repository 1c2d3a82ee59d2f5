"""Shared pytest configuration for the test tree."""


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="Regenerate the golden determinism digests instead of comparing "
        "against them (tests/core/test_goldens.py).",
    )


def assert_same_run(a, b):
    """Two SimulationResults describe one and the same simulation.

    ``host.makespan`` is ``digest=False`` (host-loop mechanics, not target
    behaviour), so a stats digest alone cannot see a path that models a
    different simulation time — every equivalence test on the sequential
    engine compares the bit-exact modeled host time as well.
    """
    assert a.stats_sha256 == b.stats_sha256
    assert a.execution_cycles == b.execution_cycles
    assert float.hex(a.host_time) == float.hex(b.host_time)
