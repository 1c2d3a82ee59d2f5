"""Scripted trace cores: the coherence contract they share with the ISA cores."""

from repro.mem.directory import MESI, EvKind, Event
from repro.workloads.synthetic import TraceCore


def test_response_installs_its_grant():
    """A response carries the directory's MESI grant, and the L1 installs it
    as is — the ISA cores do the same."""
    core = TraceCore(0, [("load", 0x1000), ("halt",)])
    core.emit = lambda event: None
    core.activate(0, 0, 0)
    assert core.step(0) == (0, True)  # L1 miss: GETS issued, core stalls
    block = core.l1.block_addr(0x1000)
    core.deliver_response(Event(EvKind.RESPONSE, block, 0, 5, MESI.SHARED))
    core.step(5)
    assert core.l1.state_of(block) is MESI.SHARED
