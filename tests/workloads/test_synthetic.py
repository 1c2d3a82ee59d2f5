"""Scripted trace cores: the coherence contract they share with the ISA cores."""

import pytest

from repro.core.events import EvKind, Event
from repro.workloads.synthetic import TraceCore


def test_grantless_response_raises():
    """A response must say which MESI state it grants: the ISA cores raise
    on one that does not, and so does a trace core."""
    core = TraceCore(0, [("load", 0x1000), ("halt",)])
    core.emit = lambda event: None
    core.activate(0, 0, 0)
    assert core.step(0) == (0, True)  # L1 miss: GETS issued, core stalls
    core.deliver_response(Event(EvKind.RESPONSE, core.l1.block_addr(0x1000), 0, 5))
    with pytest.raises(RuntimeError, match="response without grant"):
        core.step(5)
