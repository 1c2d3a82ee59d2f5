"""Directory MESI protocol tests, including the paper's Figure 6 scenario."""

from hypothesis import given, settings, strategies as st

from repro.mem.directory import Directory, DirState, ReqKind
from repro.violations.detect import ViolationCounters


def test_first_read_grants_exclusive():
    d = Directory(4)
    grant, invalidate, downgrade, _, _ = d.handle(ReqKind.GETS, 0x100, 0, 1)
    assert grant == "E" and not invalidate and downgrade is None
    assert d.state_of(0x100) is DirState.EXCLUSIVE


def test_second_read_downgrades_owner():
    d = Directory(4)
    d.handle(ReqKind.GETS, 0x100, 0, 1)
    grant, _, downgrade, cache_to_cache, _ = d.handle(ReqKind.GETS, 0x100, 1, 2)
    assert grant == "S"
    assert downgrade == 0 and cache_to_cache
    assert d.sharers_of(0x100) == {0, 1}


def test_write_invalidates_sharers():
    d = Directory(4)
    d.handle(ReqKind.GETS, 0x100, 0, 1)
    d.handle(ReqKind.GETS, 0x100, 1, 2)
    d.handle(ReqKind.GETS, 0x100, 2, 3)
    grant, invalidate, _, _, _ = d.handle(ReqKind.GETX, 0x100, 3, 4)
    assert grant == "M"
    assert invalidate == (0, 1, 2)
    assert d.state_of(0x100) is DirState.EXCLUSIVE
    assert d.sharers_of(0x100) == {3}


def test_write_to_remote_modified_fetches_cache_to_cache():
    d = Directory(4)
    d.handle(ReqKind.GETX, 0x200, 0, 1)
    grant, invalidate, _, cache_to_cache, _ = d.handle(ReqKind.GETX, 0x200, 1, 2)
    assert grant == "M" and invalidate == (0,) and cache_to_cache


def test_upgrade_fast_path():
    d = Directory(4)
    d.handle(ReqKind.GETS, 0x300, 0, 1)
    d.handle(ReqKind.GETS, 0x300, 1, 2)
    grant, invalidate, _, _, promoted = d.handle(ReqKind.UPGRADE, 0x300, 0, 3)
    assert grant == "M" and invalidate == (1,)
    assert not promoted


def test_upgrade_race_promotes_to_getx():
    d = Directory(4)
    d.handle(ReqKind.GETS, 0x300, 0, 1)
    d.handle(ReqKind.GETS, 0x300, 1, 2)
    # Core 1 wins a GETX first; core 0's queued UPGRADE must become a GETX.
    d.handle(ReqKind.GETX, 0x300, 1, 3)
    grant, _, _, _, promoted = d.handle(ReqKind.UPGRADE, 0x300, 0, 4)
    assert promoted and grant == "M"
    assert d.sharers_of(0x300) == {0}


def test_putm_releases_ownership():
    d = Directory(4)
    d.handle(ReqKind.GETX, 0x400, 2, 1)
    grant, invalidate, downgrade, _, _ = d.handle(ReqKind.PUTM, 0x400, 2, 5)
    assert grant is None and not invalidate and downgrade is None
    assert d.state_of(0x400) is DirState.INVALID


def test_stale_putm_ignored():
    d = Directory(4)
    d.handle(ReqKind.GETX, 0x400, 2, 1)
    d.handle(ReqKind.GETX, 0x400, 3, 2)  # ownership moved to core 3
    d.handle(ReqKind.PUTM, 0x400, 2, 3)  # stale
    assert d.state_of(0x400) is DirState.EXCLUSIVE
    assert d.sharers_of(0x400) == {3}


def test_figure6_presence_bits():
    """Paper Figure 6: read by P1 then write by P2 (simulation-time order)."""
    d = Directory(2)
    # Initial: block clean in P2's cache (state (a)): P2 read it earlier.
    d.handle(ReqKind.GETS, 0x500, 1, 0)
    assert d.presence_bits(0x500) == ([0, 1], 1)  # E counts as present+dirty-capable
    # T1: P1 reads -> both present, clean share (state (b)).
    d.handle(ReqKind.GETS, 0x500, 0, 3)
    assert d.presence_bits(0x500) == ([1, 1], 0)
    # T2: P2 writes -> P1 invalidated, P2 dirty (state (c)).
    d.handle(ReqKind.UPGRADE, 0x500, 1, 2)
    assert d.presence_bits(0x500) == ([0, 1], 1)


def test_out_of_order_requests_counted_as_system_violations():
    counters = ViolationCounters()
    d = Directory(2, counters)
    d.handle(ReqKind.GETS, 0x500, 0, 10)
    d.handle(ReqKind.GETS, 0x500, 1, 5)  # from the simulated past
    assert counters.system_state == 1


def test_in_order_requests_do_not_count():
    counters = ViolationCounters()
    d = Directory(2, counters)
    d.handle(ReqKind.GETS, 0x500, 0, 5)
    d.handle(ReqKind.GETS, 0x500, 1, 10)
    assert counters.system_state == 0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([ReqKind.GETS, ReqKind.GETX, ReqKind.UPGRADE, ReqKind.PUTM]),
            st.integers(0, 3),   # core
            st.integers(0, 7),   # block index
        ),
        min_size=1,
        max_size=100,
    )
)
def test_property_directory_invariants(ops):
    """EXCLUSIVE entries have exactly one presence bit; SHARED entries are
    clean; INVALID entries have none."""
    d = Directory(4)
    for ts, (kind, core, block) in enumerate(ops):
        d.handle(kind, block * 64, core, ts)
        for addr in {b * 64 for _, _, b in ops}:
            bits, dirty = d.presence_bits(addr)
            state = d.state_of(addr)
            if state is DirState.EXCLUSIVE:
                assert sum(bits) == 1 and dirty == 1
            elif state is DirState.SHARED:
                assert sum(bits) >= 1 and dirty == 0
            else:
                assert sum(bits) == 0
