"""L1 cache model tests: geometry, LRU, MESI transitions, writebacks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.l1cache import AccessResult, L1Cache, L1Config
from repro.mem.directory import MESI


def small_cache(assoc=2, sets=4, block=64):
    return L1Cache(L1Config(size_bytes=assoc * sets * block, block_bytes=block, assoc=assoc))


def test_geometry():
    cache = L1Cache(L1Config(size_bytes=16 * 1024, block_bytes=64, assoc=4))
    assert cache.config.num_sets == 64


def test_cold_miss_then_hit():
    cache = small_cache()
    assert cache.access(0x1000, False) is AccessResult.MISS
    cache.fill(0x1000, MESI.EXCLUSIVE)
    assert cache.access(0x1000, False) is AccessResult.HIT


def test_block_granularity():
    cache = small_cache(block=64)
    cache.fill(0x1000, MESI.EXCLUSIVE)
    assert cache.access(0x1038, False) is AccessResult.HIT  # same 64B block
    assert cache.access(0x1040, False) is AccessResult.MISS  # next block


def test_write_to_shared_is_upgrade():
    cache = small_cache()
    cache.fill(0x2000, MESI.SHARED)
    assert cache.access(0x2000, True) is AccessResult.UPGRADE
    assert cache.access(0x2000, False) is AccessResult.HIT  # read still fine


def test_write_to_exclusive_silently_modifies():
    cache = small_cache()
    cache.fill(0x2000, MESI.EXCLUSIVE)
    assert cache.access(0x2000, True) is AccessResult.HIT
    assert cache.state_of(0x2000) is MESI.MODIFIED


def test_write_to_modified_hits():
    cache = small_cache()
    cache.fill(0x2000, MESI.MODIFIED)
    assert cache.access(0x2000, True) is AccessResult.HIT


def test_lru_eviction():
    cache = small_cache(assoc=2, sets=1)
    cache.fill(0x0000, MESI.EXCLUSIVE)
    cache.fill(0x1000, MESI.EXCLUSIVE)
    cache.access(0x0000, False)          # touch first: second becomes LRU
    victim = cache.fill(0x2000, MESI.EXCLUSIVE)
    assert victim is None                 # clean eviction: no writeback
    assert cache.access(0x1000, False) is AccessResult.MISS
    assert cache.access(0x0000, False) is AccessResult.HIT


def test_dirty_eviction_returns_writeback_address():
    cache = small_cache(assoc=1, sets=1)
    cache.fill(0x3000, MESI.MODIFIED)
    victim = cache.fill(0x7000, MESI.EXCLUSIVE)
    assert victim == 0x3000
    assert cache.stats.writebacks == 1


def test_invalidate():
    cache = small_cache()
    cache.fill(0x4000, MESI.SHARED)
    assert cache.invalidate(0x4000) is True
    assert cache.access(0x4000, False) is AccessResult.MISS
    assert cache.invalidate(0x4000) is False  # already gone


def test_downgrade_reports_dirtiness():
    cache = small_cache()
    cache.fill(0x5000, MESI.MODIFIED)
    assert cache.downgrade(0x5000) is True
    assert cache.state_of(0x5000) is MESI.SHARED
    cache.fill(0x5040, MESI.EXCLUSIVE)
    assert cache.downgrade(0x5040) is False
    assert cache.state_of(0x5040) is MESI.SHARED


def test_fill_invalid_rejected():
    with pytest.raises(ValueError):
        small_cache().fill(0, MESI.INVALID)


def test_stats_accumulate():
    cache = small_cache()
    cache.access(0, False)
    cache.fill(0, MESI.EXCLUSIVE)
    cache.access(0, False)
    assert cache.stats.accesses == 2
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert 0.0 < cache.stats.miss_rate < 1.0


def test_resident_blocks_roundtrip():
    cache = small_cache()
    cache.fill(0x1000, MESI.SHARED)
    cache.fill(0x2050, MESI.MODIFIED)
    resident = dict(cache.resident_blocks())
    assert resident[0x1000] is MESI.SHARED
    assert resident[0x2040] is MESI.MODIFIED  # block-aligned


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.booleans()), min_size=1, max_size=200))
def test_property_capacity_invariant(ops):
    """The cache never holds more valid lines than its capacity, and a fill
    always makes the next access to that block a hit."""
    cache = small_cache(assoc=2, sets=4)
    capacity = 8
    for block_index, is_write in ops:
        addr = block_index * 64
        result = cache.access(addr, is_write)
        if result is not AccessResult.HIT:
            state = MESI.MODIFIED if is_write else MESI.EXCLUSIVE
            cache.fill(addr, state)
            assert cache.access(addr, is_write) is AccessResult.HIT
        assert len(cache.resident_blocks()) <= capacity
