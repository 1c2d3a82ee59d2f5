"""Table 1 synchronization-primitive emulation tests (paper §4)."""

import pytest

from repro.sysapi.sync import SyncAction, SyncEmulation
from repro.sysapi.syscalls import TargetError


@pytest.fixture
def sync():
    return SyncEmulation()


class TestLocks:
    def test_uncontended_acquire(self, sync):
        sync.lock_init(0x100)
        r = sync.lock_acquire(0x100, core=0, ts=10)
        assert r.action is SyncAction.PROCEED
        assert sync.lock_holder(0x100) == 0

    def test_contended_acquire_blocks(self, sync):
        sync.lock_init(0x100)
        sync.lock_acquire(0x100, 0, 10)
        r = sync.lock_acquire(0x100, 1, 11)
        assert r.action is SyncAction.BLOCK
        assert sync.stats.lock_contended == 1

    def test_release_hands_off_fifo(self, sync):
        sync.lock_init(0x100)
        sync.lock_acquire(0x100, 0, 10)
        sync.lock_acquire(0x100, 1, 11)
        sync.lock_acquire(0x100, 2, 12)
        r = sync.lock_release(0x100, 0, 20)
        assert r.wakes == [(1, 22)]
        assert sync.lock_holder(0x100) == 1  # direct handoff
        r = sync.lock_release(0x100, 1, 30)
        assert r.wakes == [(2, 32)]

    def test_release_without_waiters_frees(self, sync):
        sync.lock_init(0x100)
        sync.lock_acquire(0x100, 0, 10)
        sync.lock_release(0x100, 0, 20)
        assert sync.lock_holder(0x100) is None

    def test_release_by_non_holder_rejected(self, sync):
        sync.lock_init(0x100)
        sync.lock_acquire(0x100, 0, 10)
        with pytest.raises(TargetError, match="held by"):
            sync.lock_release(0x100, 1, 20)

    def test_recursive_acquire_rejected(self, sync):
        sync.lock_init(0x100)
        sync.lock_acquire(0x100, 0, 10)
        with pytest.raises(TargetError, match="re-acquired.*self-deadlock"):
            sync.lock_acquire(0x100, 0, 11)

    def test_implicit_init_tolerated(self, sync):
        r = sync.lock_acquire(0x200, 0, 5)
        assert r.action is SyncAction.PROCEED

    def test_distinct_addresses_are_distinct_locks(self, sync):
        sync.lock_acquire(0x100, 0, 1)
        r = sync.lock_acquire(0x108, 1, 2)
        assert r.action is SyncAction.PROCEED


class TestBarriers:
    def test_all_but_last_block(self, sync):
        sync.barrier_init(0x300, 3)
        assert sync.barrier_wait(0x300, 0, 10).action is SyncAction.BLOCK
        assert sync.barrier_wait(0x300, 1, 12).action is SyncAction.BLOCK
        r = sync.barrier_wait(0x300, 2, 15)
        assert r.action is SyncAction.PROCEED
        assert sorted(r.wakes) == [(0, 17), (1, 17)]  # released at last arrival

    def test_barrier_is_reusable(self, sync):
        sync.barrier_init(0x300, 2)
        sync.barrier_wait(0x300, 0, 10)
        sync.barrier_wait(0x300, 1, 11)
        assert sync.barrier_wait(0x300, 1, 20).action is SyncAction.BLOCK
        r = sync.barrier_wait(0x300, 0, 25)
        assert r.wakes == [(1, 27)]
        assert sync.stats.barrier_episodes == 2

    def test_single_participant_never_blocks(self, sync):
        sync.barrier_init(0x300, 1)
        assert sync.barrier_wait(0x300, 0, 10).action is SyncAction.PROCEED

    def test_uninitialised_barrier_rejected(self, sync):
        with pytest.raises(TargetError, match="uninitialised"):
            sync.barrier_wait(0x400, 0, 10)

    def test_bad_count_rejected(self, sync):
        with pytest.raises(TargetError):
            sync.barrier_init(0x300, 0)


class TestSemaphores:
    def test_wait_consumes_value(self, sync):
        sync.sema_init(0x500, 2)
        assert sync.sema_wait(0x500, 0, 1).action is SyncAction.PROCEED
        assert sync.sema_wait(0x500, 1, 2).action is SyncAction.PROCEED
        assert sync.sema_wait(0x500, 2, 3).action is SyncAction.BLOCK

    def test_signal_wakes_fifo(self, sync):
        sync.sema_init(0x500, 0)
        sync.sema_wait(0x500, 0, 1)
        sync.sema_wait(0x500, 1, 2)
        r = sync.sema_signal(0x500, 7, 10)
        assert r.wakes == [(0, 12)]
        r = sync.sema_signal(0x500, 7, 20)
        assert r.wakes == [(1, 22)]

    def test_signal_without_waiters_increments(self, sync):
        sync.sema_init(0x500, 0)
        sync.sema_signal(0x500, 0, 1)
        assert sync.sema_wait(0x500, 1, 2).action is SyncAction.PROCEED

    def test_uninitialised_sema_rejected(self, sync):
        with pytest.raises(TargetError, match="uninitialised"):
            sync.sema_wait(0x600, 0, 1)

    def test_negative_initial_value_rejected(self, sync):
        with pytest.raises(TargetError):
            sync.sema_init(0x500, -1)


def test_producer_consumer_protocol(sync):
    """Semaphore pair as a 1-slot mailbox: orders are consistent."""
    sync.sema_init(0x10, 0)  # items
    sync.sema_init(0x18, 1)  # space
    # producer acquires space, consumer blocks on items
    assert sync.sema_wait(0x18, 0, 1).action is SyncAction.PROCEED
    assert sync.sema_wait(0x10, 1, 2).action is SyncAction.BLOCK
    # producer publishes
    r = sync.sema_signal(0x10, 0, 5)
    assert r.wakes == [(1, 7)]
