"""SystemEmulation (syscall router) unit tests."""

import pytest

from repro.cpu.arch import ArchState
from repro.isa.assembler import assemble
from repro.sysapi.loader import load_program
from repro.sysapi.syscalls import Sys, TargetError
from repro.sysapi.system import SysAction, SystemEmulation


@pytest.fixture
def system():
    image = load_program(assemble("main: halt\n"), num_contexts=4)
    sysm = SystemEmulation(image, num_cores=4)
    activations = []
    sysm.activate_context = lambda core, pc, arg, ts: activations.append((core, pc, arg, ts))
    sysm._test_activations = activations  # type: ignore[attr-defined]
    return sysm


def call(system, core, num, a0=0, a1=0, ts=0, fa0=0.0):
    state = ArchState(context_id=core)
    state.set_x(17, int(num))
    state.set_x(10, a0)
    state.set_x(11, a1)
    state.f[10] = fa0
    return system.syscall(core, state, ts), state


class TestBasics:
    def test_print_int_routes_to_output(self, system):
        call(system, 0, Sys.PRINT_INT, a0=42)
        assert system.merged_output() == [42]
        assert system.output_of(0) == [42]

    def test_print_float_uses_fa0(self, system):
        call(system, 0, Sys.PRINT_FLOAT, fa0=2.5)
        assert system.merged_output() == [2.5]

    def test_print_char(self, system):
        call(system, 0, Sys.PRINT_CHAR, a0=65)
        assert system.merged_output() == ["A"]

    def test_clock_returns_local_time(self, system):
        result, state = call(system, 0, Sys.CLOCK, ts=777)
        assert state.x[10] == 777

    def test_sbrk_is_shared_and_monotonic(self, system):
        _, s1 = call(system, 0, Sys.SBRK, a0=64)
        _, s2 = call(system, 1, Sys.SBRK, a0=64)
        assert s2.x[10] >= s1.x[10] + 64

    def test_sbrk_exhaustion_raises(self, system):
        with pytest.raises(TargetError, match="exhausts"):
            call(system, 0, Sys.SBRK, a0=1 << 30)

    def test_heap_stops_at_the_lowest_stack(self):
        """The largest sbrk that succeeds ends at or below the bottom of the
        lowest stack (8 contexts x 256 KiB carved from the top of 16 MiB)."""
        image = load_program(assemble("main: halt\n"), num_contexts=8)
        stacks_bottom = (16 << 20) - 8 * (256 << 10)

        def fits(nbytes):
            try:
                call(SystemEmulation(image, num_cores=8), 0, Sys.SBRK, a0=nbytes)
            except TargetError:
                return False
            return True

        lo, hi = 0, 16 << 20  # fits(lo), not fits(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        heap_end = image.heap_start + lo
        assert stacks_bottom - 64 <= heap_end <= stacks_bottom

    def test_unknown_syscall_raises(self, system):
        with pytest.raises(TargetError, match="unknown syscall"):
            call(system, 0, 99)

    def test_registers_preserved_except_a0(self, system):
        state = ArchState(context_id=0)
        state.set_x(17, int(Sys.CLOCK))
        state.set_x(5, 12345)  # t0
        system.syscall(0, state, 9)
        assert state.x[5] == 12345


class TestThreads:
    def test_spawn_claims_lowest_free_core(self, system):
        result, state = call(system, 0, Sys.THREAD_SPAWN, a0=0x10000, a1=7, ts=5)
        assert result.action is SysAction.PROCEED
        assert state.x[10] == 1  # tid
        assert system._test_activations == [(1, 0x10000, 7, 5)]

    def test_spawn_exhaustion(self, system):
        for _ in range(3):
            call(system, 0, Sys.THREAD_SPAWN, a0=0x10000, a1=0)
        with pytest.raises(TargetError, match="no idle core"):
            call(system, 0, Sys.THREAD_SPAWN, a0=0x10000, a1=0)

    def test_join_blocks_until_exit(self, system):
        _, st = call(system, 0, Sys.THREAD_SPAWN, a0=0x10000, a1=0)
        tid = st.x[10]
        result, _ = call(system, 0, Sys.THREAD_JOIN, a0=tid)
        assert result.action is SysAction.BLOCK
        # The spawned thread (on core 1) exits -> joiner woken.
        result, _ = call(system, 1, Sys.EXIT, ts=40)
        assert result.action is SysAction.EXIT
        assert result.wakes == [(0, 42)]

    def test_join_on_exited_thread_proceeds(self, system):
        _, st = call(system, 0, Sys.THREAD_SPAWN, a0=0x10000, a1=0)
        call(system, 1, Sys.EXIT)
        result, _ = call(system, 0, Sys.THREAD_JOIN, a0=st.x[10])
        assert result.action is SysAction.PROCEED

    def test_join_unknown_tid_raises(self, system):
        with pytest.raises(TargetError, match="unknown thread"):
            call(system, 0, Sys.THREAD_JOIN, a0=55)

    def test_exit_frees_the_core_for_reuse(self, system):
        call(system, 0, Sys.THREAD_SPAWN, a0=0x10000, a1=0)  # core 1
        call(system, 1, Sys.EXIT)
        _, st = call(system, 0, Sys.THREAD_SPAWN, a0=0x10000, a1=0)
        # Core 1 is reused; the tid keeps counting.
        assert system._test_activations[-1][0] == 1
        assert st.x[10] == 2

    def test_thread_id_and_count(self, system):
        _, st = call(system, 0, Sys.THREAD_ID)
        assert st.x[10] == 0
        call(system, 0, Sys.THREAD_SPAWN, a0=0x10000, a1=0)
        _, st = call(system, 1, Sys.THREAD_ID)
        assert st.x[10] == 1
        _, st = call(system, 0, Sys.NUM_THREADS)
        assert st.x[10] == 2

    def test_live_threads_accounting(self, system):
        assert system.live_threads() == 1
        call(system, 0, Sys.THREAD_SPAWN, a0=0x10000, a1=0)
        assert system.live_threads() == 2
        call(system, 1, Sys.EXIT)
        assert system.live_threads() == 1


class TestSyncRouting:
    def test_lock_calls_route_to_emulation(self, system):
        call(system, 0, Sys.LOCK_INIT, a0=0x500)
        r1, _ = call(system, 0, Sys.LOCK_ACQ, a0=0x500)
        r2, _ = call(system, 1, Sys.LOCK_ACQ, a0=0x500)
        assert r1.action is SysAction.PROCEED
        assert r2.action is SysAction.BLOCK
        r3, _ = call(system, 0, Sys.LOCK_REL, a0=0x500, ts=30)
        assert r3.wakes == [(1, 32)]

    def test_barrier_calls_route(self, system):
        call(system, 0, Sys.BARRIER_INIT, a0=0x600, a1=2)
        r1, _ = call(system, 0, Sys.BARRIER_WAIT, a0=0x600, ts=5)
        assert r1.action is SysAction.BLOCK
        r2, _ = call(system, 1, Sys.BARRIER_WAIT, a0=0x600, ts=9)
        assert r2.action is SysAction.PROCEED and r2.wakes == [(0, 11)]

    def test_sema_calls_route(self, system):
        call(system, 0, Sys.SEMA_INIT, a0=0x700, a1=1)
        r1, _ = call(system, 0, Sys.SEMA_WAIT, a0=0x700)
        assert r1.action is SysAction.PROCEED
        r2, _ = call(system, 1, Sys.SEMA_WAIT, a0=0x700)
        assert r2.action is SysAction.BLOCK
        r3, _ = call(system, 0, Sys.SEMA_SIGNAL, a0=0x700, ts=50)
        assert r3.wakes == [(1, 52)]
