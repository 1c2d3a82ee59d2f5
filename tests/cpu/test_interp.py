"""End-to-end functional interpreter tests on assembled programs."""

import pytest

from repro.cpu.arch import TargetFault
from repro.cpu.interp import FunctionalInterpreter, InterpError, run_functional
from repro.isa import assemble


def run_src(src, **kw):
    return run_functional(assemble(src), **kw)


def test_sum_loop():
    result = run_src(
        """
        main:
            li a0, 10
            li a1, 0
        loop:
            add a1, a1, a0
            addi a0, a0, -1
            bnez a0, loop
            mv a0, a1
            li a7, 1       # PRINT_INT
            ecall
            li a0, 0
            li a7, 0       # EXIT
            ecall
        """
    )
    assert result.int_output == [55]
    assert result.exit_code == 0


def test_exit_code_propagates():
    result = run_src("main: li a0, 3\nli a7, 0\necall\n")
    assert result.exit_code == 3


def test_halt_without_exit_is_code_zero():
    assert run_src("main: halt\n").exit_code == 0


def test_fibonacci_via_function_calls():
    result = run_src(
        """
        # iterative fib(12) with a helper function
        main:
            li a0, 12
            call fib
            li a7, 1
            ecall
            halt
        fib:
            li t0, 0      # a
            li t1, 1      # b
        fib_loop:
            beqz a0, fib_done
            add t2, t0, t1
            mv t0, t1
            mv t1, t2
            addi a0, a0, -1
            j fib_loop
        fib_done:
            mv a0, t0
            ret
        """
    )
    assert result.int_output == [144]


def test_data_segment_and_memory():
    result = run_src(
        """
        .data
        arr: .word 3, 1, 4, 1, 5
        .text
        main:
            la a1, arr
            li a2, 5
            li a0, 0
        loop:
            ld t0, 0(a1)
            add a0, a0, t0
            addi a1, a1, 8
            addi a2, a2, -1
            bnez a2, loop
            li a7, 1
            ecall
            halt
        """
    )
    assert result.int_output == [14]


def test_float_pipeline():
    result = run_src(
        """
        .data
        vals: .double 2.0, 8.0
        .text
        main:
            la a0, vals
            fld f1, 0(a0)
            fld f2, 8(a0)
            fmul f3, f1, f2      # 16.0
            fsqrt f4, f3         # 4.0
            fmv fa0, f4
            li a7, 2             # PRINT_FLOAT
            ecall
            halt
        """
    )
    assert result.float_output == [4.0]


def test_print_char():
    result = run_src(
        """
        main:
            li a0, 72
            li a7, 3
            ecall
            li a0, 105
            li a7, 3
            ecall
            halt
        """
    )
    assert "".join(v for v in result.output if isinstance(v, str)) == "Hi"


def test_sbrk_allocates_monotonically():
    result = run_src(
        """
        main:
            li a0, 64
            li a7, 4
            ecall
            mv s0, a0
            li a0, 64
            li a7, 4
            ecall
            sub a0, a0, s0    # second break - first break
            li a7, 1
            ecall
            halt
        """
    )
    assert result.int_output == [64]


def test_thread_introspection_single_threaded():
    result = run_src(
        """
        main:
            li a7, 12       # THREAD_ID
            ecall
            li a7, 1
            ecall
            li a7, 13       # NUM_THREADS
            ecall
            li a7, 1
            ecall
            halt
        """
    )
    assert result.int_output == [0, 1]


def test_runaway_program_detected():
    with pytest.raises(InterpError, match="exceeded"):
        run_src("main: j main\n", max_instructions=1000)


def test_blocking_syscall_rejected_functionally():
    # Thread spawn/join genuinely needs the slack engine.
    with pytest.raises(InterpError, match="slack engine"):
        run_src("main: li a7, 11\necall\nhalt\n")


def test_single_thread_sync_supported():
    # Locks acquired/released by the only thread succeed immediately.
    result = run_src(
        """
        main:
            li a0, 4096
            li a7, 20       # LOCK_INIT
            ecall
            li a7, 21       # LOCK_ACQ
            ecall
            li a7, 22       # LOCK_REL
            ecall
            li a0, 7
            li a7, 1
            ecall
            halt
        """
    )
    assert result.int_output == [7]


def test_single_thread_deadlock_detected():
    # Re-acquiring a held lock with one thread can never succeed.
    with pytest.raises(InterpError, match="deadlock"):
        run_src(
            """
            main:
                li a0, 4096
                li a7, 20
                ecall
                li a7, 21
                ecall
                li a7, 21
                ecall
                halt
            """
        )


def test_unknown_syscall_rejected():
    with pytest.raises(InterpError, match="unknown syscall"):
        run_src("main: li a7, 99\necall\nhalt\n")


def test_pc_escape_detected():
    with pytest.raises(InterpError, match="outside text"):
        run_src("main: li t0, 0\njr t0\n")


def test_instruction_count():
    result = run_src("main: nop\nnop\nhalt\n")
    assert result.instructions == 3


def test_amo_program():
    result = run_src(
        """
        .data
        counter: .word 10
        .text
        main:
            la a1, counter
            li a2, 5
            amoadd a0, a2, (a1)   # a0 = 10, counter = 15
            li a7, 1
            ecall
            ld a0, 0(a1)
            li a7, 1
            ecall
            halt
        """
    )
    assert result.int_output == [10, 15]


# The faulting ``ld`` (a 16 TiB address) sits right behind an ``ecall`` in the
# first program and inside a basic block, behind two ALU instructions, in the
# second.
_FAULT_AFTER_ECALL = """
main: addi a0, zero, 7
      addi a7, zero, 1
      ecall
      lui  t3, 4095
      addi a7, zero, 1
      ecall
      ld   t4, 0(t3)
      ecall
      halt
"""
_FAULT_IN_BLOCK = """
main: addi a0, zero, 7
      addi a7, zero, 1
      ecall
      lui  t3, 4095
      addi t0, zero, 5
      ld   t4, 0(t3)
      addi t5, zero, 1
      halt
"""


@pytest.mark.parametrize("src, pc, instructions", [
    (_FAULT_AFTER_ECALL, 0x10030, 6),
    (_FAULT_IN_BLOCK, 0x10028, 5),
], ids=["after-ecall", "in-block"])
def test_target_fault_reports_where_it_happened(src, pc, instructions):
    """After a ``TargetFault`` the interpreter's pc and count are the
    faulting instruction's — never the last syscall's."""
    interp = FunctionalInterpreter(assemble(src))
    with pytest.raises(TargetFault, match="out-of-bounds"):
        interp.run()
    assert (interp.state.pc, interp.instructions) == (pc, instructions)
    # Effects in front of the fault stay: t0 was written before the ``ld``.
    assert interp.state.x[5] == (5 if src is _FAULT_IN_BLOCK else 0)
