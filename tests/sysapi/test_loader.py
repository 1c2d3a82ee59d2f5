"""Program loader tests."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.program import DATA_BASE, TEXT_BASE
from repro.sysapi.loader import load_program


def test_text_and_data_materialised():
    prog = assemble(
        """
        .data
        v: .word 77
        .text
        main: nop
        """
    )
    image = load_program(prog, num_contexts=2)
    from repro._util import to_unsigned64

    assert to_unsigned64(image.memory.load_word(TEXT_BASE)) == prog.text[0].encode()
    assert image.memory.load_word(DATA_BASE) == 77


def test_heap_starts_after_data_aligned():
    prog = assemble(".data\nv: .word 1, 2, 3\n.text\nmain: nop\n")
    image = load_program(prog)
    assert image.heap_start >= prog.data_end
    assert image.heap_start % 64 == 0


def test_per_context_stacks_are_disjoint():
    prog = assemble("main: nop\n")
    image = load_program(prog, num_contexts=4, stack_bytes=128 * 1024)
    tops = image.stack_tops
    assert len(set(tops)) == 4
    assert all(tops[i] - tops[i + 1] == 128 * 1024 for i in range(3))
    assert max(tops) < 16 * 1024 * 1024


def test_thread_exit_symbol_resolved():
    prog = assemble("main: nop\n__thread_exit: halt\n")
    image = load_program(prog)
    assert image.thread_exit_pc == prog.symbols["__thread_exit"]


def test_memory_too_small_rejected():
    prog = assemble("main: nop\n")
    with pytest.raises(ValueError, match="memory too small"):
        load_program(prog, num_contexts=8, memory_bytes=1 << 20, stack_bytes=256 * 1024)
