"""Program loader: materialise a Program image into target memory.

Layout (see :mod:`repro.isa.program`): text at ``TEXT_BASE``, data + heap at
``DATA_BASE``, and one stack region per hardware context carved from the top
of memory downward.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import align_up
from repro.cpu.arch import TargetMemory
from repro.cpu.predecode import predecode_program
from repro.isa.program import DATA_BASE, TEXT_BASE, Program

__all__ = ["LoadedImage", "load_program"]


@dataclass
class LoadedImage:
    """A program loaded into a fresh target memory."""

    program: Program
    memory: TargetMemory
    heap_start: int
    stack_tops: list[int]
    thread_exit_pc: int

    def stack_top(self, context: int) -> int:
        return self.stack_tops[context]


def load_program(
    program: Program,
    *,
    num_contexts: int = 8,
    memory_bytes: int = 16 * 1024 * 1024,
    stack_bytes: int = 256 * 1024,
) -> LoadedImage:
    """Load *program*, returning memory plus per-context stack tops."""
    mem = TargetMemory(memory_bytes)
    mem.write_words(TEXT_BASE, program.encoded_text())
    if program.data:
        mem.write_bytes(DATA_BASE, program.data)
    heap_start = align_up(program.data_end, 64)
    stacks_bottom = memory_bytes - num_contexts * stack_bytes
    if stacks_bottom <= heap_start + 64 * 1024:
        raise ValueError(
            f"memory too small: heap starts at {heap_start:#x}, "
            f"stacks need {num_contexts * stack_bytes:#x} bytes"
        )
    stack_tops = [memory_bytes - i * stack_bytes - 64 for i in range(num_contexts)]
    thread_exit_pc = program.symbols.get("__thread_exit", program.entry)
    # Warm the predecoded function tables at load time (memoised on the
    # Program, so all cores sharing this image reuse one table).
    predecode_program(program)
    return LoadedImage(
        program=program,
        memory=mem,
        heap_start=heap_start,
        stack_tops=stack_tops,
        thread_exit_pc=thread_exit_pc,
    )
