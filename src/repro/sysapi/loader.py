"""Program loader: materialise a Program image into target memory.

Layout (see :mod:`repro.isa.program`): text at ``TEXT_BASE``, data + heap at
``DATA_BASE``, and one stack region per hardware context carved from the top
of memory downward; the heap may grow up to the lowest stack's bottom.  The
slack engine loads one context per target core, the functional interpreter
(:mod:`repro.cpu.interp`) one, and both start a workload thread's registers
through :meth:`LoadedImage.init_registers`.  Loading decodes nothing: a
timing core derives its predecoded tables on first use, and the encoded text
is copied from :func:`repro.cache.program_image` (both memoised on the
Program).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import align_up
from repro.cache import program_image
from repro.cpu.arch import REG_RA, REG_SP, REG_TP, ArchState, TargetMemory
from repro.isa.program import DATA_BASE, TEXT_BASE, Program

__all__ = ["LoadedImage", "load_program"]


@dataclass
class LoadedImage:
    """A program loaded into a fresh target memory."""

    program: Program
    memory: TargetMemory
    heap_start: int
    #: The lowest stack's bottom: where the heap must stop.
    stacks_bottom: int
    stack_tops: list[int]
    thread_exit_pc: int

    def init_registers(self, state: ArchState, context: int, tid: int) -> None:
        """Start workload thread *tid* on *context*: its stack, its thread
        pointer, and a return address that exits the thread."""
        state.set_x(REG_SP, self.stack_tops[context])
        state.set_x(REG_TP, tid)
        state.set_x(REG_RA, self.thread_exit_pc)


def load_program(
    program: Program,
    *,
    num_contexts: int = 8,
    memory_bytes: int = 16 * 1024 * 1024,
    stack_bytes: int = 256 * 1024,
) -> LoadedImage:
    """Load *program*, returning memory plus per-context stack tops."""
    mem = TargetMemory(memory_bytes)
    mem.write_bytes(TEXT_BASE, program_image(program)[1])
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
    return LoadedImage(
        program=program,
        memory=mem,
        heap_start=heap_start,
        stacks_bottom=stacks_bottom,
        stack_tops=stack_tops,
        thread_exit_pc=thread_exit_pc,
    )
