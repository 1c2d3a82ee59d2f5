"""Pure functional interpreter (no timing) for single-threaded programs.

This is the toolchain's single-thread reference: compiler tests, assembler
examples, ``repro compile --run`` and ``repro bench`` run here, independent
of every timing model.  (Registered workloads are checked against their
numpy oracles, not against this interpreter.)  It loads and starts a
program as a one-core engine run does (:func:`load_program`, one context)
and traps every ``ecall`` into the engine's :class:`SystemEmulation` on
core 0, with the instruction count as local time: one Table 1 emulation
serves both.  A call that would block the only thread is a single-thread
deadlock; spawn and join are refused up front — multi-threaded programs run
on the slack engine (:mod:`repro.core`).

One loop: fetch the :class:`Instruction` and run it through
:func:`repro.cpu.funcsim.execute`, the semantic oracle the predecoded
templates of :mod:`repro.cpu.predecode` are tested against.  A
``TargetFault`` leaves the pc and instruction count at the faulting
instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.arch import REG_A0, REG_A7, ArchState, TargetMemory
from repro.cpu.funcsim import NEXT, execute
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.program import TEXT_BASE, Program
from repro.sysapi.loader import load_program
from repro.sysapi.syscalls import Sys, TargetError
from repro.sysapi.system import SysAction, SystemEmulation

__all__ = ["FunctionalInterpreter", "InterpResult", "run_functional"]


class InterpError(RuntimeError):
    """Functional interpretation failed (refused syscall, single-thread
    deadlock, runaway loop)."""


@dataclass
class InterpResult:
    """Outcome of a functional run."""

    exit_code: int
    instructions: int
    output: list = field(default_factory=list)  # ints / floats / 1-char strs
    memory: TargetMemory | None = None
    state: ArchState | None = None

    @property
    def int_output(self) -> list[int]:
        return [v for v in self.output if isinstance(v, int)]

    @property
    def float_output(self) -> list[float]:
        return [v for v in self.output if isinstance(v, float)]


class FunctionalInterpreter:
    """Fetch/execute loop over a :class:`Program` loaded as a one-core run."""

    def __init__(self, program: Program) -> None:
        self.program = program
        image = load_program(program, num_contexts=1)
        self.mem = image.memory
        self.system = SystemEmulation(image, num_cores=1)
        self.state = ArchState(context_id=0, pc=program.entry)
        image.init_registers(self.state, 0, tid=0)
        self.instructions = 0
        self.exit_code: int | None = None
        self._text = program.text

    def _fetch(self, pc: int) -> Instruction:
        index, rem = divmod(pc - TEXT_BASE, INSTRUCTION_BYTES)
        if rem or not 0 <= index < len(self._text):
            raise InterpError(f"PC {pc:#x} outside text segment")
        return self._text[index]

    def _ecall(self) -> None:
        """Trap the ``ecall`` into the system emulation, at local time = the
        instruction count; ``exit`` leaves the pc on the ``ecall``."""
        state = self.state
        num = state.x[REG_A7]
        if num in (Sys.THREAD_SPAWN, Sys.THREAD_JOIN):
            raise InterpError(
                f"syscall {Sys(num).name} needs the slack engine (multi-threaded emulation)"
            )
        if num == Sys.EXIT:
            self.exit_code = state.x[REG_A0]
        try:
            result = self.system.syscall(0, state, self.instructions)
        except TargetError as exc:
            raise InterpError(str(exc)) from exc
        if result.action is SysAction.BLOCK:
            raise InterpError(
                f"{Sys(num).name} at pc {state.pc:#x} blocks the only thread: "
                "single-thread deadlock (use the slack engine)"
            )
        if result.action is SysAction.EXIT:
            state.halted = True
        else:
            state.pc += INSTRUCTION_BYTES

    def run(self, max_instructions: int = 50_000_000) -> InterpResult:
        """Run until ``exit``/``halt`` or the instruction budget is exhausted."""
        state = self.state
        mem = self.mem
        while not state.halted:
            if self.instructions >= max_instructions:
                raise InterpError(f"exceeded {max_instructions} instructions (runaway program?)")
            insn = self._fetch(state.pc)
            outcome = execute(state, insn, mem)
            self.instructions += 1
            if outcome.is_syscall:
                self._ecall()
            elif outcome.is_halt:
                break
            elif outcome.next_pc is NEXT:
                state.pc += INSTRUCTION_BYTES
            else:
                state.pc = outcome.next_pc
        return InterpResult(
            exit_code=self.exit_code if self.exit_code is not None else 0,
            instructions=self.instructions,
            output=self.system.merged_output(),
            memory=mem,
            state=state,
        )


def run_functional(program: Program, max_instructions: int = 50_000_000) -> InterpResult:
    """Convenience wrapper: interpret *program* functionally and return the result."""
    return FunctionalInterpreter(program).run(max_instructions=max_instructions)
