"""Pure functional interpreter (no timing) for single-threaded programs.

This is the toolchain's golden reference: compiler tests, assembler examples
and workload oracles run here, independent of every timing model.  It
supports the non-blocking subset of the syscall API (exit / prints / sbrk /
clock / thread_id / num_threads) plus trivially-satisfiable single-thread
synchronization (locks, one-participant barriers, semaphores), so registered
workloads run here at ``nthreads=1``.  Multi-threaded programs must run on
the slack engine (:mod:`repro.core`), which provides the full Table 1
emulation.

Two execution layers are available via ``dispatch=``: ``"predecoded"``
(default) runs the per-PC function tables of :mod:`repro.cpu.predecode`
including superblocks; ``"oracle"`` runs the original
:func:`repro.cpu.funcsim.execute` loop.  Both produce bit-identical
architectural trajectories (asserted by tests/core/test_dispatch_differential.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import align_up
from repro.cpu.arch import REG_A0, REG_A7, REG_SP, REG_TP, ArchState, TargetMemory
from repro.cpu.funcsim import NEXT, execute
from repro.cpu.predecode import (
    K_BRANCH,
    K_ECALL,
    K_HALT,
    K_JUMP,
    K_SIMPLE,
    predecode_program,
)
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.program import TEXT_BASE, Program
from repro.sysapi.syscalls import Sys

__all__ = ["FunctionalInterpreter", "InterpResult", "run_functional"]


class InterpError(RuntimeError):
    """Functional interpretation failed (unsupported syscall, runaway loop)."""


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

    def text_output(self) -> str:
        """Printable rendering of the output stream."""
        parts = []
        for v in self.output:
            parts.append(v if isinstance(v, str) else f"{v}\n" if isinstance(v, int) else f"{v:.17g}\n")
        return "".join(parts)


class FunctionalInterpreter:
    """Fetch/execute loop over a :class:`Program` with minimal syscalls."""

    def __init__(
        self,
        program: Program,
        *,
        memory_bytes: int = 16 * 1024 * 1024,
        stack_bytes: int = 1 << 20,
        dispatch: str = "predecoded",
    ) -> None:
        if dispatch not in ("predecoded", "oracle"):
            raise ValueError(f"unknown dispatch mode {dispatch!r}")
        self.dispatch = dispatch
        self.program = program
        self.mem = TargetMemory(memory_bytes)
        self.mem.write_words(TEXT_BASE, program.encoded_text())
        if program.data:
            from repro.isa.program import DATA_BASE

            self.mem.write_bytes(DATA_BASE, program.data)
        self.brk = align_up(program.data_end, 64)
        self.state = ArchState(context_id=0, pc=program.entry)
        self.state.set_x(REG_SP, memory_bytes - 64)
        self.state.set_x(REG_TP, 0)
        self.output: list = []
        self.instructions = 0
        self.exit_code: int | None = None
        self._text = program.text
        self._stack_limit = memory_bytes - stack_bytes
        # Host-side single-thread synchronization state (keyed by target
        # address).  With one thread every acquire must succeed immediately;
        # anything that would block is a guaranteed deadlock and raises.
        self._locks: dict[int, bool] = {}
        self._barriers: dict[int, int] = {}
        self._semas: dict[int, int] = {}

    def _fetch(self, pc: int) -> Instruction:
        index, rem = divmod(pc - TEXT_BASE, INSTRUCTION_BYTES)
        if rem or not 0 <= index < len(self._text):
            raise InterpError(f"PC {pc:#x} outside text segment")
        return self._text[index]

    def _syscall(self) -> int | None:
        """Handle an ecall; return the next PC (or None to fall through)."""
        state = self.state
        num = state.x[REG_A7]
        a0 = state.x[REG_A0]
        try:
            sys = Sys(num)
        except ValueError:
            raise InterpError(f"unknown syscall {num} at pc {state.pc:#x}") from None
        if sys is Sys.EXIT:
            self.exit_code = a0
            state.halted = True
            return state.pc
        if sys is Sys.PRINT_INT:
            self.output.append(a0)
        elif sys is Sys.PRINT_FLOAT:
            self.output.append(state.f[10])
        elif sys is Sys.PRINT_CHAR:
            self.output.append(chr(a0 & 0x10FFFF))
        elif sys is Sys.SBRK:
            old = self.brk
            new = align_up(old + a0, 64)
            if new >= self._stack_limit:
                raise InterpError(f"sbrk({a0}) exhausts the heap (brk {old:#x})")
            self.brk = new
            state.set_x(REG_A0, old)
        elif sys is Sys.CLOCK:
            state.set_x(REG_A0, self.instructions)
        elif sys is Sys.THREAD_ID:
            state.set_x(REG_A0, 0)
        elif sys is Sys.NUM_THREADS:
            state.set_x(REG_A0, 1)
        elif sys is Sys.LOCK_INIT:
            self._locks[a0] = False
        elif sys is Sys.LOCK_ACQ:
            if self._locks.get(a0, False):
                raise InterpError(f"re-acquiring held lock {a0:#x}: single-thread deadlock")
            self._locks[a0] = True
        elif sys is Sys.LOCK_REL:
            self._locks[a0] = False
        elif sys is Sys.BARRIER_INIT:
            self._barriers[a0] = state.x[REG_A0 + 1]
        elif sys is Sys.BARRIER_WAIT:
            if self._barriers.get(a0, 1) != 1:
                raise InterpError(
                    f"barrier {a0:#x} has {self._barriers[a0]} participants: "
                    "single-thread deadlock (use the slack engine)"
                )
        elif sys is Sys.SEMA_INIT:
            self._semas[a0] = state.x[REG_A0 + 1]
        elif sys is Sys.SEMA_WAIT:
            value = self._semas.get(a0, 0)
            if value <= 0:
                raise InterpError(f"sema_wait on empty semaphore {a0:#x}: single-thread deadlock")
            self._semas[a0] = value - 1
        elif sys is Sys.SEMA_SIGNAL:
            self._semas[a0] = self._semas.get(a0, 0) + 1
        else:
            raise InterpError(
                f"syscall {sys.name} needs the slack engine (multi-threaded emulation)"
            )
        return None

    def run(self, max_instructions: int = 50_000_000) -> InterpResult:
        """Run until ``exit``/``halt`` or the instruction budget is exhausted."""
        if self.dispatch == "predecoded":
            return self._run_predecoded(max_instructions)
        state = self.state
        mem = self.mem
        while not state.halted:
            if self.instructions >= max_instructions:
                raise InterpError(f"exceeded {max_instructions} instructions (runaway program?)")
            insn = self._fetch(state.pc)
            outcome = execute(state, insn, mem)
            self.instructions += 1
            if outcome.is_syscall:
                next_pc = self._syscall()
                state.pc = next_pc if next_pc is not None else state.pc + INSTRUCTION_BYTES
                if state.halted:
                    break
            elif outcome.is_halt:
                if self.exit_code is None:
                    self.exit_code = 0
                break
            elif outcome.next_pc is NEXT:
                state.pc += INSTRUCTION_BYTES
            else:
                state.pc = outcome.next_pc
        return InterpResult(
            exit_code=self.exit_code if self.exit_code is not None else 0,
            instructions=self.instructions,
            output=self.output,
            memory=mem,
            state=state,
        )

    def _run_predecoded(self, max_instructions: int) -> InterpResult:
        """Predecoded run loop: same trajectory as the oracle loop.

        The PC and instruction count live in locals and are written back to
        ``self.state`` / ``self.instructions`` only at syscalls, halts and
        errors — exactly the moments the oracle path makes them observable.
        Superblocks fire only when the whole run fits the remaining budget;
        otherwise the per-instruction path reproduces the oracle's raise
        point bit-for-bit.  A ``TargetFault`` on the per-instruction path
        reports the oracle's pc and count; one raised inside a superblock
        reports the block's entry (registers and memory hold the effects of
        the block's instructions before the faulting one).
        """
        pre = predecode_program(self.program)
        kinds = pre.kinds
        runs = pre.runs
        eas = pre.eas
        applies = pre.applies
        block_runs, block_lens = pre.functional_blocks()
        limit = pre.size * INSTRUCTION_BYTES
        state = self.state
        mem = self.mem
        x = state.x
        f = state.f
        count = self.instructions
        pc = state.pc
        try:
            while not state.halted:
                offset = pc - TEXT_BASE
                if offset & 7 or not 0 <= offset < limit:
                    raise InterpError(f"PC {pc:#x} outside text segment")
                i = offset >> 3
                block = block_runs[i]
                if block is not None and count + block_lens[i] <= max_instructions:
                    target = block(x, f, mem)
                    count += block_lens[i]
                    pc = target if target is not None else pc + block_lens[i] * INSTRUCTION_BYTES
                    continue
                if count >= max_instructions:
                    raise InterpError(f"exceeded {max_instructions} instructions (runaway program?)")
                kind = kinds[i]
                if kind == K_SIMPLE:
                    runs[i](x, f)
                    count += 1
                    pc += INSTRUCTION_BYTES
                elif kind == K_BRANCH:
                    target = runs[i](x, f)
                    count += 1
                    pc = target if target is not None else pc + INSTRUCTION_BYTES
                elif kind == K_JUMP:
                    pc = runs[i](x, f)
                    count += 1
                elif kind == K_ECALL:
                    count += 1
                    state.pc = pc
                    self.instructions = count
                    next_pc = self._syscall()
                    pc = next_pc if next_pc is not None else pc + INSTRUCTION_BYTES
                elif kind == K_HALT:
                    count += 1
                    state.halted = True
                    if self.exit_code is None:
                        self.exit_code = 0
                    break
                else:  # K_LOAD / K_STORE / K_AMO
                    applies[i](x, f, mem, eas[i](x))
                    count += 1
                    pc += INSTRUCTION_BYTES
        finally:
            state.pc = pc
            self.instructions = count
        return InterpResult(
            exit_code=self.exit_code if self.exit_code is not None else 0,
            instructions=self.instructions,
            output=self.output,
            memory=mem,
            state=state,
        )


def run_functional(program: Program, **kwargs) -> InterpResult:
    """Convenience wrapper: interpret *program* functionally and return the result."""
    max_instructions = kwargs.pop("max_instructions", 50_000_000)
    return FunctionalInterpreter(program, **kwargs).run(max_instructions=max_instructions)
