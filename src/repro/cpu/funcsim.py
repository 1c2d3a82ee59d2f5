"""Functional execution of SPISA instructions.

The timing cores (:mod:`repro.cpu.inorder`, :mod:`repro.cpu.ooo`) decide
*when* each instruction executes; this module defines *what* it does.  The
split mirrors SlackSim's modification of SimpleScalar: "register values are
fetched just before execution ... SlackSim executes each instruction when it
reaches an execution unit" (paper §2.2).  Hence the API separates address
generation (:func:`effective_address`), the functional memory touch
(:func:`do_load` / :func:`do_store` / :func:`do_amo`) and register-only
execution (:func:`execute`), so cores can place each at the correct simulated
cycle.

Arithmetic follows RISC-V-style conventions: 64-bit two's-complement wraparound,
``div/rem`` by zero produce ``-1`` / the dividend, shifts use the low 6 bits
of the shift amount, float compares with NaN are false, and ``fcvt.l.d``
truncates toward zero with saturation.
"""

from __future__ import annotations

import math
import struct

from repro._util import to_signed64, to_unsigned64
from repro.cpu.arch import ArchState, TargetMemory
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import Op

__all__ = [
    "execute",
    "effective_address",
    "do_load",
    "do_store",
    "do_amo",
    "ExecOutcome",
    "NEXT",
]

#: Sentinel meaning "fall through to pc + 8".
NEXT = -1

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class ExecOutcome:
    """Result flags of register-only execution."""

    __slots__ = ("next_pc", "is_syscall", "is_halt", "taken")

    def __init__(self, next_pc: int, *, is_syscall: bool = False, is_halt: bool = False, taken: bool = False) -> None:
        self.next_pc = next_pc
        self.is_syscall = is_syscall
        self.is_halt = is_halt
        self.taken = taken


def effective_address(state: ArchState, insn: Instruction) -> int:
    """Address generation for loads, stores and AMOs (``rs1 + imm``)."""
    return to_signed64(state.x[insn.rs1] + insn.imm)


def do_load(state: ArchState, insn: Instruction, mem: TargetMemory, addr: int) -> None:
    """Apply the functional effect of a load at the current simulated moment."""
    if insn.op is Op.LD:
        state.set_x(insn.rd, mem.load_word(addr))
    elif insn.op is Op.FLD:
        state.f[insn.rd] = mem.load_float(addr)
    else:
        raise AssertionError(f"do_load on non-load {insn.op.name}")


def do_store(state: ArchState, insn: Instruction, mem: TargetMemory, addr: int) -> None:
    """Apply the functional effect of a store."""
    if insn.op is Op.SD:
        mem.store_word(addr, state.x[insn.rs2])
    elif insn.op is Op.FSD:
        mem.store_float(addr, state.f[insn.rs2])
    else:
        raise AssertionError(f"do_store on non-store {insn.op.name}")


def do_amo(state: ArchState, insn: Instruction, mem: TargetMemory, addr: int) -> None:
    """Atomic read-modify-write: old value to ``rd``, new value to memory.

    Atomicity holds by construction in the sequential engine and is enforced
    by the emulation-layer lock in the real-thread test harness.
    """
    old = mem.load_word(addr)
    if insn.op is Op.AMOSWAP:
        new = state.x[insn.rs2]
    elif insn.op is Op.AMOADD:
        new = to_signed64(old + state.x[insn.rs2])
    else:
        raise AssertionError(f"do_amo on non-AMO {insn.op.name}")
    mem.store_word(addr, new)
    state.set_x(insn.rd, old)


def _fsqrt(v: float) -> float:
    return math.sqrt(v) if v >= 0.0 else math.nan


# IEEE 754: sin/cos of an infinity is an invalid operation -> NaN (the host's
# ``math.sin`` raises instead, which would take the simulator down).
def _fsin(v: float) -> float:
    return math.nan if math.isinf(v) else math.sin(v)


def _fcos(v: float) -> float:
    return math.nan if math.isinf(v) else math.cos(v)


def _fcvt_l_d(v: float) -> int:
    if math.isnan(v):
        return 0
    if v >= _INT64_MAX:
        return _INT64_MAX
    if v <= _INT64_MIN:
        return _INT64_MIN
    return int(v)


def _div(a: int, b: int) -> int:
    if b == 0:
        return -1
    # C-style truncation toward zero.
    q = abs(a) // abs(b)
    return to_signed64(-q if (a < 0) != (b < 0) else q)


def _rem(a: int, b: int) -> int:
    if b == 0:
        return a
    r = abs(a) % abs(b)
    return to_signed64(-r if a < 0 else r)


#: Shared fall-through outcome: callers only read ExecOutcome fields, so all
#: non-branch instructions can return one preallocated instance.
_FALLTHROUGH = ExecOutcome(NEXT)

# Register-only semantics as an opcode-indexed dispatch table: handlers take
# (state, insn, mem) and return an ExecOutcome (or None for fall-through).
# ``execute`` indexes the table with int(op), replacing the former ~50-way
# if/elif chain with one list lookup per instruction.
_DISPATCH: list = [None] * 256


def _op(opcode: Op):
    def register(fn):
        _DISPATCH[int(opcode)] = fn
        return fn

    return register


def _branch(opcode: Op, cond):
    def handler(state, insn, mem, _cond=cond):
        if _cond(state.x[insn.rs1], state.x[insn.rs2]):
            return ExecOutcome(to_signed64(state.pc + insn.imm), taken=True)
        return None

    _DISPATCH[int(opcode)] = handler


def _need_mem(mem: TargetMemory | None) -> TargetMemory:
    if mem is None:
        raise ValueError("memory instruction executed without a TargetMemory")
    return mem


@_op(Op.ADD)
def _(state, insn, mem):
    state.set_x(insn.rd, state.x[insn.rs1] + state.x[insn.rs2])


@_op(Op.SUB)
def _(state, insn, mem):
    state.set_x(insn.rd, state.x[insn.rs1] - state.x[insn.rs2])


@_op(Op.MUL)
def _(state, insn, mem):
    state.set_x(insn.rd, state.x[insn.rs1] * state.x[insn.rs2])


@_op(Op.DIV)
def _(state, insn, mem):
    state.set_x(insn.rd, _div(state.x[insn.rs1], state.x[insn.rs2]))


@_op(Op.REM)
def _(state, insn, mem):
    state.set_x(insn.rd, _rem(state.x[insn.rs1], state.x[insn.rs2]))


@_op(Op.AND)
def _(state, insn, mem):
    state.set_x(insn.rd, state.x[insn.rs1] & state.x[insn.rs2])


@_op(Op.OR)
def _(state, insn, mem):
    state.set_x(insn.rd, state.x[insn.rs1] | state.x[insn.rs2])


@_op(Op.XOR)
def _(state, insn, mem):
    state.set_x(insn.rd, state.x[insn.rs1] ^ state.x[insn.rs2])


@_op(Op.SLL)
def _(state, insn, mem):
    state.set_x(insn.rd, state.x[insn.rs1] << (state.x[insn.rs2] & 63))


@_op(Op.SRL)
def _(state, insn, mem):
    state.set_x(insn.rd, to_unsigned64(state.x[insn.rs1]) >> (state.x[insn.rs2] & 63))


@_op(Op.SRA)
def _(state, insn, mem):
    state.set_x(insn.rd, state.x[insn.rs1] >> (state.x[insn.rs2] & 63))


@_op(Op.SLT)
def _(state, insn, mem):
    state.set_x(insn.rd, int(state.x[insn.rs1] < state.x[insn.rs2]))


@_op(Op.SLTU)
def _(state, insn, mem):
    state.set_x(insn.rd, int(to_unsigned64(state.x[insn.rs1]) < to_unsigned64(state.x[insn.rs2])))


@_op(Op.ADDI)
def _(state, insn, mem):
    state.set_x(insn.rd, state.x[insn.rs1] + insn.imm)


@_op(Op.ANDI)
def _(state, insn, mem):
    state.set_x(insn.rd, state.x[insn.rs1] & insn.imm)


@_op(Op.ORI)
def _(state, insn, mem):
    state.set_x(insn.rd, state.x[insn.rs1] | insn.imm)


@_op(Op.XORI)
def _(state, insn, mem):
    state.set_x(insn.rd, state.x[insn.rs1] ^ insn.imm)


@_op(Op.SLLI)
def _(state, insn, mem):
    state.set_x(insn.rd, state.x[insn.rs1] << (insn.imm & 63))


@_op(Op.SRLI)
def _(state, insn, mem):
    state.set_x(insn.rd, to_unsigned64(state.x[insn.rs1]) >> (insn.imm & 63))


@_op(Op.SRAI)
def _(state, insn, mem):
    state.set_x(insn.rd, state.x[insn.rs1] >> (insn.imm & 63))


@_op(Op.SLTI)
def _(state, insn, mem):
    state.set_x(insn.rd, int(state.x[insn.rs1] < insn.imm))


@_op(Op.LUI)
def _(state, insn, mem):
    state.set_x(insn.rd, insn.imm << 32)


@_op(Op.LD)
@_op(Op.FLD)
def _(state, insn, mem):
    do_load(state, insn, _need_mem(mem), effective_address(state, insn))


@_op(Op.SD)
@_op(Op.FSD)
def _(state, insn, mem):
    do_store(state, insn, _need_mem(mem), effective_address(state, insn))


@_op(Op.AMOSWAP)
@_op(Op.AMOADD)
def _(state, insn, mem):
    do_amo(state, insn, _need_mem(mem), effective_address(state, insn))


_branch(Op.BEQ, lambda a, b: a == b)
_branch(Op.BNE, lambda a, b: a != b)
_branch(Op.BLT, lambda a, b: a < b)
_branch(Op.BGE, lambda a, b: a >= b)
_branch(Op.BLTU, lambda a, b: to_unsigned64(a) < to_unsigned64(b))
_branch(Op.BGEU, lambda a, b: to_unsigned64(a) >= to_unsigned64(b))


@_op(Op.JAL)
def _(state, insn, mem):
    state.set_x(insn.rd, state.pc + INSTRUCTION_BYTES)
    return ExecOutcome(to_signed64(state.pc + insn.imm), taken=True)


@_op(Op.JALR)
def _(state, insn, mem):
    target = to_signed64(state.x[insn.rs1] + insn.imm)
    state.set_x(insn.rd, state.pc + INSTRUCTION_BYTES)
    return ExecOutcome(target, taken=True)


@_op(Op.FADD)
def _(state, insn, mem):
    state.f[insn.rd] = state.f[insn.rs1] + state.f[insn.rs2]


@_op(Op.FSUB)
def _(state, insn, mem):
    state.f[insn.rd] = state.f[insn.rs1] - state.f[insn.rs2]


@_op(Op.FMUL)
def _(state, insn, mem):
    state.f[insn.rd] = state.f[insn.rs1] * state.f[insn.rs2]


@_op(Op.FDIV)
def _(state, insn, mem):
    a, b = state.f[insn.rs1], state.f[insn.rs2]
    if b != 0.0:
        state.f[insn.rd] = a / b
    else:
        state.f[insn.rd] = math.copysign(math.inf, a) if a != 0.0 else math.nan


@_op(Op.FMIN)
def _(state, insn, mem):
    state.f[insn.rd] = min(state.f[insn.rs1], state.f[insn.rs2])


@_op(Op.FMAX)
def _(state, insn, mem):
    state.f[insn.rd] = max(state.f[insn.rs1], state.f[insn.rs2])


@_op(Op.FSQRT)
def _(state, insn, mem):
    state.f[insn.rd] = _fsqrt(state.f[insn.rs1])


@_op(Op.FNEG)
def _(state, insn, mem):
    state.f[insn.rd] = -state.f[insn.rs1]


@_op(Op.FABS)
def _(state, insn, mem):
    state.f[insn.rd] = abs(state.f[insn.rs1])


@_op(Op.FMV)
def _(state, insn, mem):
    state.f[insn.rd] = state.f[insn.rs1]


@_op(Op.FSIN)
def _(state, insn, mem):
    state.f[insn.rd] = _fsin(state.f[insn.rs1])


@_op(Op.FCOS)
def _(state, insn, mem):
    state.f[insn.rd] = _fcos(state.f[insn.rs1])


@_op(Op.FEQ)
def _(state, insn, mem):
    state.set_x(insn.rd, int(state.f[insn.rs1] == state.f[insn.rs2]))


@_op(Op.FLT)
def _(state, insn, mem):
    state.set_x(insn.rd, int(state.f[insn.rs1] < state.f[insn.rs2]))


@_op(Op.FLE)
def _(state, insn, mem):
    state.set_x(insn.rd, int(state.f[insn.rs1] <= state.f[insn.rs2]))


@_op(Op.FCVT_D_L)
def _(state, insn, mem):
    state.f[insn.rd] = float(state.x[insn.rs1])


@_op(Op.FCVT_L_D)
def _(state, insn, mem):
    state.set_x(insn.rd, _fcvt_l_d(state.f[insn.rs1]))


@_op(Op.FMV_D_X)
def _(state, insn, mem):
    state.f[insn.rd] = struct.unpack("<d", struct.pack("<q", state.x[insn.rs1]))[0]


@_op(Op.FMV_X_D)
def _(state, insn, mem):
    state.set_x(insn.rd, struct.unpack("<q", struct.pack("<d", state.f[insn.rs1]))[0])


@_op(Op.ECALL)
def _(state, insn, mem):
    return ExecOutcome(state.pc, is_syscall=True)


@_op(Op.HALT)
def _(state, insn, mem):
    state.halted = True
    return ExecOutcome(state.pc, is_halt=True)


@_op(Op.NOPOP)
def _(state, insn, mem):
    return None


def execute(
    state: ArchState,
    insn: Instruction,
    mem: TargetMemory | None = None,
) -> ExecOutcome:
    """Execute the register-visible semantics of *insn*.

    Memory instructions must go through :func:`effective_address` plus
    :func:`do_load`/:func:`do_store`/:func:`do_amo` instead; passing one here
    with *mem* applies address generation *and* the memory effect immediately
    (convenience path for the pure functional interpreter and tests).

    Returns an :class:`ExecOutcome`; ``next_pc == NEXT`` means fall-through.
    Syscalls (``ecall``) do not advance the PC themselves — the system layer
    decides (it may re-execute, e.g. for a blocking lock).
    """
    handler = _DISPATCH[insn.op]
    if handler is None:  # pragma: no cover - exhaustive over Op
        raise AssertionError(f"unhandled opcode {insn.op.name}")
    outcome = handler(state, insn, mem)
    return outcome if outcome is not None else _FALLTHROUGH
