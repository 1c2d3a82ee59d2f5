"""Predecoded closure-dispatch execution layer (DESIGN.md §6).

:mod:`repro.cpu.funcsim` interprets each instruction from scratch on every
execution: fetch the :class:`Instruction`, index the dispatch table with its
opcode, then chase ``insn.rd`` / ``insn.rs1`` / ``insn.imm`` attributes
inside the handler.  That per-step work is pure interpretation tax — the
operands of a given text word never change.  This module pays it **once per
program**: at load time every text word is decoded into a *specialized
closure* (classic threaded code) that captures its register indices and
immediates as cell variables, so executing the instruction is a single
Python call operating directly on the register lists.

Three consumers share the layer (all keyed by ``dispatch="predecoded"``):

* the pure functional interpreter (:mod:`repro.cpu.interp`), which also uses
  *superblocks* — straight-line runs of ALU/memory instructions, optionally
  terminated by a branch or jump, compiled into one Python function (the
  operations are inlined as generated source, helpers bound as default
  arguments) so a whole loop body executes per Python call;
* the in-order timing core (:mod:`repro.cpu.inorder`);
* the out-of-order core's architectural backbone (:mod:`repro.cpu.ooo`).

The timing cores only swap the *execution* of each instruction — fetch
order, latencies, cache/memory moments and syscall handling are untouched,
so the golden digests (``tests/core/goldens/``) are bit-identical between
``dispatch="predecoded"`` and the ``dispatch="oracle"`` fallback, which
keeps :func:`repro.cpu.funcsim.execute` as the differential-testing oracle
(the same pattern as PR 1's ``stepping="single"``).

Closure calling convention: ``run(x, f)`` where *x*/*f* are the caller's
``ArchState.x`` / ``ArchState.f`` register lists (hoisted out of the hot
loop).  Register-only closures return ``None``; control-transfer closures
return the absolute target PC (or ``None`` for a not-taken branch).  Memory
instructions get an address closure ``ea(x) -> addr`` plus a functional
closure ``apply(x, f, mem, addr)``; syscalls, halts and AMOs keep their
existing oracle paths (they are rare and interact with the system layer).
"""

from __future__ import annotations

import math
import struct
from typing import Callable

from repro._util import to_signed64
from repro.cpu.funcsim import _div, _fcvt_l_d, _fsqrt, _rem
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import OPINFO, Op
from repro.isa.program import TEXT_BASE, Program

__all__ = [
    "PredecodedProgram",
    "TimingBlocks",
    "predecode_program",
    "predecode_instruction",
    "dispatch_plan",
    "timing_blocks",
    "K_SIMPLE",
    "K_BRANCH",
    "K_JUMP",
    "K_LOAD",
    "K_STORE",
    "K_AMO",
    "K_ECALL",
    "K_HALT",
    "MIN_SUPERBLOCK",
]

# Instruction kinds (dense ints so consumers can compare with ==).
K_SIMPLE = 0  # register-only, falls through:      run(x, f) -> None
K_BRANCH = 1  # conditional branch:                run(x, f) -> int | None
K_JUMP = 2    # jal/jalr, always taken:            run(x, f) -> int
K_LOAD = 3    # ld/fld:    ea(x) -> addr, apply(x, f, mem, addr)
K_STORE = 4   # sd/fsd:    ea(x) -> addr, apply(x, f, mem, addr)
K_AMO = 5     # amoswap/amoadd: ea + apply (engines use their oracle path)
K_ECALL = 6   # system layer decides; no closure
K_HALT = 7    # no closure

#: Minimum straight-line run length worth compiling into a superblock.
MIN_SUPERBLOCK = 2

_MASK = (1 << 64) - 1
_HALF = 1 << 63
_TWO64 = 1 << 64

_pack = struct.pack
_unpack = struct.unpack


def _nop_run(x, f):
    return None


# --------------------------------------------------------------------------
# Closure builders, one per opcode.  Each takes the decoded fields (plus the
# instruction's own pc for control transfers) and returns the specialized
# run closure.  Builders write ``x[rd]`` directly — the x0-hardwired-to-zero
# invariant is specialized away: writes to x0 become no-ops at build time.
# Arithmetic wraps exactly like ArchState.set_x (to_signed64): the predecoded
# state trajectory is bit-identical to the oracle's.

_BUILDERS: dict[Op, Callable] = {}


def _spec(op: Op):
    def register(build):
        _BUILDERS[op] = build
        return build

    return register


@_spec(Op.ADD)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        v = (x[rs1] + x[rs2]) & _MASK
        x[rd] = v - _TWO64 if v >= _HALF else v

    return run


@_spec(Op.SUB)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        v = (x[rs1] - x[rs2]) & _MASK
        x[rd] = v - _TWO64 if v >= _HALF else v

    return run


@_spec(Op.MUL)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        v = (x[rs1] * x[rs2]) & _MASK
        x[rd] = v - _TWO64 if v >= _HALF else v

    return run


@_spec(Op.DIV)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = _div(x[rs1], x[rs2])

    return run


@_spec(Op.REM)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = _rem(x[rs1], x[rs2])

    return run


@_spec(Op.AND)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = x[rs1] & x[rs2]

    return run


@_spec(Op.OR)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = x[rs1] | x[rs2]

    return run


@_spec(Op.XOR)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = x[rs1] ^ x[rs2]

    return run


@_spec(Op.SLL)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        v = (x[rs1] << (x[rs2] & 63)) & _MASK
        x[rd] = v - _TWO64 if v >= _HALF else v

    return run


@_spec(Op.SRL)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        v = (x[rs1] & _MASK) >> (x[rs2] & 63)
        x[rd] = v - _TWO64 if v >= _HALF else v

    return run


@_spec(Op.SRA)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = x[rs1] >> (x[rs2] & 63)

    return run


@_spec(Op.SLT)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = 1 if x[rs1] < x[rs2] else 0

    return run


@_spec(Op.SLTU)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = 1 if (x[rs1] & _MASK) < (x[rs2] & _MASK) else 0

    return run


@_spec(Op.ADDI)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        v = (x[rs1] + imm) & _MASK
        x[rd] = v - _TWO64 if v >= _HALF else v

    return run


@_spec(Op.ANDI)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = x[rs1] & imm

    return run


@_spec(Op.ORI)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = x[rs1] | imm

    return run


@_spec(Op.XORI)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = x[rs1] ^ imm

    return run


@_spec(Op.SLLI)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run
    sh = imm & 63

    def run(x, f):
        v = (x[rs1] << sh) & _MASK
        x[rd] = v - _TWO64 if v >= _HALF else v

    return run


@_spec(Op.SRLI)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run
    sh = imm & 63

    def run(x, f):
        v = (x[rs1] & _MASK) >> sh
        x[rd] = v - _TWO64 if v >= _HALF else v

    return run


@_spec(Op.SRAI)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run
    sh = imm & 63

    def run(x, f):
        x[rd] = x[rs1] >> sh

    return run


@_spec(Op.SLTI)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = 1 if x[rs1] < imm else 0

    return run


@_spec(Op.LUI)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run
    value = to_signed64(imm << 32)

    def run(x, f):
        x[rd] = value

    return run


# ------------------------------------------------------------ control flow
def _branch(op: Op, cond):
    @_spec(op)
    def _(rd, rs1, rs2, imm, pc, _cond=cond):
        target = to_signed64(pc + imm)

        def run(x, f):
            return target if _cond(x[rs1], x[rs2]) else None

        return run


_branch(Op.BEQ, lambda a, b: a == b)
_branch(Op.BNE, lambda a, b: a != b)
_branch(Op.BLT, lambda a, b: a < b)
_branch(Op.BGE, lambda a, b: a >= b)
_branch(Op.BLTU, lambda a, b: (a & _MASK) < (b & _MASK))
_branch(Op.BGEU, lambda a, b: (a & _MASK) >= (b & _MASK))


@_spec(Op.JAL)
def _(rd, rs1, rs2, imm, pc):
    target = to_signed64(pc + imm)
    link = pc + INSTRUCTION_BYTES
    if rd == 0:

        def run(x, f):
            return target

    else:

        def run(x, f):
            x[rd] = link
            return target

    return run


@_spec(Op.JALR)
def _(rd, rs1, rs2, imm, pc):
    link = pc + INSTRUCTION_BYTES
    if rd == 0:

        def run(x, f):
            v = (x[rs1] + imm) & _MASK
            return v - _TWO64 if v >= _HALF else v

    else:
        # Target is computed before the link write (oracle order: rs1 may
        # alias rd).
        def run(x, f):
            v = (x[rs1] + imm) & _MASK
            x[rd] = link
            return v - _TWO64 if v >= _HALF else v

    return run


# -------------------------------------------------------------- float ops
@_spec(Op.FADD)
def _(rd, rs1, rs2, imm, pc):
    def run(x, f):
        f[rd] = f[rs1] + f[rs2]

    return run


@_spec(Op.FSUB)
def _(rd, rs1, rs2, imm, pc):
    def run(x, f):
        f[rd] = f[rs1] - f[rs2]

    return run


@_spec(Op.FMUL)
def _(rd, rs1, rs2, imm, pc):
    def run(x, f):
        f[rd] = f[rs1] * f[rs2]

    return run


@_spec(Op.FDIV)
def _(rd, rs1, rs2, imm, pc):
    _inf, _nan, _copysign = math.inf, math.nan, math.copysign

    def run(x, f):
        a = f[rs1]
        b = f[rs2]
        if b != 0.0:
            f[rd] = a / b
        else:
            f[rd] = _copysign(_inf, a) if a != 0.0 else _nan

    return run


@_spec(Op.FMIN)
def _(rd, rs1, rs2, imm, pc):
    def run(x, f):
        f[rd] = min(f[rs1], f[rs2])

    return run


@_spec(Op.FMAX)
def _(rd, rs1, rs2, imm, pc):
    def run(x, f):
        f[rd] = max(f[rs1], f[rs2])

    return run


@_spec(Op.FSQRT)
def _(rd, rs1, rs2, imm, pc):
    def run(x, f):
        f[rd] = _fsqrt(f[rs1])

    return run


@_spec(Op.FNEG)
def _(rd, rs1, rs2, imm, pc):
    def run(x, f):
        f[rd] = -f[rs1]

    return run


@_spec(Op.FABS)
def _(rd, rs1, rs2, imm, pc):
    def run(x, f):
        f[rd] = abs(f[rs1])

    return run


@_spec(Op.FMV)
def _(rd, rs1, rs2, imm, pc):
    def run(x, f):
        f[rd] = f[rs1]

    return run


@_spec(Op.FSIN)
def _(rd, rs1, rs2, imm, pc):
    _sin = math.sin

    def run(x, f):
        f[rd] = _sin(f[rs1])

    return run


@_spec(Op.FCOS)
def _(rd, rs1, rs2, imm, pc):
    _cos = math.cos

    def run(x, f):
        f[rd] = _cos(f[rs1])

    return run


@_spec(Op.FEQ)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = 1 if f[rs1] == f[rs2] else 0

    return run


@_spec(Op.FLT)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = 1 if f[rs1] < f[rs2] else 0

    return run


@_spec(Op.FLE)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = 1 if f[rs1] <= f[rs2] else 0

    return run


@_spec(Op.FCVT_D_L)
def _(rd, rs1, rs2, imm, pc):
    def run(x, f):
        f[rd] = float(x[rs1])

    return run


@_spec(Op.FCVT_L_D)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = _fcvt_l_d(f[rs1])

    return run


@_spec(Op.FMV_D_X)
def _(rd, rs1, rs2, imm, pc):
    def run(x, f):
        f[rd] = _unpack("<d", _pack("<q", x[rs1]))[0]

    return run


@_spec(Op.FMV_X_D)
def _(rd, rs1, rs2, imm, pc):
    if rd == 0:
        return _nop_run

    def run(x, f):
        x[rd] = _unpack("<q", _pack("<d", f[rs1]))[0]

    return run


@_spec(Op.NOPOP)
def _(rd, rs1, rs2, imm, pc):
    return _nop_run


# ---------------------------------------------------------- memory closures
def _build_ea(rs1: int, imm: int):
    """Effective-address closure: to_signed64(x[rs1] + imm), specialized."""
    if imm == 0:

        def ea(x):
            return x[rs1]

    else:

        def ea(x):
            v = (x[rs1] + imm) & _MASK
            return v - _TWO64 if v >= _HALF else v

    return ea


def _build_apply(insn: Instruction):
    """Functional memory effect at a precomputed address (interp path)."""
    op, rd, rs2 = insn.op, insn.rd, insn.rs2
    if op is Op.LD:
        if rd == 0:
            # x0 load: the access (and any fault) still happens.
            def apply(x, f, mem, addr):
                mem.load_word(addr)

        else:

            def apply(x, f, mem, addr):
                x[rd] = mem.load_word(addr)

        return apply
    if op is Op.FLD:

        def apply(x, f, mem, addr):
            f[rd] = mem.load_float(addr)

        return apply
    if op is Op.SD:

        def apply(x, f, mem, addr):
            mem.store_word(addr, x[rs2])

        return apply
    if op is Op.FSD:

        def apply(x, f, mem, addr):
            mem.store_float(addr, f[rs2])

        return apply
    if op is Op.AMOSWAP:

        def apply(x, f, mem, addr):
            old = mem.load_word(addr)
            mem.store_word(addr, x[rs2])
            if rd:
                x[rd] = old

        return apply
    if op is Op.AMOADD:

        def apply(x, f, mem, addr):
            old = mem.load_word(addr)
            mem.store_word(addr, old + x[rs2])
            if rd:
                x[rd] = old

        return apply
    raise AssertionError(f"no apply closure for {op.name}")


_KIND_BY_OP: dict[Op, int] = {}
for _op_key, _info in OPINFO.items():
    if _info.is_amo:
        _KIND_BY_OP[_op_key] = K_AMO
    elif _info.is_load:
        _KIND_BY_OP[_op_key] = K_LOAD
    elif _info.is_store:
        _KIND_BY_OP[_op_key] = K_STORE
    elif _op_key in (Op.JAL, Op.JALR):
        _KIND_BY_OP[_op_key] = K_JUMP
    elif _info.is_branch:
        _KIND_BY_OP[_op_key] = K_BRANCH
    elif _op_key is Op.ECALL:
        _KIND_BY_OP[_op_key] = K_ECALL
    elif _op_key is Op.HALT:
        _KIND_BY_OP[_op_key] = K_HALT
    else:
        _KIND_BY_OP[_op_key] = K_SIMPLE


def dispatch_plan(insn: Instruction) -> tuple:
    """The out-of-order core's per-instruction dispatch plan:
    ``(kind, latency, read_slots, write_slot)``.

    Slots index the core's flat last-writer table: ``x0..x31`` are 0..31,
    ``f0..f31`` are 32..63.  ``read_slots`` lists the operands in oracle
    scan order (int reads, then float reads; duplicates preserved) without
    ``x0`` — a write to x0 is never registered, so its lookup always
    misses — and ``write_slot`` is the destination or -1.  Built once per
    program (:attr:`PredecodedProgram.plans`); ``dispatch="oracle"`` calls
    this per dispatched instruction instead.
    """
    info = insn.info
    reads = [reg for field in info.reads_int if (reg := getattr(insn, field))]
    reads += [32 + getattr(insn, field) for field in info.reads_float]
    if info.writes_float:
        write = 32 + insn.rd
    elif info.writes_int and insn.rd:
        write = insn.rd
    else:
        write = -1
    return _KIND_BY_OP[insn.op], info.latency, tuple(reads), write


def predecode_instruction(insn: Instruction, pc: int):
    """Predecode one instruction: ``(kind, run, ea, apply)``.

    ``run`` is ``None`` for memory/syscall/halt kinds; ``ea``/``apply`` are
    ``None`` for everything except memory kinds.
    """
    kind = _KIND_BY_OP[insn.op]
    if kind in (K_LOAD, K_STORE, K_AMO):
        return kind, None, _build_ea(insn.rs1, insn.imm), _build_apply(insn)
    if kind in (K_ECALL, K_HALT):
        return kind, None, None, None
    run = _BUILDERS[insn.op](insn.rd, insn.rs1, insn.rs2, insn.imm, pc)
    return kind, run, None, None


# ------------------------------------------------------- superblock codegen
#
# Superblocks serve only the functional interpreter, where every memory
# effect is immediate — so a block may contain loads/stores/AMOs alongside
# ALU work and end with one branch/jump.  Each block is compiled to Python
# source with the instruction semantics inlined (no per-instruction call),
# and non-inlinable helpers (_div, math functions, struct pack) bound as
# default arguments so they resolve as locals.  The generated function has
# signature ``block(x, f, mem) -> int | None``: the branch/jump target when
# the terminator is taken, else ``None`` (fall through past the block).
#
# Caveat: a TargetFault raised mid-block leaves ``state.pc`` and the
# instruction count at the block entry (the per-instruction paths pinpoint
# the faulting instruction); correct programs never observe the difference.

_ELIGIBLE_BODY = (K_SIMPLE, K_LOAD, K_STORE, K_AMO)
_TERMINATORS = (K_BRANCH, K_JUMP)

_BRANCH_EXPR = {
    Op.BEQ: "x[{a}] == x[{b}]",
    Op.BNE: "x[{a}] != x[{b}]",
    Op.BLT: "x[{a}] < x[{b}]",
    Op.BGE: "x[{a}] >= x[{b}]",
    Op.BLTU: "(x[{a}] & M) < (x[{b}] & M)",
    Op.BGEU: "(x[{a}] & M) >= (x[{b}] & M)",
}


def _addr_lines(a: int, imm: int, lines: list) -> str:
    """Emit the wrapped effective-address computation; return its expression."""
    if imm == 0:
        return f"x[{a}]"
    lines.append(f"v = (x[{a}] + {imm}) & M")
    lines.append("v = v - T if v >= H else v")
    return "v"


def _emit_insn(insn: Instruction, pc: int, lines: list, binds: dict) -> None:
    """Append inline source for one body instruction (mutates lines/binds)."""
    op = insn.op
    d, a, b, imm = insn.rd, insn.rs1, insn.rs2, insn.imm
    if op in (Op.ADD, Op.SUB, Op.MUL):
        if d == 0:
            return
        sym = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*"}[op]
        lines.append(f"v = (x[{a}] {sym} x[{b}]) & M")
        lines.append(f"x[{d}] = v - T if v >= H else v")
    elif op is Op.DIV:
        if d == 0:
            return
        binds["_div"] = _div
        lines.append(f"x[{d}] = _div(x[{a}], x[{b}])")
    elif op is Op.REM:
        if d == 0:
            return
        binds["_rem"] = _rem
        lines.append(f"x[{d}] = _rem(x[{a}], x[{b}])")
    elif op in (Op.AND, Op.OR, Op.XOR):
        if d == 0:
            return
        sym = {Op.AND: "&", Op.OR: "|", Op.XOR: "^"}[op]
        lines.append(f"x[{d}] = x[{a}] {sym} x[{b}]")
    elif op is Op.SLL:
        if d == 0:
            return
        lines.append(f"v = (x[{a}] << (x[{b}] & 63)) & M")
        lines.append(f"x[{d}] = v - T if v >= H else v")
    elif op is Op.SRL:
        if d == 0:
            return
        lines.append(f"v = (x[{a}] & M) >> (x[{b}] & 63)")
        lines.append(f"x[{d}] = v - T if v >= H else v")
    elif op is Op.SRA:
        if d == 0:
            return
        lines.append(f"x[{d}] = x[{a}] >> (x[{b}] & 63)")
    elif op is Op.SLT:
        if d == 0:
            return
        lines.append(f"x[{d}] = 1 if x[{a}] < x[{b}] else 0")
    elif op is Op.SLTU:
        if d == 0:
            return
        lines.append(f"x[{d}] = 1 if (x[{a}] & M) < (x[{b}] & M) else 0")
    elif op is Op.ADDI:
        if d == 0:
            return
        lines.append(f"v = (x[{a}] + {imm}) & M")
        lines.append(f"x[{d}] = v - T if v >= H else v")
    elif op in (Op.ANDI, Op.ORI, Op.XORI):
        if d == 0:
            return
        sym = {Op.ANDI: "&", Op.ORI: "|", Op.XORI: "^"}[op]
        lines.append(f"x[{d}] = x[{a}] {sym} {imm}")
    elif op is Op.SLLI:
        if d == 0:
            return
        lines.append(f"v = (x[{a}] << {imm & 63}) & M")
        lines.append(f"x[{d}] = v - T if v >= H else v")
    elif op is Op.SRLI:
        if d == 0:
            return
        lines.append(f"v = (x[{a}] & M) >> {imm & 63}")
        lines.append(f"x[{d}] = v - T if v >= H else v")
    elif op is Op.SRAI:
        if d == 0:
            return
        lines.append(f"x[{d}] = x[{a}] >> {imm & 63}")
    elif op is Op.SLTI:
        if d == 0:
            return
        lines.append(f"x[{d}] = 1 if x[{a}] < {imm} else 0")
    elif op is Op.LUI:
        if d == 0:
            return
        lines.append(f"x[{d}] = {to_signed64(imm << 32)}")
    elif op is Op.LD:
        addr = _addr_lines(a, imm, lines)
        if d == 0:
            lines.append(f"mem.load_word({addr})")
        else:
            lines.append(f"x[{d}] = mem.load_word({addr})")
    elif op is Op.FLD:
        addr = _addr_lines(a, imm, lines)
        lines.append(f"f[{d}] = mem.load_float({addr})")
    elif op is Op.SD:
        addr = _addr_lines(a, imm, lines)
        lines.append(f"mem.store_word({addr}, x[{b}])")
    elif op is Op.FSD:
        addr = _addr_lines(a, imm, lines)
        lines.append(f"mem.store_float({addr}, f[{b}])")
    elif op in (Op.AMOSWAP, Op.AMOADD):
        addr = _addr_lines(a, imm, lines)
        if addr != "v":
            lines.append(f"v = {addr}")
        lines.append("old = mem.load_word(v)")
        if op is Op.AMOSWAP:
            lines.append(f"mem.store_word(v, x[{b}])")
        else:
            lines.append(f"mem.store_word(v, old + x[{b}])")
        if d:
            lines.append(f"x[{d}] = old")
    elif op in (Op.FADD, Op.FSUB, Op.FMUL):
        sym = {Op.FADD: "+", Op.FSUB: "-", Op.FMUL: "*"}[op]
        lines.append(f"f[{d}] = f[{a}] {sym} f[{b}]")
    elif op is Op.FDIV:
        binds["_copysign"] = math.copysign
        binds["_inf"] = math.inf
        binds["_nan"] = math.nan
        lines.append(f"fa = f[{a}]")
        lines.append(f"fb = f[{b}]")
        lines.append(
            f"f[{d}] = fa / fb if fb != 0.0 else "
            "(_copysign(_inf, fa) if fa != 0.0 else _nan)"
        )
    elif op is Op.FMIN:
        binds["_min"] = min
        lines.append(f"f[{d}] = _min(f[{a}], f[{b}])")
    elif op is Op.FMAX:
        binds["_max"] = max
        lines.append(f"f[{d}] = _max(f[{a}], f[{b}])")
    elif op is Op.FSQRT:
        binds["_fsqrt"] = _fsqrt
        lines.append(f"f[{d}] = _fsqrt(f[{a}])")
    elif op is Op.FNEG:
        lines.append(f"f[{d}] = -f[{a}]")
    elif op is Op.FABS:
        binds["_abs"] = abs
        lines.append(f"f[{d}] = _abs(f[{a}])")
    elif op is Op.FMV:
        lines.append(f"f[{d}] = f[{a}]")
    elif op is Op.FSIN:
        binds["_sin"] = math.sin
        lines.append(f"f[{d}] = _sin(f[{a}])")
    elif op is Op.FCOS:
        binds["_cos"] = math.cos
        lines.append(f"f[{d}] = _cos(f[{a}])")
    elif op in (Op.FEQ, Op.FLT, Op.FLE):
        if d == 0:
            return
        sym = {Op.FEQ: "==", Op.FLT: "<", Op.FLE: "<="}[op]
        lines.append(f"x[{d}] = 1 if f[{a}] {sym} f[{b}] else 0")
    elif op is Op.FCVT_D_L:
        binds["_float"] = float
        lines.append(f"f[{d}] = _float(x[{a}])")
    elif op is Op.FCVT_L_D:
        if d == 0:
            return
        binds["_fcvt_l_d"] = _fcvt_l_d
        lines.append(f"x[{d}] = _fcvt_l_d(f[{a}])")
    elif op is Op.FMV_D_X:
        binds["_pack"] = _pack
        binds["_unpack"] = _unpack
        lines.append(f'f[{d}] = _unpack("<d", _pack("<q", x[{a}]))[0]')
    elif op is Op.FMV_X_D:
        if d == 0:
            return
        binds["_pack"] = _pack
        binds["_unpack"] = _unpack
        lines.append(f'x[{d}] = _unpack("<q", _pack("<d", f[{a}]))[0]')
    elif op is Op.NOPOP:
        return
    else:  # pragma: no cover - body eligibility filters everything else
        raise AssertionError(f"no superblock template for {op.name}")


def _emit_terminator(insn: Instruction, pc: int, lines: list) -> None:
    """Append the return statement for a block-ending branch or jump."""
    op = insn.op
    d, a = insn.rd, insn.rs1
    if op is Op.JAL:
        if d:
            lines.append(f"x[{d}] = {pc + INSTRUCTION_BYTES}")
        lines.append(f"return {to_signed64(pc + insn.imm)}")
    elif op is Op.JALR:
        if insn.imm == 0:
            lines.append(f"v = x[{a}]")
        else:
            lines.append(f"v = (x[{a}] + {insn.imm}) & M")
            lines.append("v = v - T if v >= H else v")
        if d:
            lines.append(f"x[{d}] = {pc + INSTRUCTION_BYTES}")
        lines.append("return v")
    else:
        target = to_signed64(pc + insn.imm)
        cond = _BRANCH_EXPR[op].format(a=a, b=insn.rs2)
        lines.append(f"return {target} if {cond} else None")


def _compile_block(text, start: int, body_len: int, term_idx: int | None):
    """Compile instructions ``text[start : start+body_len]`` (plus optional
    terminator at *term_idx*) into one Python function."""
    binds: dict = {"M": _MASK, "H": _HALF, "T": _TWO64}
    lines: list[str] = []
    for k in range(start, start + body_len):
        _emit_insn(text[k], TEXT_BASE + k * INSTRUCTION_BYTES, lines, binds)
    if term_idx is not None:
        _emit_terminator(text[term_idx], TEXT_BASE + term_idx * INSTRUCTION_BYTES, lines)
    else:
        lines.append("return None")
    params = ", ".join(f"{name}={name}" for name in binds)
    src = f"def _block(x, f, mem, {params}):\n    " + "\n    ".join(lines) + "\n"
    namespace = dict(binds)
    exec(src, namespace)  # noqa: S102 - source is generated from trusted tables
    return namespace["_block"]


class PredecodedProgram:
    """Per-PC closure tables for one :class:`Program`.

    All fields are parallel lists indexed by text index
    (``(pc - TEXT_BASE) >> 3``); consumers hoist them into locals.  One
    instance is shared by every core simulating the same program — closures
    are stateless between calls (all mutable state lives in the caller's
    register lists / memory).
    """

    __slots__ = (
        "program",
        "insns",
        "kinds",
        "runs",
        "eas",
        "applies",
        "latencies",
        "block_runs",
        "block_lens",
        "plans",
        "size",
    )

    def __init__(self, program: Program) -> None:
        self.program = program
        text = program.text
        n = len(text)
        self.size = n
        self.insns = text
        kinds = [0] * n
        runs: list = [None] * n
        eas: list = [None] * n
        applies: list = [None] * n
        latencies = [1] * n
        for i, insn in enumerate(text):
            pc = TEXT_BASE + i * INSTRUCTION_BYTES
            kind, run, ea, apply = predecode_instruction(insn, pc)
            kinds[i] = kind
            runs[i] = run
            eas[i] = ea
            applies[i] = apply
            latencies[i] = insn.info.latency
        self.kinds = kinds
        self.runs = runs
        self.eas = eas
        self.applies = applies
        self.latencies = latencies
        # The out-of-order core's dispatch plan, one tuple per text word.
        self.plans = [dispatch_plan(insn) for insn in text]
        self._build_superblocks(program, kinds, n)

    def _build_superblocks(self, program: Program, kinds, n: int) -> None:
        """Compile extended basic blocks at block leaders.

        Leaders are every statically-reachable block start: the entry point,
        every symbol (jalr targets are function entries), every static
        branch/jump target, and the successor of every control-transfer,
        ecall or halt.  A block covers the maximal run of ALU/memory
        instructions from its leader plus (when present) the branch/jump
        that ends it.  Dynamic control flow into a non-leader is still
        correct — the per-instruction tables always exist; it just won't
        hit a superblock.
        """
        text = program.text
        leaders = {0, (program.entry - TEXT_BASE) >> 3}
        for addr in program.symbols.values():
            idx = (addr - TEXT_BASE) >> 3
            if 0 <= idx < n and not addr & 7:
                leaders.add(idx)
        for i, insn in enumerate(text):
            kind = kinds[i]
            if kind not in _ELIGIBLE_BODY:
                leaders.add(i + 1)
            if kind == K_BRANCH or insn.op is Op.JAL:
                target = to_signed64(TEXT_BASE + i * INSTRUCTION_BYTES + insn.imm)
                idx = (target - TEXT_BASE) >> 3
                if 0 <= idx < n and not target & 7:
                    leaders.add(idx)
        block_runs: list = [None] * n
        block_lens = [0] * n
        for i in leaders:
            if not 0 <= i < n:
                continue
            j = i
            while j < n and kinds[j] in _ELIGIBLE_BODY:
                j += 1
            body_len = j - i
            term_idx = j if j < n and kinds[j] in _TERMINATORS else None
            total = body_len + (1 if term_idx is not None else 0)
            if total >= MIN_SUPERBLOCK:
                block_runs[i] = _compile_block(text, i, body_len, term_idx)
                block_lens[i] = total
        self.block_runs = block_runs
        self.block_lens = block_lens


def predecode_program(program: Program) -> PredecodedProgram:
    """Predecode *program*, memoised on the program object itself.

    The cache rides on the (frozen) Program instance so every consumer of
    the same image — all N cores of a target, plus the interpreter — shares
    one closure table, and the cache dies with the program.
    """
    cached = getattr(program, "_predecoded", None)
    if cached is not None:
        return cached
    pre = PredecodedProgram(program)
    object.__setattr__(program, "_predecoded", pre)
    return pre


# ------------------------------------------------- timing superblock codegen
#
# The funcsim superblocks above cannot serve the timing cores: a block call
# collapses its instructions into one step, which would hide the per-cycle
# boundaries the timing model observes (latencies, cache moments, InQ
# routing).  Timing superblocks lift the restriction for the one instruction
# class where no boundary is *observable*: a straight-line run of latency-1
# register-only instructions, optionally ended by a latency-1 branch or
# jump.  Each such instruction occupies exactly one cycle, commits exactly
# one instruction, touches no cache, queue, or system state, and cannot
# stall — so executing n of them as one compiled call that advances the
# clock by n is cycle-for-cycle indistinguishable from n per-instruction
# steps.  The caller (InOrderCore.advance via CoreThread.step_many) caps
# the block at the first cycle where the outside world could intervene: the
# turn budget, the window edge, and the next queued InQ event.
#
# A block function has signature ``tblock(x, f) -> next_pc`` (the length is
# static, read from the parallel ``lens`` table).  Fall-through blocks
# return the constant address past their last instruction; branch
# terminators return taken-target or fall-through.
#
# Generated module source is cached on disk in the toolchain's compile
# cache (:func:`repro.lang.compiler.cache_dir`), keyed by the encoded text,
# entry, symbols, and the toolchain fingerprint.  The cached file is *not* a
# standalone importable module — it is executed against a prepared helper
# namespace (:data:`_TIMING_NAMESPACE`) on both the hit and miss paths, so a
# disk round-trip and a fresh generation produce identical functions.

#: Bump to invalidate cached timing-block modules when the codegen changes.
_TIMING_CACHE_VERSION = 1

#: Globals every generated timing-block module is executed against.  The
#: per-function default-argument params (``_div=_div`` …) resolve here.
_TIMING_NAMESPACE = {
    "M": _MASK,
    "H": _HALF,
    "T": _TWO64,
    "_div": _div,
    "_rem": _rem,
    "_fsqrt": _fsqrt,
    "_fcvt_l_d": _fcvt_l_d,
    "_copysign": math.copysign,
    "_inf": math.inf,
    "_nan": math.nan,
    "_min": min,
    "_max": max,
    "_abs": abs,
    "_sin": math.sin,
    "_cos": math.cos,
    "_float": float,
    "_pack": _pack,
    "_unpack": _unpack,
}


class TimingBlocks:
    """Per-leader compiled timing superblocks for one :class:`Program`.

    Parallel tables indexed by text index: ``runs[i]`` is the compiled
    ``tblock(x, f) -> next_pc`` starting at *i* (``None`` when no block
    starts there), ``lens[i]`` its static cycle/commit count (0 when none).
    Stateless between calls — one instance is shared by every in-order core
    simulating the same program.
    """

    __slots__ = ("runs", "lens", "size")

    def __init__(self, runs: list, lens: list, size: int) -> None:
        self.runs = runs
        self.lens = lens
        self.size = size


def _emit_timing_terminator(insn: Instruction, pc: int, lines: list) -> None:
    """Like :func:`_emit_terminator`, but a not-taken branch returns the
    fall-through address instead of ``None`` (timing blocks always hand the
    caller an absolute next pc)."""
    op = insn.op
    d, a = insn.rd, insn.rs1
    if op is Op.JAL:
        if d:
            lines.append(f"x[{d}] = {pc + INSTRUCTION_BYTES}")
        lines.append(f"return {to_signed64(pc + insn.imm)}")
    elif op is Op.JALR:
        if insn.imm == 0:
            lines.append(f"v = x[{a}]")
        else:
            lines.append(f"v = (x[{a}] + {insn.imm}) & M")
            lines.append("v = v - T if v >= H else v")
        if d:
            lines.append(f"x[{d}] = {pc + INSTRUCTION_BYTES}")
        lines.append("return v")
    else:
        target = to_signed64(pc + insn.imm)
        cond = _BRANCH_EXPR[op].format(a=a, b=insn.rs2)
        lines.append(f"return {target} if {cond} else {pc + INSTRUCTION_BYTES}")


def _timing_source(program: Program) -> str:
    """Generate the timing-block module source for *program*.

    One function per qualifying leader plus a ``BLOCKS = {index: (fn,
    length)}`` table.  Deterministic for a given program + codegen version
    (leaders are emitted in index order), so cached files byte-compare equal
    across runs.
    """
    pre = predecode_program(program)
    text, kinds, lats = program.text, pre.kinds, pre.latencies
    n = pre.size
    leaders = {0, (program.entry - TEXT_BASE) >> 3}
    for addr in program.symbols.values():
        idx = (addr - TEXT_BASE) >> 3
        if 0 <= idx < n and not addr & 7:
            leaders.add(idx)
    for i, insn in enumerate(text):
        if kinds[i] != K_SIMPLE or lats[i] != 1:
            leaders.add(i + 1)
        if kinds[i] == K_BRANCH or insn.op is Op.JAL:
            target = to_signed64(TEXT_BASE + i * INSTRUCTION_BYTES + insn.imm)
            idx = (target - TEXT_BASE) >> 3
            if 0 <= idx < n and not target & 7:
                leaders.add(idx)
    chunks = [
        f"# timing superblocks for {program.name!r}"
        f" (codegen v{_TIMING_CACHE_VERSION}; executed against"
        " repro.cpu.predecode._TIMING_NAMESPACE)\n"
    ]
    entries = []
    for i in sorted(leaders):
        if not 0 <= i < n:
            continue
        j = i
        while j < n and kinds[j] == K_SIMPLE and lats[j] == 1:
            j += 1
        body_len = j - i
        term = j if j < n and kinds[j] in _TERMINATORS and lats[j] == 1 else None
        total = body_len + (1 if term is not None else 0)
        if total < MIN_SUPERBLOCK:
            continue
        binds: dict = {"M": _MASK, "H": _HALF, "T": _TWO64}
        lines: list[str] = []
        for k in range(i, j):
            _emit_insn(text[k], TEXT_BASE + k * INSTRUCTION_BYTES, lines, binds)
        if term is not None:
            _emit_timing_terminator(text[term], TEXT_BASE + term * INSTRUCTION_BYTES, lines)
        else:
            lines.append(f"return {TEXT_BASE + j * INSTRUCTION_BYTES}")
        params = ", ".join(f"{name}={name}" for name in binds)
        chunks.append(
            f"def _tb_{i}(x, f, {params}):\n    " + "\n    ".join(lines) + "\n"
        )
        entries.append(f"    {i}: (_tb_{i}, {total}),")
    chunks.append("BLOCKS = {\n" + "\n".join(entries) + "\n}\n")
    return "\n".join(chunks)


def _timing_cache_key(program: Program) -> str:
    """Cache key over everything the generated source depends on."""
    import hashlib
    import sys

    from repro.lang.compiler import toolchain_fingerprint

    h = hashlib.sha256()
    h.update(f"timing-blocks-v{_TIMING_CACHE_VERSION}\x00".encode())
    h.update(toolchain_fingerprint().encode())
    h.update(f"py{sys.version_info.major}.{sys.version_info.minor}\x00".encode())
    h.update(program.name.encode())
    h.update(b"\x00")
    h.update(struct.pack("<q", program.entry))
    for word in program.encoded_text():
        h.update(struct.pack("<Q", word & _MASK))
    for name, addr in sorted(program.symbols.items()):
        h.update(f"{name}={addr};".encode())
    return h.hexdigest()


def timing_blocks(program: Program) -> TimingBlocks:
    """Timing superblocks for *program*, memoised on the program object.

    The generated module source is additionally cached on disk through the
    toolchain compile cache; a hit skips the codegen pass (the ``exec`` cost
    is paid either way, so hit and miss produce identical functions).
    Caching is best-effort: an unreadable/corrupt cache entry falls back to
    fresh generation, and a disabled cache dir just skips the disk layer.
    """
    cached = getattr(program, "_timing_blocks", None)
    if cached is not None:
        return cached
    from repro.lang.compiler import cache_dir

    directory = cache_dir()
    path = None
    src = None
    if directory is not None:
        path = directory / f"tblocks_{_timing_cache_key(program)}.py"
        try:
            src = path.read_text(encoding="utf-8")
        except OSError:
            src = None
    namespace = dict(_TIMING_NAMESPACE)
    if src is not None:
        try:
            exec(compile(src, str(path), "exec"), namespace)  # noqa: S102
        except Exception:
            namespace = dict(_TIMING_NAMESPACE)
            src = None
    if src is None:
        src = _timing_source(program)
        exec(compile(src, "<timing-blocks>", "exec"), namespace)  # noqa: S102
        if path is not None:
            try:
                from repro._util import atomic_write_text

                atomic_write_text(path, src)
            except Exception:
                pass  # best-effort: read-only cache dirs never break runs
    n = len(program.text)
    runs: list = [None] * n
    lens = [0] * n
    for i, (fn, length) in namespace["BLOCKS"].items():
        runs[i] = fn
        lens[i] = length
    tb = TimingBlocks(runs, lens, n)
    object.__setattr__(program, "_timing_blocks", tb)
    return tb
