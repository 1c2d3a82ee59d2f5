"""Predecoded execution layer (DESIGN.md §6).

:mod:`repro.cpu.funcsim` interprets each instruction from scratch on every
execution: fetch the :class:`Instruction`, index the dispatch table with its
opcode, then chase ``insn.rd`` / ``insn.rs1`` / ``insn.imm`` attributes
inside the handler.  That per-step work is pure interpretation tax — the
operands of a given text word never change.  This module pays it **once per
program**: every text word is rendered through its opcode's *source
template* (:data:`_TEMPLATES`, the one statement of predecoded semantics)
with register indices and immediates as literals, and the rendered source is
compiled into one Python function per text word — the per-PC tables the
in-order core (:mod:`repro.cpu.inorder`) and the out-of-order core
(:mod:`repro.cpu.ooo`) index by text position.

The timing cores only swap the *execution* of each instruction — fetch
order, latencies, cache/memory moments and syscall handling are untouched,
so the golden digests (``tests/core/goldens/``) are bit-identical between
``dispatch="predecoded"`` and the ``dispatch="oracle"`` fallback, which
keeps :func:`repro.cpu.funcsim.execute` as the differential-testing oracle
(``tests/cpu/test_predecode.py`` compares every template with it).

Calling convention: ``run(x, f)`` where *x*/*f* are the caller's
``ArchState.x`` / ``ArchState.f`` register lists (hoisted out of the hot
loop).  Register-only functions return ``None``; control transfers return
the absolute target PC (or ``None`` for a not-taken branch).  Memory
instructions get an address function ``ea(x) -> addr`` plus a functional
effect ``apply(x, f, mem, addr)``; syscalls and halts have no function (the
system layer decides).
"""

from __future__ import annotations

import math
import struct

from repro._util import to_signed64
from repro.cpu.funcsim import _div, _fcos, _fcvt_l_d, _fsin, _fsqrt, _rem
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import OPINFO, Op
from repro.isa.program import TEXT_BASE, Program

__all__ = [
    "PredecodedProgram",
    "predecode_program",
    "predecode_instruction",
    "dispatch_plan",
    "K_SIMPLE",
    "K_BRANCH",
    "K_JUMP",
    "K_LOAD",
    "K_STORE",
    "K_AMO",
    "K_ECALL",
    "K_HALT",
]

# Instruction kinds (dense ints so consumers can compare with ==).
K_SIMPLE = 0  # register-only, falls through:      run(x, f) -> None
K_BRANCH = 1  # conditional branch:                run(x, f) -> int | None
K_JUMP = 2    # jal/jalr, always taken:            run(x, f) -> int
K_LOAD = 3    # ld/fld:    ea(x) -> addr, apply(x, f, mem, addr)
K_STORE = 4   # sd/fsd:    ea(x) -> addr, apply(x, f, mem, addr)
K_AMO = 5     # amoswap/amoadd: ea + apply (engines use their oracle path)
K_ECALL = 6   # system layer decides; no function
K_HALT = 7    # no function

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


# ------------------------------------------------------- semantics templates
#
# One source line per opcode, rendered by :func:`_emit_insn` with the
# instruction's fields: ``{d}``/``{a}``/``{b}`` are rd/rs1/rs2, ``{imm}`` the
# immediate, ``{sh}`` its low six bits, ``{hi}`` the ``lui`` value and
# ``{addr}`` a memory instruction's address expression.  Arithmetic wraps
# exactly like ``ArchState.set_x`` (``to_signed64``), so the predecoded state
# trajectory is bit-identical to the oracle's.  The upper-case names and the
# ``_helpers`` resolve in :data:`_GLOBALS`.  Adding an opcode is
# ``isa/opcodes.py``, one ``funcsim`` handler and one line here.

_WRAP = "; x[{d}] = v - T if v >= H else v"

_TEMPLATES: dict[Op, str] = {
    Op.ADD: "v = (x[{a}] + x[{b}]) & M" + _WRAP,
    Op.SUB: "v = (x[{a}] - x[{b}]) & M" + _WRAP,
    Op.MUL: "v = (x[{a}] * x[{b}]) & M" + _WRAP,
    Op.DIV: "x[{d}] = _div(x[{a}], x[{b}])",
    Op.REM: "x[{d}] = _rem(x[{a}], x[{b}])",
    Op.AND: "x[{d}] = x[{a}] & x[{b}]",
    Op.OR: "x[{d}] = x[{a}] | x[{b}]",
    Op.XOR: "x[{d}] = x[{a}] ^ x[{b}]",
    Op.SLL: "v = (x[{a}] << (x[{b}] & 63)) & M" + _WRAP,
    Op.SRL: "v = (x[{a}] & M) >> (x[{b}] & 63)" + _WRAP,
    Op.SRA: "x[{d}] = x[{a}] >> (x[{b}] & 63)",
    Op.SLT: "x[{d}] = 1 if x[{a}] < x[{b}] else 0",
    Op.SLTU: "x[{d}] = 1 if (x[{a}] & M) < (x[{b}] & M) else 0",
    Op.ADDI: "v = (x[{a}] + {imm}) & M" + _WRAP,
    Op.ANDI: "x[{d}] = x[{a}] & {imm}",
    Op.ORI: "x[{d}] = x[{a}] | {imm}",
    Op.XORI: "x[{d}] = x[{a}] ^ {imm}",
    Op.SLLI: "v = (x[{a}] << {sh}) & M" + _WRAP,
    Op.SRLI: "v = (x[{a}] & M) >> {sh}" + _WRAP,
    Op.SRAI: "x[{d}] = x[{a}] >> {sh}",
    Op.SLTI: "x[{d}] = 1 if x[{a}] < {imm} else 0",
    Op.LUI: "x[{d}] = {hi}",
    Op.LD: "x[{d}] = mem.load_word({addr})",
    Op.FLD: "f[{d}] = mem.load_float({addr})",
    Op.SD: "mem.store_word({addr}, x[{b}])",
    Op.FSD: "mem.store_float({addr}, f[{b}])",
    Op.AMOSWAP: "old = mem.load_word({addr}); mem.store_word({addr}, x[{b}]); x[{d}] = old",
    Op.AMOADD: "old = mem.load_word({addr}); mem.store_word({addr}, old + x[{b}]); x[{d}] = old",
    Op.FADD: "f[{d}] = f[{a}] + f[{b}]",
    Op.FSUB: "f[{d}] = f[{a}] - f[{b}]",
    Op.FMUL: "f[{d}] = f[{a}] * f[{b}]",
    Op.FDIV: (
        "fa = f[{a}]; fb = f[{b}]; "
        "f[{d}] = fa / fb if fb != 0.0 else (_copysign(_inf, fa) if fa != 0.0 else _nan)"
    ),
    Op.FMIN: "f[{d}] = _min(f[{a}], f[{b}])",
    Op.FMAX: "f[{d}] = _max(f[{a}], f[{b}])",
    Op.FSQRT: "f[{d}] = _fsqrt(f[{a}])",
    Op.FNEG: "f[{d}] = -f[{a}]",
    Op.FABS: "f[{d}] = _abs(f[{a}])",
    Op.FMV: "f[{d}] = f[{a}]",
    Op.FSIN: "f[{d}] = _sin(f[{a}])",
    Op.FCOS: "f[{d}] = _cos(f[{a}])",
    Op.FEQ: "x[{d}] = 1 if f[{a}] == f[{b}] else 0",
    Op.FLT: "x[{d}] = 1 if f[{a}] < f[{b}] else 0",
    Op.FLE: "x[{d}] = 1 if f[{a}] <= f[{b}] else 0",
    Op.FCVT_D_L: "f[{d}] = _float(x[{a}])",
    Op.FCVT_L_D: "x[{d}] = _fcvt_l_d(f[{a}])",
    Op.FMV_D_X: 'f[{d}] = _unpack("<d", _pack("<q", x[{a}]))[0]',
    Op.FMV_X_D: 'x[{d}] = _unpack("<q", _pack("<d", f[{a}]))[0]',
    Op.NOPOP: "pass",
}

_BRANCH_EXPR = {
    Op.BEQ: "x[{a}] == x[{b}]",
    Op.BNE: "x[{a}] != x[{b}]",
    Op.BLT: "x[{a}] < x[{b}]",
    Op.BGE: "x[{a}] >= x[{b}]",
    Op.BLTU: "(x[{a}] & M) < (x[{b}] & M)",
    Op.BGEU: "(x[{a}] & M) >= (x[{b}] & M)",
}

#: Globals of every generated function.
_GLOBALS = {
    "M": (1 << 64) - 1,
    "H": 1 << 63,
    "T": 1 << 64,
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
    "_sin": _fsin,
    "_cos": _fcos,
    "_float": float,
    "_pack": struct.pack,
    "_unpack": struct.unpack,
}


def _addr_lines(a: int, imm: int, lines: list) -> str:
    """Emit the wrapped effective-address computation; return its expression."""
    if imm == 0:
        return f"x[{a}]"
    lines.append(f"v = (x[{a}] + {imm}) & M; v = v - T if v >= H else v")
    return "v"


def _emit_insn(insn: Instruction, lines: list, addr: str | None = None) -> None:
    """Append the rendered template of one register-only or memory
    instruction to *lines*; *addr* is the address expression a memory
    instruction's effect uses."""
    template = _TEMPLATES[insn.op]
    if insn.rd == 0 and insn.info.writes_int:
        if not insn.is_mem:
            return  # x0 is hardwired to zero: nothing to execute
        # An x0 load or AMO: the access (and any fault) still happens.
        template = template.replace("x[{d}] = ", "")
    lines.append(
        template.format(
            d=insn.rd, a=insn.rs1, b=insn.rs2, imm=insn.imm, addr=addr,
            sh=insn.imm & 63, hi=to_signed64(insn.imm << 32),
        )
    )


def _emit_terminator(insn: Instruction, pc: int, lines: list) -> None:
    """Append the return statement of the branch or jump at *pc*; a not-taken
    branch returns ``None``."""
    op, d = insn.op, insn.rd
    if op is Op.JAL:
        if d:
            lines.append(f"x[{d}] = {pc + INSTRUCTION_BYTES}")
        lines.append(f"return {to_signed64(pc + insn.imm)}")
    elif op is Op.JALR:
        # The target is computed before the link write: rs1 may alias rd.
        target = _addr_lines(insn.rs1, insn.imm, lines)
        if d:
            if target != "v":
                lines.append(f"v = {target}")
                target = "v"
            lines.append(f"x[{d}] = {pc + INSTRUCTION_BYTES}")
        lines.append(f"return {target}")
    else:
        cond = _BRANCH_EXPR[op].format(a=insn.rs1, b=insn.rs2)
        lines.append(f"return {to_signed64(pc + insn.imm)} if {cond} else None")


def _def(params: str, lines: list) -> str:
    """Source of one function, from its parameter list on."""
    return f"({params}):\n " + "\n ".join(lines) + "\n"


def _compile(defs: list) -> list:
    """Compile :func:`_def` sources into functions, entry for entry (``None``
    stays ``None``).  Identical sources — the same instruction at two text
    positions — share one function.  The file name outlived the timing
    superblocks it was named for: the benchmark's tracer attributes code
    compiled under it to this module, so it stays.
    """
    names: dict = {}
    for source in defs:
        if source is not None and source not in names:
            names[source] = f"fn{len(names)}"
    module = "".join(f"def {name}{source}" for source, name in names.items())
    functions: dict = {}
    exec(compile(module, "<timing-blocks>", "exec"), _GLOBALS, functions)  # noqa: S102
    return [None if source is None else functions[names[source]] for source in defs]


def _pc_defs(insn: Instruction, pc: int) -> tuple:
    """``(kind, run, ea, apply)`` of one text word, the functions as
    :func:`_def` sources (``None`` where the kind has none)."""
    kind = _KIND_BY_OP[insn.op]
    lines: list = []
    if kind == K_SIMPLE:
        _emit_insn(insn, lines)
        return kind, _def("x, f", lines or ["pass"]), None, None
    if kind <= K_JUMP:
        _emit_terminator(insn, pc, lines)
        return kind, _def("x, f", lines), None, None
    if kind <= K_AMO:
        addr = _addr_lines(insn.rs1, insn.imm, lines)
        effect: list = []
        _emit_insn(insn, effect, "addr")
        return kind, None, _def("x", [*lines, f"return {addr}"]), _def("x, f, mem, addr", effect)
    return kind, None, None, None


def predecode_instruction(insn: Instruction, pc: int):
    """Predecode one instruction: ``(kind, run, ea, apply)``.

    ``run`` is ``None`` for memory/syscall/halt kinds; ``ea``/``apply`` are
    ``None`` for everything except memory kinds.
    """
    kind, *defs = _pc_defs(insn, pc)
    return (kind, *_compile(defs))


class PredecodedProgram:
    """Per-PC function tables for one :class:`Program`.

    All fields are parallel lists indexed by text index
    (``(pc - TEXT_BASE) >> 3``); consumers hoist them into locals.  One
    instance is shared by every core simulating the same program — the
    functions are stateless between calls (all mutable state lives in the
    caller's register lists / memory).
    """

    __slots__ = ("kinds", "runs", "eas", "applies", "latencies", "plans")

    def __init__(self, program: Program) -> None:
        text = program.text
        rows = [_pc_defs(insn, TEXT_BASE + i * INSTRUCTION_BYTES) for i, insn in enumerate(text)]
        self.kinds = [row[0] for row in rows]
        functions = _compile([source for row in rows for source in row[1:]])
        self.runs, self.eas, self.applies = functions[0::3], functions[1::3], functions[2::3]
        self.latencies = [insn.info.latency for insn in text]
        # The out-of-order core's dispatch plan, one tuple per text word.
        self.plans = [dispatch_plan(insn) for insn in text]


def predecode_program(program: Program) -> PredecodedProgram:
    """Predecode *program*, memoised on the program object itself.

    The cache rides on the (frozen) Program instance so every core
    simulating the same image shares one function table, and the cache
    dies with the program.
    """
    cached = getattr(program, "_predecoded", None)
    if cached is not None:
        return cached
    pre = PredecodedProgram(program)
    object.__setattr__(program, "_predecoded", pre)
    return pre
