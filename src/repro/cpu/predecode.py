"""Predecoded execution layer (DESIGN.md §6).

:mod:`repro.cpu.funcsim` interprets each instruction from scratch on every
execution: fetch the :class:`Instruction`, index the dispatch table with its
opcode, then chase ``insn.rd`` / ``insn.rs1`` / ``insn.imm`` attributes
inside the handler.  That per-step work is pure interpretation tax — the
operands of a given text word never change.  This module pays it **once per
program**: every text word is rendered through its opcode's *source
template* (:data:`_TEMPLATES`, the one statement of predecoded semantics)
with register indices and immediates as literals, and the rendered source is
compiled into Python functions.  Three forms come from the same templates:

* **per-PC functions** — one instruction each, the tables the in-order core
  (:mod:`repro.cpu.inorder`), the out-of-order core (:mod:`repro.cpu.ooo`)
  and the functional interpreter (:mod:`repro.cpu.interp`) index by text
  position;
* **functional superblocks** — straight-line runs of ALU/memory instructions,
  optionally ended by a branch or jump, one function per run, so the
  interpreter executes a whole loop body per Python call (built on its first
  use: timing runs never call them);
* **timing superblocks** — the same, restricted to latency-1 register-only
  instructions, for the in-order core's ``advance()``.

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
K_ECALL = 6   # system layer decides; no function
K_HALT = 7    # no function

#: Minimum straight-line run length worth compiling into a superblock.
MIN_SUPERBLOCK = 2

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
# ``_helpers`` resolve in :data:`_TIMING_NAMESPACE`.  Adding an opcode is
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
_TIMING_NAMESPACE = {
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
    """Append the rendered template of one body instruction to *lines*.

    *addr* is the address expression a memory instruction's effect uses; left
    out, the effective-address computation is emitted in front of the effect.
    """
    template = _TEMPLATES[insn.op]
    if insn.rd == 0 and insn.info.writes_int:
        if not insn.is_mem:
            return  # x0 is hardwired to zero: nothing to execute
        # An x0 load or AMO: the access (and any fault) still happens.
        template = template.replace("x[{d}] = ", "")
    if insn.is_mem and addr is None:
        addr = _addr_lines(insn.rs1, insn.imm, lines)
    lines.append(
        template.format(
            d=insn.rd, a=insn.rs1, b=insn.rs2, imm=insn.imm, addr=addr,
            sh=insn.imm & 63, hi=to_signed64(insn.imm << 32),
        )
    )


def _emit_terminator(insn: Instruction, pc: int, lines: list, fallthrough: int | None) -> None:
    """Append the return statement of the branch or jump at *pc*; a not-taken
    branch returns *fallthrough* (``None`` for per-PC functions and
    functional blocks, the next pc for timing blocks)."""
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
        lines.append(f"return {to_signed64(pc + insn.imm)} if {cond} else {fallthrough}")


def _def(params: str, lines: list) -> str:
    """Source of one function, from its parameter list on."""
    return f"({params}):\n " + "\n ".join(lines) + "\n"


def _compile(defs: list) -> list:
    """Compile :func:`_def` sources into functions, entry for entry (``None``
    stays ``None``).  Identical sources — the same instruction at two text
    positions — share one function.  The file name is what the benchmark's
    tracer attributes to this module.
    """
    names: dict = {}
    for source in defs:
        if source is not None and source not in names:
            names[source] = f"fn{len(names)}"
    module = "".join(f"def {name}{source}" for source, name in names.items())
    functions: dict = {}
    exec(compile(module, "<timing-blocks>", "exec"), _TIMING_NAMESPACE, functions)  # noqa: S102
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
        _emit_terminator(insn, pc, lines, None)
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


# --------------------------------------------------------------- superblocks
#
# A superblock is a straight-line run of instructions from a block leader,
# plus the branch or jump that ends it when there is one, compiled into one
# function with the templates inlined (no per-instruction call); the parallel
# ``lens`` table holds its static instruction count.
#
# *Functional* blocks serve only the interpreter, where every memory effect
# is immediate — so the body may hold loads/stores/AMOs alongside ALU work.
# Signature ``block(x, f, mem) -> int | None``: the target when the
# terminator is taken, else ``None`` (fall through past the block).
#
# *Timing* blocks serve the in-order core, where a block call collapses its
# instructions into one step and would hide the per-cycle boundaries the
# timing model observes (latencies, cache moments, InQ routing).  They hold
# the one instruction class where no boundary is *observable*: latency-1
# register-only instructions, optionally ended by a latency-1 branch or
# jump.  Each occupies exactly one cycle, commits exactly one instruction,
# touches no cache, queue, or system state, and cannot stall — so executing
# n of them as one call that advances the clock by n is cycle-for-cycle
# indistinguishable from n per-instruction steps.  The caller
# (``InOrderCore.advance``) caps the block at the first cycle where the
# outside world could intervene: the turn budget, the window edge, and the
# next queued InQ event.  Signature ``tblock(x, f) -> next_pc``, always an
# absolute address.

_ELIGIBLE_BODY = (K_SIMPLE, K_LOAD, K_STORE, K_AMO)
_TERMINATORS = (K_BRANCH, K_JUMP)


def _build_blocks(pre: PredecodedProgram, timing: bool) -> tuple[list, list]:
    """Compile the superblocks of a program: ``(runs, lens)`` by text index.

    Leaders are every statically-reachable block start: the entry point,
    every symbol (jalr targets are function entries), every static
    branch/jump target, and the successor of every instruction a block body
    cannot hold.  Dynamic control flow into a non-leader is still correct —
    the per-instruction tables always exist; it just won't hit a superblock.
    """
    program = pre.program
    text, kinds, n = program.text, pre.kinds, pre.size
    if timing:
        body = [k == K_SIMPLE and lat == 1 for k, lat in zip(kinds, pre.latencies)]
        term = [k in _TERMINATORS and lat == 1 for k, lat in zip(kinds, pre.latencies)]
    else:
        body = [k in _ELIGIBLE_BODY for k in kinds]
        term = [k in _TERMINATORS for k in kinds]
    body.append(False)  # sentinels: a run ends at the end of the text
    term.append(False)
    leaders = {0, (program.entry - TEXT_BASE) >> 3}
    leaders.update((addr - TEXT_BASE) >> 3 for addr in program.symbols.values() if not addr & 7)
    for i, insn in enumerate(text):
        if not body[i]:
            leaders.add(i + 1)
        if kinds[i] == K_BRANCH or insn.op is Op.JAL:
            target = TEXT_BASE + i * INSTRUCTION_BYTES + insn.imm
            if not target & 7:
                leaders.add((target - TEXT_BASE) >> 3)
    defs: list = [None] * n
    lens = [0] * n
    for i in sorted(leaders):
        if not 0 <= i < n:
            continue
        j = i
        while body[j]:
            j += 1
        total = j - i + term[j]
        if total < MIN_SUPERBLOCK:
            continue
        lines: list = []
        for insn in text[i:j]:
            _emit_insn(insn, lines)
        past = TEXT_BASE + (i + total) * INSTRUCTION_BYTES if timing else None
        if term[j]:
            _emit_terminator(text[j], TEXT_BASE + j * INSTRUCTION_BYTES, lines, past)
        else:
            lines.append(f"return {past}")
        defs[i] = _def("x, f" if timing else "x, f, mem", lines)
        lens[i] = total
    return _compile(defs), lens


class PredecodedProgram:
    """Per-PC function tables for one :class:`Program`.

    All fields are parallel lists indexed by text index
    (``(pc - TEXT_BASE) >> 3``); consumers hoist them into locals.  One
    instance is shared by every core simulating the same program — the
    functions are stateless between calls (all mutable state lives in the
    caller's register lists / memory).
    """

    __slots__ = (
        "program",
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
        self.size = len(text)
        rows = [_pc_defs(insn, TEXT_BASE + i * INSTRUCTION_BYTES) for i, insn in enumerate(text)]
        self.kinds = [row[0] for row in rows]
        functions = _compile([source for row in rows for source in row[1:]])
        self.runs, self.eas, self.applies = functions[0::3], functions[1::3], functions[2::3]
        self.latencies = [insn.info.latency for insn in text]
        # The out-of-order core's dispatch plan, one tuple per text word.
        self.plans = [dispatch_plan(insn) for insn in text]
        # Functional superblocks: only the interpreter calls them, so they
        # are compiled by its first run (functional_blocks), not here.
        self.block_runs: list | None = None
        self.block_lens: list | None = None

    def functional_blocks(self) -> tuple[list, list]:
        """``(block_runs, block_lens)``, compiled on the first call."""
        if self.block_runs is None:
            self.block_runs, self.block_lens = _build_blocks(self, timing=False)
        return self.block_runs, self.block_lens


def predecode_program(program: Program) -> PredecodedProgram:
    """Predecode *program*, memoised on the program object itself.

    The cache rides on the (frozen) Program instance so every consumer of
    the same image — all N cores of a target, plus the interpreter — shares
    one function table, and the cache dies with the program.
    """
    cached = getattr(program, "_predecoded", None)
    if cached is not None:
        return cached
    pre = PredecodedProgram(program)
    object.__setattr__(program, "_predecoded", pre)
    return pre


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


def timing_blocks(program: Program) -> TimingBlocks:
    """Timing superblocks for *program*, memoised on the program object."""
    cached = getattr(program, "_timing_blocks", None)
    if cached is not None:
        return cached
    pre = predecode_program(program)
    tb = TimingBlocks(*_build_blocks(pre, timing=True), pre.size)
    object.__setattr__(program, "_timing_blocks", tb)
    return tb
