"""Predecode unit tests: every opcode's template, in every generated form.

For each opcode in the ISA this round-trips a representative instruction
through the binary encoding, checks the predecoded kind against the OPINFO
flags, and executes the generated per-PC functions against the funcsim
oracle on the same architectural state — register-only opcodes over edge
operands as a property.  A second property holds the two superblock forms
to the per-PC functions they are generated beside.
"""

import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cpu import predecode
from repro.cpu.arch import ArchState, TargetMemory
from repro.cpu.funcsim import do_amo, do_load, do_store, effective_address, execute
from repro.cpu.interp import run_functional
from repro.cpu.predecode import (
    K_AMO,
    K_BRANCH,
    K_ECALL,
    K_HALT,
    K_JUMP,
    K_LOAD,
    K_SIMPLE,
    K_STORE,
    dispatch_plan,
    predecode_instruction,
    predecode_program,
    timing_blocks,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPINFO, Format, Op
from repro.isa.program import TEXT_BASE, Program

#: Representative operand fields per format (shift-safe imm, nonzero regs).
_FIELDS = {
    Format.R: dict(rd=5, rs1=6, rs2=7),
    Format.I: dict(rd=5, rs1=6, imm=3),
    Format.LOAD: dict(rd=5, rs1=6, imm=16),
    Format.STORE: dict(rs2=7, rs1=6, imm=16),
    Format.B: dict(rs1=6, rs2=7, imm=32),
    Format.J: dict(rd=1, imm=32),
    Format.JR: dict(rd=1, rs1=6, imm=16),
    Format.FR: dict(rd=5, rs1=6, rs2=7),
    Format.FR2: dict(rd=5, rs1=6),
    Format.FCMP: dict(rd=5, rs1=6, rs2=7),
    Format.FI: dict(rd=5, rs1=6),
    Format.IF: dict(rd=5, rs1=6),
    Format.AMO: dict(rd=5, rs2=7, rs1=6),
    Format.SYS: dict(),
    Format.LI: dict(rd=5, imm=12345),
}


def _representative(op: Op) -> Instruction:
    return Instruction(op=op, **_FIELDS[OPINFO[op].fmt])


def _fresh_state(pc: int) -> ArchState:
    state = ArchState(context_id=0, pc=pc)
    for i in range(1, 32):
        state.set_x(i, i * 1001 + 7)  # nonzero: divide/remainder-safe
        state.f[i] = float(i) + 0.5  # positive: sqrt-safe
    state.f[0] = 1.25
    return state


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_roundtrip_and_kind(op):
    insn = _representative(op)
    decoded = Instruction.decode(insn.encode())
    assert decoded == insn

    kind, run, ea, apply_ = predecode_instruction(decoded, TEXT_BASE)
    info = OPINFO[op]
    if info.is_amo:
        assert kind == K_AMO
    elif info.is_load:
        assert kind == K_LOAD
    elif info.is_store:
        assert kind == K_STORE
    elif op in (Op.JAL, Op.JALR):
        assert kind == K_JUMP
    elif info.is_branch:
        assert kind == K_BRANCH
    elif op is Op.ECALL:
        assert kind == K_ECALL
    elif op is Op.HALT:
        assert kind == K_HALT
    else:
        assert kind == K_SIMPLE

    if kind <= K_JUMP:
        assert callable(run) and ea is None and apply_ is None
    elif kind in (K_LOAD, K_STORE, K_AMO):
        assert run is None and callable(ea) and callable(apply_)
    else:
        assert run is None and ea is None and apply_ is None


def _hex(values) -> list:
    return [float.hex(v) for v in values]


def _test_memory() -> TargetMemory:
    mem = TargetMemory(4096)
    mem.write_words(0, [(i * 0x9E3779B97F4A7C15) & ((1 << 63) - 1) for i in range(512)])
    return mem


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_closure_matches_oracle(op):
    """The per-PC functions produce the oracle's exact state, next PC and —
    for memory kinds, ``ea`` + ``apply`` on a real memory — memory image."""
    pc = TEXT_BASE + 8 * 4
    insn = _representative(op)
    kind, run, _, _ = predecode_instruction(insn, pc)
    if kind in (K_ECALL, K_HALT):
        pytest.skip("syscall/halt kinds have no function")

    if kind <= K_JUMP:
        oracle = _fresh_state(pc)
        mine = _fresh_state(pc)
        outcome = execute(oracle, insn)
        target = run(mine.x, mine.f)
        assert mine.x == oracle.x
        assert _hex(mine.f) == _hex(oracle.f)
        assert target == (outcome.next_pc if outcome.taken else None)
        return

    effect = do_amo if kind == K_AMO else do_load if kind == K_LOAD else do_store
    variants = [insn, replace(insn, imm=0)]
    if insn.info.writes_int:  # an x0 load / AMO still makes the access
        variants.append(replace(insn, rd=0))
    for insn in variants:
        _, _, ea, apply_ = predecode_instruction(insn, pc)
        oracle, mine = _fresh_state(pc), _fresh_state(pc)
        oracle_mem, my_mem = _test_memory(), _test_memory()
        oracle.x[6] = mine.x[6] = 2048  # rs1: the base address
        oracle.x[7] = mine.x[7] = (1 << 63) - 1  # rs2: amoadd wraps
        addr = ea(mine.x)
        assert addr == effective_address(oracle, insn)
        effect(oracle, insn, oracle_mem, addr)
        assert apply_(mine.x, mine.f, my_mem, addr) is None
        assert mine.x == oracle.x
        assert _hex(mine.f) == _hex(oracle.f)
        assert my_mem._words == oracle_mem._words


def test_rd_zero_alu_is_inert():
    insn = Instruction(op=Op.ADD, rd=0, rs1=6, rs2=7)
    _, run, _, _ = predecode_instruction(insn, TEXT_BASE)
    state = _fresh_state(TEXT_BASE)
    snapshot = list(state.x)
    assert run(state.x, state.f) is None
    assert state.x == snapshot


def test_dispatch_plan_slots():
    """The OoO core's plan: ``(kind, latency, read_slots, write_slot)`` with x
    registers at 0..31, f registers at 32..63, x0 reads dropped (its write
    is never registered) and an x0 destination as -1."""
    assert dispatch_plan(Instruction(Op.MUL, rd=3, rs1=0, rs2=5)) == (K_SIMPLE, 3, (5,), 3)
    assert dispatch_plan(Instruction(Op.ADD, rd=0, rs1=4, rs2=4)) == (K_SIMPLE, 1, (4, 4), -1)
    assert dispatch_plan(Instruction(Op.FSD, rs1=2, rs2=4)) == (K_STORE, 1, (2, 36), -1)
    assert dispatch_plan(Instruction(Op.FLD, rd=1, rs1=2)) == (K_LOAD, 1, (2,), 33)
    assert dispatch_plan(Instruction(Op.FLT, rd=9, rs1=1, rs2=2)) == (K_SIMPLE, 3, (33, 34), 9)
    assert dispatch_plan(Instruction(Op.BNE, rs1=6, rs2=0, imm=16)) == (K_BRANCH, 1, (6,), -1)
    assert dispatch_plan(Instruction(Op.JAL, rd=1, imm=16)) == (K_JUMP, 1, (), 1)
    assert dispatch_plan(Instruction(Op.HALT))[0] == K_HALT


def test_plan_table_is_the_per_instruction_plan():
    """``dispatch="predecoded"`` reads the table, ``"oracle"`` calls
    ``dispatch_plan`` per dispatched instruction: one source for both."""
    from repro.workloads.registry import make_workload

    program = make_workload("fft", scale="tiny").program
    pre = predecode_program(program)
    assert pre.plans == [dispatch_plan(insn) for insn in program.text]
    assert not hasattr(pre, "read_keys") and not hasattr(pre, "write_keys")


# ------------------------------------------------- per-opcode edge property
_KIND = {op: dispatch_plan(Instruction(op))[0] for op in Op}
_REGS = (0, 1, 2, 31)  # few, so rd == rs1 and x0 as source/destination are common
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

regs = st.sampled_from(_REGS)
imms = st.sampled_from([0, 1, -1, 8, 63, 64, 65, -(1 << 31), (1 << 31) - 1]) | st.integers(
    -(1 << 31), (1 << 31) - 1
)
x_values = st.sampled_from([0, 1, -1, 64, 65, _I64_MAX, _I64_MIN]) | st.integers(_I64_MIN, _I64_MAX)
f_values = st.sampled_from([0.0, -0.0, 1.5, -1.5, math.inf, -math.inf, math.nan]) | st.floats()
x_files = st.lists(x_values, min_size=3, max_size=3)  # x1, x2, x31 (x0 stays 0)
f_files = st.lists(f_values, min_size=4, max_size=4)  # f0, f1, f2, f31


def _state(pc: int, xs, fs) -> ArchState:
    state = ArchState(context_id=0, pc=pc)
    for reg, value in zip(_REGS[1:], xs):
        state.x[reg] = value
    for reg, value in zip(_REGS, fs):
        state.f[reg] = value
    return state


#: The edge cases the random draws must not be trusted to find.
_EDGE_EXAMPLES = [
    # rd == rs1; a sum of exactly 2**63 (the wrap's boundary), shift by imm 1
    dict(rd=1, rs1=1, rs2=2, imm=1, xs=[_I64_MAX, 1, 0], fs=[0.0, math.nan, 1.5, 0.0]),
    # INT_MIN / -1, INT_MIN * -1, unsigned vs signed compare, shift count 63
    dict(rd=2, rs1=1, rs2=31, imm=-1, xs=[_I64_MIN, 7, -1], fs=[0.0, -1.5, 1.5, -0.0]),
    # unsigned vs signed order; divide by zero; x / 0.0 and sqrt(< 0)
    dict(rd=31, rs1=1, rs2=2, imm=0, xs=[-1, 0, 5], fs=[0.0, -1.5, 0.0, 0.0]),
    # shift counts >= 64 in a register and in the immediate
    dict(rd=2, rs1=1, rs2=31, imm=65, xs=[-3, 0, 65], fs=[0.0, 0.0, -0.0, 1.5]),
    # rs1 == rs2 (>= vs >, == on equal operands); 0.0 / 0.0; -0.0 bit pattern
    dict(rd=1, rs1=2, rs2=2, imm=64, xs=[1, _I64_MIN, 0], fs=[1.5, 0.0, -0.0, 0.0]),
    # x0 as destination and as source; NaN in the second operand; +/-inf conversions
    dict(rd=0, rs1=0, rs2=1, imm=-8, xs=[3, 4, 5], fs=[math.inf, math.nan, 1.5, 0.0]),
    dict(rd=2, rs1=0, rs2=0, imm=8, xs=[3, 4, 5], fs=[-math.inf, 1.5, math.nan, 0.0]),
]


def _edge_examples(test):
    for case in _EDGE_EXAMPLES:
        test = example(**case)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(rd=regs, rs1=regs, rs2=regs, imm=imms, xs=x_files, fs=f_files)
@_edge_examples
def test_register_only_templates_match_oracle(rd, rs1, rs2, imm, xs, fs):
    """Every register-only opcode's template against ``funcsim.execute`` on
    the drawn fields and register files: ``x``, the bits of ``f`` and the
    returned target.  (``taken`` tells a fall-through from a jump to -1:
    ``funcsim.NEXT == -1``.)"""
    pc = TEXT_BASE + 64
    for op in Op:
        if _KIND[op] > K_JUMP:
            continue
        insn = Instruction(op, rd, rs1, rs2, imm)
        oracle, mine = _state(pc, xs, fs), _state(pc, xs, fs)
        run = predecode_instruction(insn, pc)[1]
        outcome = execute(oracle, insn)
        target = run(mine.x, mine.f)
        assert mine.x == oracle.x, insn
        assert _hex(mine.f) == _hex(oracle.f), insn
        assert target == (outcome.next_pc if outcome.taken else None), insn


# ------------------------------------------------ block == per-PC property
_BASE_REG = 30  # memory base: outside _REGS, so no instruction overwrites it


def _instruction(op, rd, rs1, rs2, imm, offset) -> Instruction:
    if _KIND[op] in (K_LOAD, K_STORE, K_AMO):
        return Instruction(op, rd, _BASE_REG, rs2, offset)
    return Instruction(op, rd, rs1, rs2, imm)


def _instructions(kinds):
    ops = [op for op in Op if _KIND[op] in kinds]
    offsets = st.sampled_from([0, 8, -8, 16])
    return st.builds(_instruction, st.sampled_from(ops), regs, regs, regs, imms, offsets)


@settings(max_examples=150, deadline=None)
@given(
    body=st.lists(_instructions((K_SIMPLE, K_LOAD, K_STORE, K_AMO)), min_size=2, max_size=10),
    term=st.none() | _instructions((K_BRANCH, K_JUMP)),
    xs=x_files,
    fs=f_files,
)
@example(  # sin/cos of both infinities inside a block: NaN, not a host ValueError
    body=[Instruction(Op.FSIN, 1, 0), Instruction(Op.FCOS, 2, 31), Instruction(Op.FCOS, 0, 0)],
    term=None, xs=[0, 0, 0], fs=[math.inf, 0.0, 0.0, -math.inf],
)
def test_blocks_match_per_pc_calls(body, term, xs, fs):
    """A random straight-line sequence with an optional branch/jump at its
    end: the functional superblock, every timing superblock inside it and
    *n* per-PC calls leave identical ``x`` / ``f`` / memory and next pc."""
    text = (*body, term) if term is not None else tuple(body)
    n = len(text)
    program = Program("blocks", text, b"")
    pre = predecode_program(program)
    block_runs, block_lens = pre.functional_blocks()
    assert block_lens[0] == n

    def fresh():
        state = _state(TEXT_BASE, xs, fs)
        state.x[_BASE_REG] = 2048
        return state.x, state.f, _test_memory()

    # n per-PC calls, keeping the register files in front of every instruction.
    x, f, mem = fresh()
    before = []
    taken = None
    for i in range(n):
        before.append((list(x), _hex(f)))
        if pre.kinds[i] <= K_JUMP:
            taken = pre.runs[i](x, f)
        else:
            pre.applies[i](x, f, mem, pre.eas[i](x))
    before.append((x, _hex(f)))

    bx, bf, bmem = fresh()
    assert block_runs[0](bx, bf, bmem) == taken  # None: fell through
    assert (bx, _hex(bf)) == before[n]
    assert bmem._words == mem._words

    tb = timing_blocks(program)
    for i, length in enumerate(tb.lens):
        if not length:
            continue
        span = slice(i, i + length)  # latency-1 register-only instructions, nothing else
        assert all(k <= K_JUMP for k in pre.kinds[span]) and set(pre.latencies[span]) == {1}
        tx, tf = list(before[i][0]), [float.fromhex(v) for v in before[i][1]]
        next_pc = tb.runs[i](tx, tf)
        assert (tx, _hex(tf)) == before[i + length]
        past = TEXT_BASE + (i + length) * 8
        assert next_pc == (taken if i + length == n and taken is not None else past)


def test_functional_blocks_wait_for_the_first_functional_run():
    """Timing runs never call the functional superblocks, so an engine run
    leaves them unbuilt; the interpreter builds them once per program."""
    from repro.core import run_simulation
    from repro.workloads.registry import make_workload

    # A fresh Program object: no tables memoised by other tests.
    program = replace(make_workload("fft", scale="tiny", nthreads=1).program)
    run_simulation(program, scheme="s9")
    pre = predecode_program(program)
    assert pre.block_runs is None and pre.block_lens is None

    with mock.patch.object(predecode, "_build_blocks", wraps=predecode._build_blocks) as build:
        first = run_functional(program)
        assert pre.block_runs is not None and len(pre.block_lens) == pre.size
        built = pre.block_runs
        assert run_functional(program).instructions == first.instructions
    assert build.call_count == 1 and pre.block_runs is built
