"""Predecode unit tests: encode -> decode -> predecode over every opcode.

For each opcode in the ISA this round-trips a representative instruction
through the binary encoding, checks the predecoded kind against the OPINFO
flags, and — for register-only opcodes — executes the specialized closure
against the funcsim oracle on the same architectural state.
"""

import pytest

from repro.cpu.arch import ArchState
from repro.cpu.funcsim import NEXT, execute
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
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPINFO, Format, Op
from repro.isa.program import TEXT_BASE

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


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_closure_matches_oracle(op):
    """Register-only closures produce the oracle's exact state and next PC."""
    pc = TEXT_BASE + 8 * 4
    insn = _representative(op)
    kind, run, _, _ = predecode_instruction(insn, pc)
    if kind > K_JUMP:
        pytest.skip("memory/syscall/halt kinds have no run closure")

    oracle = _fresh_state(pc)
    mine = _fresh_state(pc)
    outcome = execute(oracle, insn)
    target = run(mine.x, mine.f)

    assert mine.x == oracle.x
    assert [v.hex() for v in mine.f] == [v.hex() for v in oracle.f]
    expected = None if outcome.next_pc is NEXT else outcome.next_pc
    assert target == expected


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
