"""Disassembler tests: canonical text, assembler round-trips."""

from hypothesis import given, strategies as st

from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble_word, format_instruction
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPINFO, Format, Op


def roundtrip(insn: Instruction) -> Instruction:
    """format -> assemble -> first instruction."""
    return assemble(format_instruction(insn)).text[0]


def test_known_renderings():
    cases = [
        (Instruction(Op.ADD, rd=10, rs1=11, rs2=12), "add a0, a1, a2"),
        (Instruction(Op.ADDI, rd=2, rs1=2, imm=-16), "addi sp, sp, -16"),
        (Instruction(Op.LD, rd=10, rs1=2, imm=8), "ld a0, 8(sp)"),
        (Instruction(Op.FSD, rs1=8, rs2=3, imm=-24), "fsd f3, -24(s0)"),
        (Instruction(Op.AMOADD, rd=5, rs1=6, rs2=7), "amoadd t0, t2, (t1)"),
        (Instruction(Op.BEQ, rs1=1, rs2=0, imm=16), "beq ra, zero, 16"),
        (Instruction(Op.JALR, rd=0, rs1=1), "jalr zero, ra, 0"),
        (Instruction(Op.FADD, rd=1, rs1=2, rs2=3), "fadd f1, f2, f3"),
        (Instruction(Op.FCVT_D_L, rd=4, rs1=10), "fcvt.d.l f4, a0"),
        (Instruction(Op.ECALL), "ecall"),
    ]
    for insn, text in cases:
        assert format_instruction(insn) == text


def test_disassemble_word():
    word = Instruction(Op.MUL, rd=3, rs1=4, rs2=5).encode()
    assert disassemble_word(word) == "mul gp, tp, t0"


def _fields_for(op: Op):
    """Strategy for valid field ranges per format (register fields < 32 so
    ABI names round-trip; immediates that survive branch re-encoding)."""
    reg = st.integers(0, 31)
    imm = st.integers(-(1 << 20), (1 << 20) - 1).map(lambda v: v * 8)
    return st.tuples(reg, reg, reg, imm)


@given(
    op=st.sampled_from(sorted(Op, key=int)),
    fields=st.integers(0, 31),
    fields2=st.integers(0, 31),
    fields3=st.integers(0, 31),
    imm8=st.integers(-(1 << 16), (1 << 16) - 1).map(lambda v: v * 8),
)
def test_roundtrip_property(op, fields, fields2, fields3, imm8):
    info = OPINFO[op]
    insn = Instruction(op, rd=fields, rs1=fields2, rs2=fields3, imm=imm8)
    # Branch/jump immediates are re-encoded PC-relative against address 0 of
    # the single-instruction program, so the offset must be preserved as-is.
    again = roundtrip(insn)
    assert again.op is insn.op
    if info.fmt in (Format.R, Format.FR):
        assert (again.rd, again.rs1, again.rs2) == (insn.rd, insn.rs1, insn.rs2)
    if info.fmt in (Format.I, Format.LOAD, Format.STORE, Format.JR, Format.LI):
        assert again.imm == insn.imm
    if info.fmt in (Format.B, Format.J):
        assert again.imm == insn.imm  # pc-relative from address 0


def test_listing_includes_symbols_and_addresses():
    prog = assemble("main: nop\nloop: j loop\n")
    listing = prog.listing()
    assert "main:" in listing and "loop:" in listing
    assert "0x00010000" in listing
