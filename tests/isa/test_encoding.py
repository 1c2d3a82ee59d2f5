"""Encoding/decoding round-trip tests for SPISA instructions."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.instruction import EncodingError, Instruction
from repro.isa.opcodes import OPINFO, Format, Op


def test_simple_encode_decode():
    insn = Instruction(Op.ADD, rd=5, rs1=6, rs2=7)
    assert Instruction.decode(insn.encode()) == insn


def test_negative_immediate_roundtrip():
    insn = Instruction(Op.ADDI, rd=1, rs1=2, imm=-12345)
    assert Instruction.decode(insn.encode()).imm == -12345


def test_extreme_immediates():
    for imm in (-(1 << 31), (1 << 31) - 1, 0, -1, 1):
        insn = Instruction(Op.ADDI, rd=1, rs1=1, imm=imm)
        assert Instruction.decode(insn.encode()).imm == imm


def test_imm_out_of_range_rejected():
    with pytest.raises(EncodingError):
        Instruction(Op.ADDI, rd=1, rs1=1, imm=1 << 31).encode()
    with pytest.raises(EncodingError):
        Instruction(Op.ADDI, rd=1, rs1=1, imm=-(1 << 31) - 1).encode()


def test_register_out_of_range_rejected():
    with pytest.raises(EncodingError):
        Instruction(Op.ADD, rd=64).encode()
    with pytest.raises(EncodingError):
        Instruction(Op.ADD, rd=-1).encode()


def test_unknown_opcode_rejected():
    with pytest.raises(EncodingError):
        Instruction.decode(0xFE << 56)


def test_reserved_bits_rejected():
    word = Instruction(Op.ADD, rd=1, rs1=2, rs2=3).encode() | (1 << 35)
    with pytest.raises(EncodingError):
        Instruction.decode(word)


def test_non_64bit_word_rejected():
    with pytest.raises(EncodingError):
        Instruction.decode(1 << 64)
    with pytest.raises(EncodingError):
        Instruction.decode(-1)


@given(
    op=st.sampled_from(sorted(Op, key=int)),
    rd=st.integers(0, 63),
    rs1=st.integers(0, 63),
    rs2=st.integers(0, 63),
    imm=st.integers(-(1 << 31), (1 << 31) - 1),
)
def test_roundtrip_property(op, rd, rs1, rs2, imm):
    insn = Instruction(op, rd=rd, rs1=rs1, rs2=rs2, imm=imm)
    word = insn.encode()
    assert 0 <= word < (1 << 64)
    assert Instruction.decode(word) == insn


def test_every_op_has_metadata():
    for op in Op:
        info = OPINFO[op]
        assert info.mnemonic
        assert info.latency >= 1
        assert isinstance(info.fmt, Format)


def test_mem_flags_consistent():
    for op in Op:
        info = OPINFO[op]
        if info.is_amo:
            assert info.is_load and info.is_store
        if info.fmt is Format.LOAD:
            assert info.is_load and not info.is_store
        if info.fmt is Format.STORE:
            assert info.is_store and not info.is_load
