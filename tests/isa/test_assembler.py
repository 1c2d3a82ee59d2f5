"""Assembler tests: syntax, pseudo-ops, labels, layout, error reporting."""

import pytest

from repro.isa.assembler import AssemblerError, assemble
from repro.isa.disassembler import format_instruction
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.program import DATA_BASE, TEXT_BASE


def test_empty_program():
    prog = assemble("")
    assert prog.text == ()
    assert prog.entry == TEXT_BASE


def test_basic_rtype():
    prog = assemble(".text\nadd a0, a1, a2\n")
    assert prog.text[0] == Instruction(Op.ADD, rd=10, rs1=11, rs2=12)


def test_default_segment_is_text():
    prog = assemble("add t0, t1, t2")
    assert prog.text[0].op is Op.ADD


def test_xn_register_names():
    prog = assemble("add x3, x4, x31")
    assert (prog.text[0].rd, prog.text[0].rs1, prog.text[0].rs2) == (3, 4, 31)


def test_immediate_forms():
    prog = assemble("addi a0, a0, -8\nandi a1, a1, 0xff\n")
    assert prog.text[0].imm == -8
    assert prog.text[1].imm == 0xFF


def test_load_store_operands():
    prog = assemble("ld a0, 16(sp)\nsd a1, -8(s0)\nfld f1, 0(a2)\nfsd f2, 24(a3)\n")
    ld, sd, fld, fsd = prog.text
    assert (ld.op, ld.rd, ld.rs1, ld.imm) == (Op.LD, 10, 2, 16)
    assert (sd.op, sd.rs2, sd.rs1, sd.imm) == (Op.SD, 11, 8, -8)
    assert (fld.op, fld.rd, fld.rs1) == (Op.FLD, 1, 12)
    assert (fsd.op, fsd.rs2, fsd.rs1, fsd.imm) == (Op.FSD, 2, 13, 24)


def test_amo_syntax():
    prog = assemble("amoswap a0, a1, (a2)\namoadd t0, t1, 8(t2)\n")
    swap, add = prog.text
    assert (swap.op, swap.rd, swap.rs2, swap.rs1, swap.imm) == (Op.AMOSWAP, 10, 11, 12, 0)
    assert (add.op, add.imm) == (Op.AMOADD, 8)


def test_branch_offsets_are_pc_relative():
    prog = assemble(
        """
        .text
        top:
            addi a0, a0, -1
            bnez a0, top
            halt
        """
    )
    bne = prog.text[1]
    assert bne.op is Op.BNE
    # bne is at TEXT_BASE+8, target TEXT_BASE: offset -8.
    assert bne.imm == -8


def test_forward_branch():
    prog = assemble("beq a0, a1, done\nnop\nnop\ndone: halt\n")
    assert prog.text[0].imm == 24


def test_jal_and_call_ret():
    prog = assemble(
        """
        main:
            call fn
            halt
        fn:
            ret
        """
    )
    call, _, ret = prog.text
    assert call.op is Op.JAL and call.rd == 1 and call.imm == 16
    assert ret.op is Op.JALR and ret.rd == 0 and ret.rs1 == 1


def test_pseudo_expansions():
    prog = assemble("nop\nli a0, 42\nmv a1, a0\nnot a2, a1\nneg a3, a2\nj end\nend: halt\n")
    ops = [i.op for i in prog.text]
    assert ops == [Op.NOPOP, Op.ADDI, Op.ADDI, Op.XORI, Op.SUB, Op.JAL, Op.HALT]


def test_branch_pseudo_swaps():
    prog = assemble("bgt a0, a1, l\nble a2, a3, l\nl: halt\n")
    bgt, ble = prog.text[0], prog.text[1]
    assert bgt.op is Op.BLT and (bgt.rs1, bgt.rs2) == (11, 10)
    assert ble.op is Op.BGE and (ble.rs1, ble.rs2) == (13, 12)


def test_data_words_and_labels():
    prog = assemble(
        """
        .data
        tab: .word 1, 2, 3
        val: .double 2.5
        buf: .space 32
        end_marker: .word 9
        """
    )
    assert prog.symbols["tab"] == DATA_BASE
    assert prog.symbols["val"] == DATA_BASE + 24
    assert prog.symbols["buf"] == DATA_BASE + 32
    assert prog.symbols["end_marker"] == DATA_BASE + 64
    assert len(prog.data) == 72


def test_la_resolves_data_symbol():
    prog = assemble(
        """
        .data
        v: .word 7
        .text
        main: la a0, v
        """
    )
    assert prog.text[0].imm == DATA_BASE


def test_label_plus_offset():
    prog = assemble(
        """
        .data
        arr: .word 0, 0, 0
        .text
        la a0, arr + 16
        """
    )
    assert prog.text[0].imm == DATA_BASE + 16


def test_entry_is_main_when_defined():
    prog = assemble("nop\nmain: halt\n")
    assert prog.entry == TEXT_BASE + 8


def test_duplicate_label_rejected():
    with pytest.raises(AssemblerError, match="duplicate"):
        assemble("x: nop\nx: nop\n")


def test_unknown_mnemonic_rejected():
    with pytest.raises(AssemblerError, match="unknown mnemonic"):
        assemble("frobnicate a0, a1\n")


def test_unknown_register_rejected():
    with pytest.raises(AssemblerError, match="register"):
        assemble("add a0, a1, q9\n")


def test_unresolved_symbol_rejected():
    with pytest.raises(AssemblerError, match="unresolved"):
        assemble("j nowhere\n")


def test_operand_count_checked():
    with pytest.raises(AssemblerError, match="expects"):
        assemble("add a0, a1\n")


def test_instruction_in_data_segment_rejected():
    with pytest.raises(AssemblerError, match="outside"):
        assemble(".data\nadd a0, a1, a2\n")


def test_comments_are_ignored():
    prog = assemble("# leading comment\nadd a0, a1, a2  # trailing\n; semicolon comment\n")
    assert len(prog.text) == 1


def test_word_in_text_segment_rejected():
    with pytest.raises(AssemblerError):
        assemble(".text\n.word 1\n")


def test_listing_roundtrip_through_disassembler():
    src = """
    main:
        li a0, 5
        li a1, 0
    loop:
        add a1, a1, a0
        addi a0, a0, -1
        bnez a0, loop
        halt
    """
    prog = assemble(src)
    # Re-assemble the canonical disassembly (labels become numeric offsets,
    # which the assembler accepts as immediates).
    listing = "\n".join(format_instruction(i) for i in prog.text)
    prog2 = assemble(listing)
    assert [i.op for i in prog.text] == [i.op for i in prog2.text]
    assert [i.imm for i in prog.text] == [i.imm for i in prog2.text]


def test_program_instruction_at():
    prog = assemble("nop\nhalt\n")
    assert prog.instruction_at(TEXT_BASE + 8).op is Op.HALT
    with pytest.raises(IndexError):
        prog.instruction_at(TEXT_BASE + 16)
    with pytest.raises(IndexError):
        prog.instruction_at(TEXT_BASE + 3)
