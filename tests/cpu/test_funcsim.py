"""Functional-semantics tests for the SPISA executor."""

import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro._util import to_signed64, to_unsigned64
from repro.cpu.arch import ArchState, TargetFault, TargetMemory
from repro.cpu.funcsim import NEXT, do_amo, do_load, do_store, effective_address, execute
from repro.isa import Instruction, Op

i64 = st.integers(-(1 << 63), (1 << 63) - 1)


def make_state(**regs):
    s = ArchState(pc=0x10000)
    for name, val in regs.items():
        s.set_x(int(name[1:]), val)
    return s


def run_op(op, rs1=0, rs2=0, imm=0, f1=0.0, f2=0.0):
    s = ArchState(pc=0x10000)
    s.set_x(1, rs1)
    s.set_x(2, rs2)
    s.f[1], s.f[2] = f1, f2
    execute(s, Instruction(op, rd=3, rs1=1, rs2=2, imm=imm))
    return s


class TestIntegerALU:
    def test_add_sub(self):
        assert run_op(Op.ADD, 5, 7).x[3] == 12
        assert run_op(Op.SUB, 5, 7).x[3] == -2

    def test_add_wraps_64_bits(self):
        assert run_op(Op.ADD, (1 << 63) - 1, 1).x[3] == -(1 << 63)

    def test_mul(self):
        assert run_op(Op.MUL, -3, 7).x[3] == -21

    def test_div_truncates_toward_zero(self):
        assert run_op(Op.DIV, 7, 2).x[3] == 3
        assert run_op(Op.DIV, -7, 2).x[3] == -3
        assert run_op(Op.DIV, 7, -2).x[3] == -3

    def test_div_by_zero_is_minus_one(self):
        assert run_op(Op.DIV, 42, 0).x[3] == -1

    def test_rem_sign_follows_dividend(self):
        assert run_op(Op.REM, 7, 2).x[3] == 1
        assert run_op(Op.REM, -7, 2).x[3] == -1
        assert run_op(Op.REM, 7, 0).x[3] == 7

    def test_logic(self):
        assert run_op(Op.AND, 0b1100, 0b1010).x[3] == 0b1000
        assert run_op(Op.OR, 0b1100, 0b1010).x[3] == 0b1110
        assert run_op(Op.XOR, 0b1100, 0b1010).x[3] == 0b0110

    def test_shifts(self):
        assert run_op(Op.SLL, 1, 8).x[3] == 256
        assert run_op(Op.SRL, -1, 60).x[3] == 15
        assert run_op(Op.SRA, -16, 2).x[3] == -4

    def test_shift_amount_masked_to_6_bits(self):
        assert run_op(Op.SLL, 1, 64).x[3] == 1
        assert run_op(Op.SLL, 1, 65).x[3] == 2

    def test_slt_signed_vs_unsigned(self):
        assert run_op(Op.SLT, -1, 0).x[3] == 1
        assert run_op(Op.SLTU, -1, 0).x[3] == 0

    def test_immediates(self):
        assert run_op(Op.ADDI, 10, imm=-3).x[3] == 7
        assert run_op(Op.SLTI, 1, imm=5).x[3] == 1
        assert run_op(Op.SRAI, -32, imm=3).x[3] == -4

    def test_lui(self):
        assert run_op(Op.LUI, imm=1).x[3] == 1 << 32
        assert run_op(Op.LUI, imm=-1).x[3] == to_signed64(0xFFFFFFFF00000000)

    def test_x0_never_written(self):
        s = ArchState()
        execute(s, Instruction(Op.ADDI, rd=0, rs1=0, imm=99))
        assert s.x[0] == 0

    @given(a=i64, b=i64)
    def test_add_matches_two_complement(self, a, b):
        assert run_op(Op.ADD, a, b).x[3] == to_signed64(a + b)

    @given(a=i64, b=i64)
    def test_sltu_matches_unsigned_compare(self, a, b):
        assert run_op(Op.SLTU, a, b).x[3] == int(to_unsigned64(a) < to_unsigned64(b))

    @given(a=i64, b=i64.filter(lambda v: v != 0))
    def test_div_rem_identity(self, a, b):
        q = run_op(Op.DIV, a, b).x[3]
        r = run_op(Op.REM, a, b).x[3]
        assert to_signed64(q * b + r) == a


class TestBranches:
    def test_taken_branch_is_pc_relative(self):
        s = make_state(x1=1, x2=1)
        s.pc = 0x10008
        out = execute(s, Instruction(Op.BEQ, rs1=1, rs2=2, imm=-8))
        assert out.taken and out.next_pc == 0x10000

    def test_untaken_branch_falls_through(self):
        s = make_state(x1=1, x2=2)
        out = execute(s, Instruction(Op.BEQ, rs1=1, rs2=2, imm=-8))
        assert not out.taken and out.next_pc == NEXT

    def test_unsigned_branches(self):
        s = make_state(x1=-1, x2=0)
        assert not execute(s, Instruction(Op.BLTU, rs1=1, rs2=2, imm=8)).taken
        assert execute(s, Instruction(Op.BGEU, rs1=1, rs2=2, imm=8)).taken

    def test_jal_links(self):
        s = ArchState(pc=0x10000)
        out = execute(s, Instruction(Op.JAL, rd=1, imm=0x100))
        assert out.next_pc == 0x10100
        assert s.x[1] == 0x10008

    def test_jalr_is_absolute(self):
        s = make_state(x5=0x20000)
        s.pc = 0x10000
        out = execute(s, Instruction(Op.JALR, rd=1, rs1=5, imm=8))
        assert out.next_pc == 0x20008
        assert s.x[1] == 0x10008


class TestFloat:
    def test_arith(self):
        assert run_op(Op.FADD, f1=1.5, f2=2.25).f[3] == 3.75
        assert run_op(Op.FMUL, f1=3.0, f2=-2.0).f[3] == -6.0
        assert run_op(Op.FDIV, f1=1.0, f2=4.0).f[3] == 0.25

    def test_fdiv_by_zero(self):
        assert math.isinf(run_op(Op.FDIV, f1=1.0, f2=0.0).f[3])
        assert math.isnan(run_op(Op.FDIV, f1=0.0, f2=0.0).f[3])

    def test_fsqrt(self):
        assert run_op(Op.FSQRT, f1=9.0).f[3] == 3.0
        assert math.isnan(run_op(Op.FSQRT, f1=-1.0).f[3])

    @pytest.mark.parametrize("op", [Op.FSIN, Op.FCOS])
    def test_sin_cos_of_infinity_is_nan(self, op):
        """IEEE 754 invalid operation: NaN like every other FP edge here, not
        the host's ``ValueError`` out of ``math.sin``."""
        assert math.isnan(run_op(op, f1=math.inf).f[3])
        assert math.isnan(run_op(op, f1=-math.inf).f[3])
        assert math.isnan(run_op(op, f1=math.nan).f[3])

    def test_unary(self):
        assert run_op(Op.FNEG, f1=2.0).f[3] == -2.0
        assert run_op(Op.FABS, f1=-2.0).f[3] == 2.0
        assert run_op(Op.FMV, f1=7.5).f[3] == 7.5

    def test_compares_write_int_reg(self):
        assert run_op(Op.FLT, f1=1.0, f2=2.0).x[3] == 1
        assert run_op(Op.FLE, f1=2.0, f2=2.0).x[3] == 1
        assert run_op(Op.FEQ, f1=2.0, f2=1.0).x[3] == 0

    def test_nan_compares_false(self):
        assert run_op(Op.FEQ, f1=math.nan, f2=math.nan).x[3] == 0
        assert run_op(Op.FLT, f1=math.nan, f2=1.0).x[3] == 0

    def test_conversions(self):
        assert run_op(Op.FCVT_D_L, rs1=-7).f[3] == -7.0
        assert run_op(Op.FCVT_L_D, f1=-7.9).x[3] == -7
        assert run_op(Op.FCVT_L_D, f1=7.9).x[3] == 7

    def test_fcvt_saturates(self):
        assert run_op(Op.FCVT_L_D, f1=1e300).x[3] == (1 << 63) - 1
        assert run_op(Op.FCVT_L_D, f1=-1e300).x[3] == -(1 << 63)
        assert run_op(Op.FCVT_L_D, f1=math.nan).x[3] == 0

    def test_bit_moves_roundtrip(self):
        bits = struct.unpack("<q", struct.pack("<d", 3.14159))[0]
        s = make_state(x1=bits)
        execute(s, Instruction(Op.FMV_D_X, rd=3, rs1=1))
        assert s.f[3] == 3.14159
        execute(s, Instruction(Op.FMV_X_D, rd=5, rs1=3))
        assert s.x[5] == bits

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_fmv_bit_roundtrip_property(self, value):
        s = ArchState()
        s.f[1] = value
        execute(s, Instruction(Op.FMV_X_D, rd=5, rs1=1))
        execute(s, Instruction(Op.FMV_D_X, rd=2, rs1=5))
        assert s.f[2] == value or (math.isnan(s.f[2]) and math.isnan(value))


class TestMemoryOps:
    def test_load_store_word(self):
        mem = TargetMemory(1 << 16)
        s = make_state(x1=0x100, x2=-99)
        execute(s, Instruction(Op.SD, rs1=1, rs2=2, imm=8), mem)
        assert mem.load_word(0x108) == -99
        execute(s, Instruction(Op.LD, rd=3, rs1=1, imm=8), mem)
        assert s.x[3] == -99

    def test_float_load_store(self):
        mem = TargetMemory(1 << 16)
        s = make_state(x1=0x200)
        s.f[2] = 6.25
        execute(s, Instruction(Op.FSD, rs1=1, rs2=2), mem)
        execute(s, Instruction(Op.FLD, rd=4, rs1=1), mem)
        assert s.f[4] == 6.25

    def test_int_float_alias_same_bytes(self):
        mem = TargetMemory(1 << 16)
        mem.store_float(0x100, 1.0)
        assert mem.load_word(0x100) == struct.unpack("<q", struct.pack("<d", 1.0))[0]

    def test_effective_address(self):
        s = make_state(x1=0x1000)
        assert effective_address(s, Instruction(Op.LD, rd=2, rs1=1, imm=-16)) == 0xFF0

    def test_amoswap(self):
        mem = TargetMemory(1 << 16)
        mem.store_word(0x40, 5)
        s = make_state(x1=0x40, x2=9)
        do_amo(s, Instruction(Op.AMOSWAP, rd=3, rs1=1, rs2=2), mem, 0x40)
        assert s.x[3] == 5 and mem.load_word(0x40) == 9

    def test_amoadd(self):
        mem = TargetMemory(1 << 16)
        mem.store_word(0x40, 5)
        s = make_state(x1=0x40, x2=3)
        do_amo(s, Instruction(Op.AMOADD, rd=3, rs1=1, rs2=2), mem, 0x40)
        assert s.x[3] == 5 and mem.load_word(0x40) == 8

    def test_misaligned_access_faults(self):
        mem = TargetMemory(1 << 16)
        with pytest.raises(TargetFault, match="misaligned"):
            mem.load_word(0x101)

    def test_out_of_bounds_faults(self):
        mem = TargetMemory(1 << 16)
        with pytest.raises(TargetFault, match="out-of-bounds"):
            mem.load_word(1 << 16)
        with pytest.raises(TargetFault, match="out-of-bounds"):
            mem.load_word(-8)

    def test_mem_op_without_memory_rejected(self):
        with pytest.raises(ValueError, match="without a TargetMemory"):
            execute(make_state(x1=0), Instruction(Op.LD, rd=1, rs1=1))

    @given(addr_w=st.integers(0, 8191), value=i64)
    def test_word_roundtrip_property(self, addr_w, value):
        mem = TargetMemory(1 << 16)
        mem.store_word(addr_w * 8, value)
        assert mem.load_word(addr_w * 8) == value


class TestSystem:
    def test_ecall_flags_syscall(self):
        out = execute(ArchState(), Instruction(Op.ECALL))
        assert out.is_syscall

    def test_halt_sets_halted(self):
        s = ArchState()
        out = execute(s, Instruction(Op.HALT))
        assert out.is_halt and s.halted

    def test_nop_does_nothing(self):
        s = ArchState()
        before = list(s.x)
        out = execute(s, Instruction(Op.NOPOP))
        assert out.next_pc == NEXT and s.x == before
