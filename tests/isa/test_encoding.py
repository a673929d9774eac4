"""Binary instruction encode/decode, including a full-ISA round-trip
property test."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError
from repro.isa.encoding import decode, encode
from repro.isa.instructions import (
    B_FORMAT,
    I_FORMAT,
    IMM16_MAX,
    IMM16_MIN,
    Instruction,
    OFFSET16_MAX,
    OFFSET16_MIN,
    OFFSET26_MAX,
    OFFSET26_MIN,
    Opcode,
    R_FORMAT,
)

_REG = st.integers(0, 31)


def _instruction_strategy():
    """Generate valid instructions of every format.

    Fields a format does not encode are pinned to zero (``st.builds`` would
    otherwise invent values for them, which the encoding cannot carry).
    """
    zero = st.just(0)
    r_type = st.builds(
        Instruction,
        opcode=st.sampled_from(sorted(R_FORMAT)),
        rd=_REG,
        rs1=_REG,
        rs2=_REG,
        imm=zero,
    )
    i_type = st.builds(
        Instruction,
        opcode=st.sampled_from(sorted(I_FORMAT)),
        rd=_REG,
        rs1=_REG,
        rs2=zero,
        imm=st.integers(IMM16_MIN, IMM16_MAX),
    )
    b_type = st.builds(
        Instruction,
        opcode=st.sampled_from(sorted(B_FORMAT)),
        rd=zero,
        rs1=_REG,
        rs2=_REG,
        imm=st.integers(OFFSET16_MIN, OFFSET16_MAX),
    )
    jump = st.builds(
        Instruction,
        opcode=st.sampled_from([Opcode.BR, Opcode.BSR]),
        rd=zero,
        rs1=zero,
        rs2=zero,
        imm=st.integers(OFFSET26_MIN, OFFSET26_MAX),
    )
    reg_jump = st.builds(
        Instruction,
        opcode=st.sampled_from([Opcode.JMP, Opcode.JSR]),
        rd=zero,
        rs1=_REG,
        rs2=zero,
        imm=zero,
    )
    bare = st.builds(
        Instruction,
        opcode=st.sampled_from([Opcode.RTS, Opcode.NOP, Opcode.HALT]),
        rd=zero,
        rs1=zero,
        rs2=zero,
        imm=zero,
    )
    return st.one_of(r_type, i_type, b_type, jump, reg_jump, bare)


class TestRoundTrip:
    @given(_instruction_strategy())
    def test_encode_decode_identity(self, instruction):
        assert decode(encode(instruction)) == instruction

    def test_program_helpers(self):
        program = [
            Instruction(Opcode.ADDI, rd=2, rs1=0, imm=5),
            Instruction(Opcode.BEQ, rs1=2, rs2=0, imm=-1),
            Instruction(Opcode.HALT),
        ]
        assert [decode(encode(instruction)) for instruction in program] == program


class TestEncodeValidation:
    def test_register_out_of_range(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.ADD, rd=32, rs1=0, rs2=0))

    def test_imm16_out_of_range(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.ADDI, rd=1, rs1=0, imm=IMM16_MAX + 1))
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.ADDI, rd=1, rs1=0, imm=IMM16_MIN - 1))

    def test_branch_offset_out_of_range(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.BEQ, rs1=0, rs2=0, imm=OFFSET16_MAX + 1))

    def test_jump_offset_out_of_range(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.BR, imm=OFFSET26_MIN - 1))


class TestDecodeValidation:
    def test_invalid_opcode_field(self):
        with pytest.raises(EncodingError):
            decode(63 << 26)

    def test_word_out_of_range(self):
        with pytest.raises(EncodingError):
            decode(1 << 32)
        with pytest.raises(EncodingError):
            decode(-1)

    def test_negative_immediates_survive(self):
        instruction = Instruction(Opcode.ADDI, rd=3, rs1=4, imm=-1)
        assert decode(encode(instruction)).imm == -1
        branch = Instruction(Opcode.BR, imm=-200)
        assert decode(encode(branch)).imm == -200
