"""Full-opcode round-trip property: every opcode survives
encode -> decode -> disassemble -> re-assemble -> encode unchanged.

The fuzz tests in test_fuzz.py cover structurally realistic programs; this
file instead guarantees *coverage*: each generated program contains at least
one instance of every opcode in the ISA, with randomized operands, so a
round-trip regression in any single encoder/disassembler arm cannot hide.
"""

from hypothesis import given, settings, strategies as st

from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble_program
from repro.isa.encoding import decode, encode
from repro.isa.instructions import (
    B_FORMAT,
    I_FORMAT,
    IMM16_MAX,
    IMM16_MIN,
    Instruction,
    Opcode,
    R_FORMAT,
)
from repro.isa.program import Program

_REG = st.integers(0, 31)
_IMM16 = st.integers(IMM16_MIN, IMM16_MAX)


@st.composite
def _instruction_for(draw, opcode, index, total):
    """A random valid instruction of ``opcode`` at position ``index``.

    Only the fields the encoding actually carries are populated, so the
    decoded instruction must compare equal to the generated one.  Branch
    targets always land inside the program so the disassembled listing
    re-assembles without range errors.
    """
    if opcode in R_FORMAT:
        return Instruction(opcode, rd=draw(_REG), rs1=draw(_REG), rs2=draw(_REG))
    if opcode is Opcode.LUI:
        return Instruction(opcode, rd=draw(_REG), imm=draw(_IMM16))
    if opcode in I_FORMAT:
        return Instruction(opcode, rd=draw(_REG), rs1=draw(_REG), imm=draw(_IMM16))
    if opcode in B_FORMAT:
        target = draw(st.integers(0, total - 1))
        return Instruction(
            opcode, rs1=draw(_REG), rs2=draw(_REG), imm=target - index - 1
        )
    if opcode in (Opcode.BR, Opcode.BSR):
        target = draw(st.integers(0, total - 1))
        return Instruction(opcode, imm=target - index - 1)
    if opcode in (Opcode.JMP, Opcode.JSR):
        return Instruction(opcode, rs1=draw(_REG))
    return Instruction(opcode)  # nop, halt, rts


@st.composite
def _full_coverage_program(draw):
    """Every opcode at least once, shuffled, with random duplicates."""
    opcodes = list(Opcode)
    opcodes += draw(st.lists(st.sampled_from(list(Opcode)), max_size=20))
    opcodes = draw(st.permutations(opcodes))
    total = len(opcodes)
    instructions = [
        draw(_instruction_for(opcode, index, total))
        for index, opcode in enumerate(opcodes)
    ]
    return Program(instructions=instructions)


class TestFullOpcodeRoundTrip:
    @given(_full_coverage_program())
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_identity(self, program):
        words = [encode(instruction) for instruction in program.instructions]
        assert [decode(word) for word in words] == program.instructions

    @given(_full_coverage_program())
    @settings(max_examples=50, deadline=None)
    def test_disassemble_reassemble_same_words(self, program):
        words = [encode(instruction) for instruction in program.instructions]
        listing = "\n".join(
            line.split(":", 1)[1]
            for line in disassemble_program(program).splitlines()
        )
        reassembled = assemble(listing)
        assert reassembled.text_base == program.text_base
        assert [encode(instruction) for instruction in reassembled.instructions] == words

    @given(_full_coverage_program())
    @settings(max_examples=10, deadline=None)
    def test_coverage_is_total(self, program):
        assert {ins.opcode for ins in program.instructions} == set(Opcode)
