"""Binary instruction encoding.

Each instruction is one 32-bit word:

* R-format: ``opcode[31:26] rd[25:21] rs1[20:16] rs2[15:11] 0[10:0]``
* I-format: ``opcode[31:26] rd[25:21] rs1[20:16] imm16[15:0]``
* B-format: ``opcode[31:26] 0[25:21]  rs1[20:16] rs2? -- see note`` —
  conditional branches carry two source registers and a 16-bit word offset,
  laid out as ``opcode[31:26] rs1[25:21] rs2[20:16] offset16[15:0]``
* J-format: ``opcode[31:26] offset26[25:0]`` for ``br``/``bsr``;
  ``opcode[31:26] rs1[25:21] 0[20:0]`` for ``jmp``/``jsr``; all-zero operand
  field for ``rts``.

The interpreter executes decoded :class:`~repro.isa.instructions.Instruction`
objects directly; this module exists so programs can be stored as genuine
machine words (tests verify the encode/decode round-trip over the whole ISA).
"""

from __future__ import annotations

from repro.errors import EncodingError
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
from repro.isa.registers import NUM_REGISTERS

_WORD_MASK = 0xFFFFFFFF


def _check_register(value: int, role: str) -> None:
    if not 0 <= value < NUM_REGISTERS:
        raise EncodingError(f"{role} out of range: {value}")


def _to_unsigned(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


def _to_signed(value: int, bits: int) -> int:
    sign_bit = 1 << (bits - 1)
    return (value ^ sign_bit) - sign_bit


def encode(instruction: Instruction) -> int:
    """Encode one instruction to its 32-bit machine word."""
    opcode = instruction.opcode
    word = int(opcode) << 26

    if opcode in R_FORMAT:
        for value, role in (
            (instruction.rd, "rd"),
            (instruction.rs1, "rs1"),
            (instruction.rs2, "rs2"),
        ):
            _check_register(value, role)
        word |= instruction.rd << 21 | instruction.rs1 << 16 | instruction.rs2 << 11
    elif opcode in I_FORMAT:
        _check_register(instruction.rd, "rd")
        _check_register(instruction.rs1, "rs1")
        if not IMM16_MIN <= instruction.imm <= IMM16_MAX:
            raise EncodingError(f"imm16 out of range: {instruction.imm}")
        word |= instruction.rd << 21 | instruction.rs1 << 16 | _to_unsigned(instruction.imm, 16)
    elif opcode in B_FORMAT:
        _check_register(instruction.rs1, "rs1")
        _check_register(instruction.rs2, "rs2")
        if not OFFSET16_MIN <= instruction.imm <= OFFSET16_MAX:
            raise EncodingError(f"branch offset out of range: {instruction.imm}")
        word |= instruction.rs1 << 21 | instruction.rs2 << 16 | _to_unsigned(instruction.imm, 16)
    elif opcode in (Opcode.BR, Opcode.BSR):
        if not OFFSET26_MIN <= instruction.imm <= OFFSET26_MAX:
            raise EncodingError(f"jump offset out of range: {instruction.imm}")
        word |= _to_unsigned(instruction.imm, 26)
    elif opcode in (Opcode.JMP, Opcode.JSR):
        _check_register(instruction.rs1, "rs1")
        word |= instruction.rs1 << 21
    elif opcode in (Opcode.RTS, Opcode.NOP, Opcode.HALT):
        pass
    else:  # pragma: no cover - enum is closed, defensive only
        raise EncodingError(f"unknown opcode {opcode!r}")
    return word & _WORD_MASK


def decode(word: int) -> Instruction:
    """Decode one 32-bit machine word, raising
    :class:`~repro.errors.EncodingError` on an invalid opcode."""
    if not 0 <= word <= _WORD_MASK:
        raise EncodingError(f"machine word out of range: {word:#x}")
    opcode_value = word >> 26
    try:
        opcode = Opcode(opcode_value)
    except ValueError as exc:
        raise EncodingError(f"invalid opcode field {opcode_value}") from exc

    if opcode in R_FORMAT:
        return Instruction(
            opcode,
            rd=(word >> 21) & 0x1F,
            rs1=(word >> 16) & 0x1F,
            rs2=(word >> 11) & 0x1F,
        )
    if opcode in I_FORMAT:
        return Instruction(
            opcode,
            rd=(word >> 21) & 0x1F,
            rs1=(word >> 16) & 0x1F,
            imm=_to_signed(word & 0xFFFF, 16),
        )
    if opcode in B_FORMAT:
        return Instruction(
            opcode,
            rs1=(word >> 21) & 0x1F,
            rs2=(word >> 16) & 0x1F,
            imm=_to_signed(word & 0xFFFF, 16),
        )
    if opcode in (Opcode.BR, Opcode.BSR):
        return Instruction(opcode, imm=_to_signed(word & 0x3FFFFFF, 26))
    if opcode in (Opcode.JMP, Opcode.JSR):
        return Instruction(opcode, rs1=(word >> 21) & 0x1F)
    # RTS, NOP, HALT
    return Instruction(opcode)
