"""Instruction set definition.

Fixed 32-bit instructions in four formats:

* **R** — register-register ALU ops: ``op rd, rs1, rs2``
* **I** — register-immediate ALU ops and memory ops: ``op rd, rs1, imm16``
* **B** — conditional branches: ``op rs1, rs2, offset16`` (signed word offset
  relative to the *next* pc)
* **J** — unconditional control flow: ``br``/``bsr`` with a signed 26-bit word
  offset; ``jmp``/``jsr``/``rts`` with a register.

Branch classification follows the paper's section 4: ``beq``-family are
conditional; ``rts`` is a subroutine return; ``br``/``bsr`` are immediate
unconditional; ``jmp``/``jsr`` are unconditional on a register.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, NamedTuple, Tuple

from repro.trace.record import BranchClass


class Opcode(enum.IntEnum):
    """All machine opcodes (pseudo-instructions never reach this level)."""

    NOP = 0
    HALT = 1
    # R-format ALU
    ADD = 2
    SUB = 3
    MUL = 4
    DIVS = 5
    REMS = 6
    AND = 7
    OR = 8
    XOR = 9
    SHL = 10
    SHR = 11
    SRA = 12
    # I-format ALU
    ADDI = 13
    MULI = 14
    ANDI = 15
    ORI = 16
    XORI = 17
    SHLI = 18
    SHRI = 19
    SRAI = 20
    LUI = 21
    # Memory (I-format: rd, imm16(rs1))
    LD = 22
    ST = 23
    LDB = 24
    STB = 25
    # Conditional branches (B-format)
    BEQ = 26
    BNE = 27
    BLT = 28
    BGE = 29
    BLE = 30
    BGT = 31
    # Unconditional control flow (J-format)
    BR = 32
    BSR = 33
    JMP = 34
    JSR = 35
    RTS = 36


R_FORMAT = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.DIVS,
        Opcode.REMS,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.SRA,
    }
)

I_FORMAT = frozenset(
    {
        Opcode.ADDI,
        Opcode.MULI,
        Opcode.ANDI,
        Opcode.ORI,
        Opcode.XORI,
        Opcode.SHLI,
        Opcode.SHRI,
        Opcode.SRAI,
        Opcode.LUI,
        Opcode.LD,
        Opcode.ST,
        Opcode.LDB,
        Opcode.STB,
    }
)

B_FORMAT = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLE, Opcode.BGT}
)

J_FORMAT = frozenset({Opcode.BR, Opcode.BSR, Opcode.JMP, Opcode.JSR, Opcode.RTS})

CONDITIONAL_BRANCHES = B_FORMAT

_BRANCH_CLASSES = {
    Opcode.BEQ: BranchClass.CONDITIONAL,
    Opcode.BNE: BranchClass.CONDITIONAL,
    Opcode.BLT: BranchClass.CONDITIONAL,
    Opcode.BGE: BranchClass.CONDITIONAL,
    Opcode.BLE: BranchClass.CONDITIONAL,
    Opcode.BGT: BranchClass.CONDITIONAL,
    Opcode.BR: BranchClass.IMM_UNCONDITIONAL,
    Opcode.BSR: BranchClass.IMM_UNCONDITIONAL,
    Opcode.JMP: BranchClass.REG_UNCONDITIONAL,
    Opcode.JSR: BranchClass.REG_UNCONDITIONAL,
    Opcode.RTS: BranchClass.RETURN,
}


def branch_class_of(opcode: Opcode) -> BranchClass:
    """Map an opcode to the paper's five-way instruction classification."""
    return _BRANCH_CLASSES.get(opcode, BranchClass.NON_BRANCH)


class Instruction(NamedTuple):
    """One decoded instruction.

    ``imm`` holds the I-format immediate, or the branch word offset for
    B/J-format control flow (relative to the next pc).  Unused fields are
    zero.  ``Instruction`` is a NamedTuple rather than a dataclass because the
    interpreter touches millions of them and tuple field access is the
    fastest attribute access available in CPython.
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    @property
    def branch_class(self) -> BranchClass:
        return branch_class_of(self.opcode)

    @property
    def is_branch(self) -> bool:
        return self.opcode in _BRANCH_CLASSES


# Range limits for validation (signed immediates are two's-complement).
IMM16_MIN, IMM16_MAX = -(1 << 15), (1 << 15) - 1
OFFSET16_MIN, OFFSET16_MAX = -(1 << 15), (1 << 15) - 1
OFFSET26_MIN, OFFSET26_MAX = -(1 << 25), (1 << 25) - 1


# ----------------------------------------------------------------------
# Operand use/def metadata.
#
# The static analyses (repro.analysis) need to know which registers an
# instruction reads and writes without re-deriving the interpreter's
# semantics.  The tables mirror the CPU exactly: stores read their
# "destination" field as the value source, calls define the link register,
# and rts reads it.
# ----------------------------------------------------------------------
_LINK = 1  # r1, the bsr/jsr link register (see isa.registers)

#: I-format opcodes whose ``rd`` is a *source* (the stored value).
STORE_OPCODES = frozenset({Opcode.ST, Opcode.STB})

#: opcodes that write no register at all.
_NO_WRITE = frozenset(
    {Opcode.NOP, Opcode.HALT, Opcode.BR, Opcode.JMP, Opcode.RTS}
) | B_FORMAT | STORE_OPCODES


def registers_read(instruction: Instruction) -> Tuple[int, ...]:
    """Register numbers this instruction reads, in operand order.

    ``r0`` is included when an operand field names it (callers that treat the
    hardwired zero as always-initialized should filter it out themselves).
    """
    opcode = instruction.opcode
    if opcode in R_FORMAT:
        return (instruction.rs1, instruction.rs2)
    if opcode in STORE_OPCODES:
        return (instruction.rd, instruction.rs1)  # value, base address
    if opcode is Opcode.LUI:
        return ()
    if opcode in I_FORMAT:
        return (instruction.rs1,)
    if opcode in B_FORMAT:
        return (instruction.rs1, instruction.rs2)
    if opcode in (Opcode.JMP, Opcode.JSR):
        return (instruction.rs1,)
    if opcode is Opcode.RTS:
        return (_LINK,)
    return ()  # nop, halt, br, bsr


def registers_written(instruction: Instruction) -> Tuple[int, ...]:
    """Register numbers this instruction writes.

    Writes to ``r0`` are architecturally discarded, so ``r0`` never appears
    in the result even when an instruction names it as destination.
    """
    opcode = instruction.opcode
    if opcode in (Opcode.BSR, Opcode.JSR):
        return (_LINK,)
    if opcode in _NO_WRITE:
        return ()
    return (instruction.rd,) if instruction.rd else ()


# ----------------------------------------------------------------------
# Value semantics metadata.
#
# Pure functions over 32-bit unsigned register values, one per ALU opcode
# and one predicate per conditional branch, mirroring the CPU exactly
# (same masking, same signedness, same truncation-toward-zero division).
# The abstract interpreter in repro.analysis.absint and the closed-form
# replay machinery in repro.analysis.predictability evaluate instructions
# through these tables so the interpreter's semantics are stated once.
# ----------------------------------------------------------------------
_WORD = 0xFFFFFFFF
_SIGN = 0x80000000


def signed_value(value: int) -> int:
    """Interpret a 32-bit unsigned register value as signed two's-complement."""
    return value - 0x100000000 if value & _SIGN else value


def _divs(a: int, b: int) -> int:
    # Truncation toward zero; raises ZeroDivisionError exactly where the
    # CPU raises ExecutionError, so callers can treat both as "no value".
    sb = signed_value(b)
    if sb == 0:
        raise ZeroDivisionError("divs by zero")
    return int(signed_value(a) / sb) & _WORD


def _rems(a: int, b: int) -> int:
    sb = signed_value(b)
    if sb == 0:
        raise ZeroDivisionError("rems by zero")
    sa = signed_value(a)
    return (sa - int(sa / sb) * sb) & _WORD


#: R-format ALU semantics: ``f(rs1_value, rs2_value) -> rd_value``.
ALU_SEMANTICS: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ADD: lambda a, b: (a + b) & _WORD,
    Opcode.SUB: lambda a, b: (a - b) & _WORD,
    Opcode.MUL: lambda a, b: (signed_value(a) * signed_value(b)) & _WORD,
    Opcode.DIVS: _divs,
    Opcode.REMS: _rems,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: (a << (b & 31)) & _WORD,
    Opcode.SHR: lambda a, b: a >> (b & 31),
    Opcode.SRA: lambda a, b: (signed_value(a) >> (b & 31)) & _WORD,
}

#: I-format ALU semantics: ``f(rs1_value, imm) -> rd_value`` (``imm`` is the
#: decoded signed immediate; masking matches the CPU per opcode).
IMM_SEMANTICS: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ADDI: lambda a, imm: (a + imm) & _WORD,
    Opcode.MULI: lambda a, imm: (signed_value(a) * imm) & _WORD,
    Opcode.ANDI: lambda a, imm: a & (imm & 0xFFFF),
    Opcode.ORI: lambda a, imm: a | (imm & 0xFFFF),
    Opcode.XORI: lambda a, imm: a ^ (imm & 0xFFFF),
    Opcode.SHLI: lambda a, imm: (a << (imm & 31)) & _WORD,
    Opcode.SHRI: lambda a, imm: a >> (imm & 31),
    Opcode.SRAI: lambda a, imm: (signed_value(a) >> (imm & 31)) & _WORD,
    Opcode.LUI: lambda a, imm: (imm & 0xFFFF) << 16,
}

#: Conditional-branch predicates: ``f(rs1_value, rs2_value) -> taken``.
BRANCH_SEMANTICS: Dict[Opcode, Callable[[int, int], bool]] = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: signed_value(a) < signed_value(b),
    Opcode.BGE: lambda a, b: signed_value(a) >= signed_value(b),
    Opcode.BLE: lambda a, b: signed_value(a) <= signed_value(b),
    Opcode.BGT: lambda a, b: signed_value(a) > signed_value(b),
}


def encoded_target(pc: int, instruction: Instruction) -> int:
    """Taken-direction target of a B-format / ``br`` / ``bsr`` instruction
    at byte address ``pc`` (word offset relative to the next pc)."""
    return pc + 4 + 4 * instruction.imm
